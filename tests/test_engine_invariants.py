"""Runtime invariants of the serving engine's incremental KV counters.

An :class:`~repro.serving.engine.EngineRun` keeps its node and per-shard
reservation counters incrementally: admissions add footprints, evictions
and finishers subtract them, and the prefix cache's resident totals move
with retentions, consumptions and evictions.  After every event a run
processes, the counters must equal the totals re-derived from scratch —
the footprints of the running batch plus the resident session prefixes —
and the tightest shard must never be overfilled.  The property below
checks this over the product of preemption mode, chunk size, prefix reuse
and crash faults.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FlexGenSystem
from repro.cluster import ReplicaGroup
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import PREEMPTION_MODES
from repro.serving.engine import EngineRun
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"


def assert_reservations(run: EngineRun) -> None:
    """The run's counters equal the totals re-derived from its state."""
    engine, prefix = run.engine, run._prefix
    requests = [wrapper.request for wrapper in run._running]
    assert run._reserved == (sum(r.max_seq_len for r in requests)
                             + prefix.node_total)
    assert run._shard_reserved == (
        sum(engine.shard_footprint(r) for r in requests)
        + prefix.shard_total)
    assert 0 <= run._shard_reserved <= run._shard_limit


@contextmanager
def audited():
    """Check :func:`assert_reservations` after every ``advance()``; yields
    the list of checked runs (one entry per check)."""
    checked = []
    advance = EngineRun.advance

    def audited_advance(run):
        event = advance(run)
        assert_reservations(run)
        checked.append(run)
        return event

    with mock.patch.object(EngineRun, "advance", audited_advance):
        yield checked


def build(node, parallelism):
    return FlexGenSystem(MODEL, node, parallelism=parallelism)


class TestReservationCounters:
    @settings(max_examples=40, deadline=None)
    @given(preemption=st.sampled_from(PREEMPTION_MODES),
           chunk=st.sampled_from([None, 32, 128]),
           prefix_reuse=st.booleans(),
           crash=st.booleans(),
           seed=st.integers(min_value=0, max_value=40))
    def test_counters_match_rederived_totals(self, preemption, chunk,
                                             prefix_reuse, crash, seed):
        # Contended enough (two-request batches, 40% interactive) that
        # preemption fires; the crash interrupts and retries work.
        requests = sessions(24, 8.0, seed=seed, interactive_fraction=0.4,
                            mean_turns=3.0, max_context=1024,
                            mean_new_input=64, mean_output=96).requests()
        group = ReplicaGroup.from_layout(
            build, "2x(none)", V100_16GB_NODE, policy="jsq",
            max_batch_size=2, preemption=preemption,
            prefix_reuse=prefix_reuse, prefill_chunk_tokens=chunk)
        faults = (FaultSchedule([FaultEvent(1, 2.0, 4.0, mode="crash")])
                  if crash else None)
        with audited() as checked:
            trace = group.serve(
                requests, faults=faults,
                retry=RetryPolicy(max_retries=4) if crash else None)
        assert checked
        assert trace.num_requests == len(requests)
        assert trace.num_failed == 0
