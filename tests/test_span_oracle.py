"""Equivalence oracle for SpanTracer.

``SpanTracer`` records each batch-wide stall once per replica and builds
request spans when they are read.  These tests attach it next to the
eager reference tracer (``tests/span_reference.py``) on the same serves
and require the same spans, latency components, blame table, first-token
times and Chrome export text, over a matrix of systems, preemption modes,
chunked prefill, serve layers, fault modes and arrival sources.

The design relies on one invariant of the serving core, pinned here too:
at every decode epoch the batch is exactly the replica's resident set
(admitted, and not yet preempted, completed or failed).
"""

import dataclasses
import functools
import itertools
import json
from types import SimpleNamespace

import pytest

from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup
from repro.core.engine import AlisaSystem
from repro.faults import FaultEvent, FaultSchedule, LoadShedder, RetryPolicy
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import SpanTracer
from repro.serving import ContinuousBatchingEngine
from repro.serving.trace import RequestRecord
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.sessions import sessions
from span_reference import EagerSpanTracer

MODEL = "opt-6.7b"
CLASS_SLOS = {"interactive": (1.0, 0.05), "batch": (20.0, 0.5)}

SYSTEMS = {
    "vllm": lambda node, parallelism: VLLMSystem(
        MODEL, node, parallelism=parallelism),
    "flexgen": lambda node, parallelism: FlexGenSystem(
        MODEL, node, parallelism=parallelism),
    "alisa": lambda node, parallelism: AlisaSystem(
        MODEL, node, kv_sparsity=0.8, parallelism=parallelism),
}


def _cases() -> list[tuple]:
    cases = []
    for system, preemption, chunk, layer, faults, source in itertools.product(
            SYSTEMS, (None, "retain", "recompute"), (None, 64),
            ("engine", "group"), ("none", "crash", "drain"),
            ("list", "session-list", "closed-loop")):
        if faults != "none" and (layer == "engine"
                                 or source == "closed-loop"):
            continue  # faults on groups only; closed loops reject faults
        cases.append((system, preemption, chunk, layer, faults, source))
    return cases


CASES = _cases()
IDS = ["-".join(str(part or "off") for part in case) for case in CASES]


def _source(kind: str):
    if kind == "list":
        arrivals = generate_requests(16, 4.0, pattern="bursty", seed=3,
                                     max_len=512)
        # Every third request interactive, so "retain"/"recompute" have
        # batch work to evict.
        return [dataclasses.replace(
            request, slo_class="interactive" if index % 3 == 0 else "batch")
            for index, request in enumerate(arrivals)]
    spec = sessions(6, rate=1.5, seed=7, mean_turns=3.0, mean_think_s=1.0,
                    interactive_fraction=0.5)
    return spec.requests() if kind == "session-list" else spec.closed_loop()


def _fault_kwargs(kind: str) -> dict:
    if kind == "none":
        return {}
    # Three short outages: a request drained mid-residency can be drained
    # again before it stalls, so its two waits coalesce into one span.
    return {"faults": FaultSchedule([FaultEvent(0, 1.0, 1.5, mode=kind),
                                     FaultEvent(1, 2.0, 2.5, mode=kind),
                                     FaultEvent(0, 3.0, 3.5, mode=kind)]),
            "retry": RetryPolicy(max_retries=2, backoff_s=0.05),
            "shedding": LoadShedder()}


class _ResidencyCheck(EagerSpanTracer):
    """The reference tracer, also recording every decode epoch whose batch
    differs from the replica's resident set, and counting admissions
    whose wait extends the previous wait (a residency that stalled
    nothing)."""

    def __init__(self) -> None:
        super().__init__()
        self.epochs = 0
        self.mismatches: list = []
        self.wait_merges = 0

    def on_admission(self, replica, time, request, prefix_hit=False,
                     resumed=False):
        state = self._states.get(request.request_id)
        if state is not None and state.segments:
            category, _, end = state.segments[-1]
            if (category == ("preempted" if resumed else "queue")
                    and end == state.cursor):
                self.wait_merges += 1
        super().on_admission(replica, time, request, prefix_hit=prefix_hit,
                             resumed=resumed)

    def on_epoch(self, replica, start, end, kind, steps, first_token_time,
                 batch):
        self.epochs += 1
        ids = {request.request_id for request in batch}
        resident = self._resident.get(replica, set())
        if ids != resident:
            self.mismatches.append((replica, start, sorted(ids),
                                    sorted(resident)))
        super().on_epoch(replica, start, end, kind, steps,
                         first_token_time, batch)


@functools.lru_cache(maxsize=None)
def _serve(case: tuple):
    """Serve ``case`` once with the reference and the new tracer attached."""
    system, preemption, chunk, layer, faults, source = case
    engine_kwargs = {"preemption": preemption,
                     "prefill_chunk_tokens": chunk}
    if preemption is not None:
        engine_kwargs["max_batch_size"] = 4  # preemption needs contention
    reference, tracer = _ResidencyCheck(), SpanTracer()
    serve_kwargs = dict(observers=[reference, tracer],
                        class_slos=CLASS_SLOS, **_fault_kwargs(faults))
    if layer == "engine":
        server = ContinuousBatchingEngine(
            SYSTEMS[system](V100_16GB_NODE, None), **engine_kwargs)
    else:
        server = ReplicaGroup.from_layout(
            SYSTEMS[system], "2x(none)", V100_16GB_NODE, policy="jsq",
            seed=3, **engine_kwargs)
    trace = server.serve(_source(source), **serve_kwargs)
    return reference, tracer, trace


def _typed(components: dict) -> dict:
    """Components with each value's type, so ``0`` differs from ``0.0``."""
    return {key: (type(value).__name__, value)
            for key, value in components.items()}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tracer_matches_eager_reference(case):
    reference, tracer, trace = _serve(case)
    assert trace.num_requests > 0
    assert tracer.request_ids == reference.request_ids
    for request_id in reference.request_ids:
        assert tracer.spans_for(request_id) == \
            reference.spans_for(request_id), request_id
        assert tracer._states[request_id].first_token == \
            reference._states[request_id].first_token, request_id
    assert tracer.components.keys() == reference.components.keys()
    for request_id, components in reference.components.items():
        assert _typed(tracer.components[request_id]) == \
            _typed(components), request_id
    assert json.dumps(tracer.attribution) == \
        json.dumps(reference.attribution)
    assert json.dumps(tracer.to_chrome_trace()) == \
        json.dumps(reference.to_chrome_trace())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_every_epoch_batch_is_the_resident_set(case):
    reference, _, _ = _serve(case)
    assert reference.epochs > 0
    assert reference.mismatches == []


def test_matrix_exercises_preemption_and_faults():
    """The matrix reaches the paths the span rewrite must get right:
    preemption swaps, replica failures, retries and coalescing waits."""
    swaps = failures = retries = wait_merges = 0
    for case in CASES:
        reference, _, _ = _serve(case)
        wait_merges += reference.wait_merges
        slices = itertools.chain.from_iterable(
            reference._engine_slices.values())
        swaps += sum(1 for name, *_ in slices if name == "preempt-swap")
        failures += sum(1 for name, *_ in reference._fault_marks
                        if name == "replica-fail")
        retries += sum(1 for name, *_ in reference._fault_marks
                       if name == "retry")
    assert swaps > 0 and failures > 0 and retries > 0 and wait_merges > 0


def _scripted_serve(tracer) -> None:
    """A hand-written two-replica event sequence with waits that do and do
    not coalesce across residencies that stalled nothing."""
    first = Request(request_id=0, arrival_time=0.1, input_len=64,
                    output_len=8, slo_class="batch")
    second = Request(request_id=1, arrival_time=0.2, input_len=64,
                     output_len=8, slo_class="batch")
    for replica in (0, 1):
        tracer.on_serve_start(replica, None)
    tracer.on_arrival(0, 0.1, first)
    tracer.on_arrival(0, 0.2, second)
    tracer.on_admission(0, 0.3, first)
    tracer.on_admission(0, 0.3, second)
    tracer.on_prefill(0, 0.3, 0.5, [first, second])
    tracer.on_epoch(0, 0.5, 0.7, "preemption", 3, 0.55, [first, second])
    tracer.on_preemption(0, 0.7, 0.8, first, "retain", 128)
    tracer.on_epoch(0, 0.8, 0.9, "epoch-boundary", 2, 0.85, [second])
    tracer.on_admission(0, 1.1, first, resumed=True)
    # Evicted again before it stalled, at a later clock: a new wait.
    tracer.on_preemption(0, 1.2, 1.25, first, "retain", 128)
    tracer.on_admission(0, 1.4, first, resumed=True)
    # Drained before it stalled: the next wait extends this one.
    tracer.on_replica_fail(0, 1.4, "drain")
    for request in (first, second):
        tracer.on_retry(0, 1.5, request, 1)
        tracer.on_arrival(1, request.arrival_time, request)
    tracer.on_admission(1, 3.23, first, resumed=True)
    tracer.on_admission(1, 3.23, second)
    tracer.on_prefill_chunk(1, 3.23, 3.3, [(second, 64)])
    tracer.on_epoch(1, 3.3, 3.6, "completion", 8, 3.35, [first, second])
    for request in (first, second):
        tracer.on_completion(1, RequestRecord(
            request_id=request.request_id,
            arrival_time=request.arrival_time, admission_time=0.3,
            first_token_time=0.55, completion_time=3.6, input_len=64,
            output_len=8, slo_class="batch", retries=1))
    tracer.on_replica_recover(0, 2.0)
    tracer.finish(SimpleNamespace(metadata={}), CLASS_SLOS)


def test_scripted_waits_coalesce_like_the_reference():
    reference, tracer = EagerSpanTracer(), SpanTracer()
    _scripted_serve(reference)
    _scripted_serve(tracer)
    assert ("preempted", 1.2, 3.23) in tracer.spans_for(0)
    for request_id in (0, 1):
        assert tracer.spans_for(request_id) == \
            reference.spans_for(request_id)
        assert tracer._states[request_id].first_token == \
            reference._states[request_id].first_token
        assert _typed(tracer.components[request_id]) == \
            _typed(reference.components[request_id])
    assert json.dumps(tracer.to_chrome_trace()) == \
        json.dumps(reference.to_chrome_trace())
