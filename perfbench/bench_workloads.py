"""The benchmark's workloads: inputs, serve configuration and output checks.

Every workload serves a 2-replica cluster through ``ReplicaGroup.serve``
and runs a small ``serving_rate_sweep`` of the same shape, so both
end-to-end metrics (host time per simulated request on a warm group,
sweep rows per second from a cold start) are measured on it.  The three
workloads stress different layers:

* ``stream`` — the million-request row's shape, scaled down: an open-loop
  Poisson stream of fixed 128/64-token requests at 16 req/s through two
  vLLM replicas, folded into streaming sketches.  Every epoch shape
  repeats, so pricing is all cache hits and the driver, epoch bookkeeping
  and sinks dominate.
* ``sessions`` — multi-turn ALISA sessions at 4 sessions/s, half
  interactive and half batch, with load-aware routing, ``retain``
  preemption and 256-token chunked prefill, full records.  Heavy-tailed
  shapes and prefix reuse load admission, chunk pricing and planning.
* ``faults`` — bursty ShareGPT-length single-shot traffic at 8 req/s
  through two vLLM replicas while first one and then the other crashes,
  with retries and a span tracer attached: the fault driver body,
  re-routing and observer hooks.

A run draws several input sets (variants) from its seed and measures
each, so one unusual draw of a heavy-tailed distribution does not decide
the run's figures.  Inputs are pure functions of the seed; the program
only sees the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines import VLLMSystem
from repro.cluster import ReplicaGroup
from repro.core.engine import AlisaSystem
from repro.experiments.serving import serving_rate_sweep
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import SpanTracer
from repro.workloads.arrivals import RequestStream, generate_requests
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"
CLASS_SLOS = {"interactive": (2.0, 0.1), "batch": (20.0, 0.5)}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _vllm(node, parallelism):
    return VLLMSystem(MODEL, node, parallelism=parallelism)


def _alisa(node, parallelism):
    return AlisaSystem(MODEL, node, kv_sparsity=0.8, parallelism=parallelism)


@dataclass
class Variant:
    """One input set: the serve's inputs and the sweep's arguments."""

    inputs: object
    num_requests: int
    serve_kwargs: dict
    sweep_kwargs: dict
    #: Fingerprints of the first serve and sweep, which every repeat must
    #: reproduce bit for bit.
    serve_reference: tuple | None = None
    sweep_reference: str | None = None


@dataclass
class Workload:
    """One traffic mix: how to build the group, serve it, sweep it, and
    check what comes back."""

    make_group: Callable[[], ReplicaGroup]
    variants: list[Variant]
    sweep_rows: int
    observers: Callable[[], list] | None = None

    def serve(self, group: ReplicaGroup, variant: Variant):
        observers = self.observers() if self.observers else None
        return group.serve(variant.inputs, observers=observers,
                           **variant.serve_kwargs)

    def sweep(self, variant: Variant):
        return serving_rate_sweep(model=MODEL, **variant.sweep_kwargs)

    # ------------------------------------------------------------------ #
    def check_serve(self, variant: Variant, trace) -> None:
        """Conservation, ordering, and bit-identity with the first serve."""
        expected = variant.num_requests
        if trace.num_requests != expected:
            raise CheckFailed(f"{trace.num_requests} of {expected} requests "
                              f"terminated")
        if trace.num_failed or trace.num_shed:
            raise CheckFailed(f"{trace.num_failed} failed and "
                              f"{trace.num_shed} shed requests")
        dispatched = sum(trace.metadata["routing"]["dispatch_counts"])
        if dispatched != expected + trace.num_retries:
            raise CheckFailed(f"{dispatched} dispatches for {expected} "
                              f"requests and {trace.num_retries} retries")
        if trace.generated_tokens <= 0 or trace.duration <= 0.0:
            raise CheckFailed("serve produced no tokens")
        records = getattr(trace, "records", None)
        if records is not None:
            ids = sorted(record.request_id for record in records)
            if ids != list(range(expected)):
                raise CheckFailed("request ids are not each served once")
            for record in records:
                if not (record.arrival_time <= record.admission_time
                        <= record.first_token_time
                        <= record.completion_time):
                    raise CheckFailed(f"request {record.request_id} has "
                                      f"out-of-order timestamps")
        fingerprint = (repr(trace.summary()), trace.generated_tokens,
                       repr(trace.metadata.get("resilience")))
        if variant.serve_reference is None:
            variant.serve_reference = fingerprint
        elif fingerprint != variant.serve_reference:
            raise CheckFailed("a repeated serve of the same inputs changed "
                              "its results")

    def check_sweep(self, variant: Variant, result) -> None:
        """Shape, sanity, and bit-identity with the first sweep."""
        if len(result.rows) != self.sweep_rows:
            raise CheckFailed(f"sweep gave {len(result.rows)} rows, "
                              f"expected {self.sweep_rows}")
        for row in result.rows:
            if row["num_requests"] <= 0 or row["num_failed"] \
                    or row["num_shed"]:
                raise CheckFailed(f"sweep row lost requests: {row}")
            if not row["throughput_tokens_per_s"] > 0.0:
                raise CheckFailed(f"sweep row served no tokens: {row}")
        fingerprint = repr(result.rows)
        if variant.sweep_reference is None:
            variant.sweep_reference = fingerprint
        elif fingerprint != variant.sweep_reference:
            raise CheckFailed("a repeated sweep changed its rows")

    def check_once(self) -> None:
        """Workload-specific cross-check, run once outside timing."""


class _StreamWorkload(Workload):
    def check_once(self) -> None:
        """Streaming sketches must agree with full records on the exact
        figures (counts, tokens, makespan, mean queueing delay)."""
        variant = self.variants[0]
        stream = self.make_group().serve(variant.inputs,
                                         **variant.serve_kwargs)
        kwargs = dict(variant.serve_kwargs, record_mode="full")
        full = self.make_group().serve(list(variant.inputs), **kwargs)
        for name in ("num_requests", "generated_tokens", "duration"):
            if getattr(stream, name) != getattr(full, name):
                raise CheckFailed(f"streaming {name} {getattr(stream, name)} "
                                  f"!= full {getattr(full, name)}")
        a, b = stream.mean_queueing_delay, full.mean_queueing_delay
        if abs(a - b) > 1e-9 * max(abs(b), 1.0):
            raise CheckFailed(f"streaming mean queueing delay {a} != {b}")


def _subseeds(seed: int, count: int) -> range:
    """Variant ``k`` of seed ``s`` draws from sub-seed ``100 * s + k``, so
    different seeds never share inputs."""
    return range(100 * seed, 100 * seed + count)


def stream(seed: int) -> Workload:
    rates = (8.0, 16.0)

    def variant(subseed: int) -> Variant:
        return Variant(
            inputs=RequestStream(1000, rate=16.0, pattern="poisson",
                                 seed=subseed, input_len=128, output_len=64),
            num_requests=1000,
            serve_kwargs=dict(record_mode="streaming", ttft_slo_s=5.0,
                              tpot_slo_s=0.2),
            sweep_kwargs=dict(rates=rates, num_requests=40, input_len=128,
                              output_len=64, seed=subseed,
                              record_mode="streaming",
                              cluster=("2x(none)",), routing="round-robin"))

    return _StreamWorkload(
        make_group=lambda: ReplicaGroup.from_layout(
            _vllm, "2x(none)", V100_16GB_NODE, policy="round-robin"),
        variants=[variant(subseed) for subseed in _subseeds(seed, 4)],
        sweep_rows=len(rates) * 3,
    )


class _FirstTurns:
    """A session workload cut to its first ``count`` turns at every rate.

    Heavy-tailed sessions lower to a seed-dependent number of turns; a
    fixed count keeps the work per sweep row, and so rows per second,
    comparable across seeds.
    """

    def __init__(self, spec, count: int) -> None:
        self.spec = spec
        self.count = count

    def with_rate(self, rate: float) -> "_FirstTurns":
        return _FirstTurns(self.spec.with_rate(rate), self.count)

    def requests(self) -> list:
        turns = self.spec.requests()
        if len(turns) < self.count:
            raise CheckFailed(f"session trace has only {len(turns)} turns")
        return turns[:self.count]


def session_mix(seed: int) -> Workload:
    rates = (2.0, 4.0)
    routing = ("jsq", "session-affinity")
    engine = dict(preemption="retain", prefill_chunk_tokens=256)

    def variant(subseed: int) -> Variant:
        requests = sessions(150, rate=4.0, seed=subseed,
                            interactive_fraction=0.5).requests()
        return Variant(
            inputs=requests,
            num_requests=len(requests),
            serve_kwargs=dict(class_slos=CLASS_SLOS),
            sweep_kwargs=dict(
                rates=rates, seed=subseed, cluster=("2x(none)",),
                routing=routing, slo_classes=CLASS_SLOS,
                workload=_FirstTurns(sessions(40, seed=subseed,
                                              interactive_fraction=0.5), 24),
                **engine))

    return Workload(
        make_group=lambda: ReplicaGroup.from_layout(
            _alisa, "2x(none)", V100_16GB_NODE, policy="jsq", **engine),
        # Twice the variants of the other workloads: planning cost on
        # heavy-tailed session shapes varies most from draw to draw.
        variants=[variant(subseed) for subseed in _subseeds(seed, 8)],
        sweep_rows=len(rates) * 3 * len(routing),
    )


def _outages(horizon_s: float) -> FaultSchedule:
    """A crash of replica 1, then one of replica 0, placed by share of the
    trace's arrival horizon so every seed sees the same fault load.

    ``drain`` outages are left out: a drained request retried onto a
    replica whose clock lags its re-dispatch instant can be admitted
    there before it left the drained replica, and its record then fails
    the trace's timestamp-order validation.
    """
    return FaultSchedule([
        FaultEvent(1, 0.20 * horizon_s, 0.35 * horizon_s, mode="crash"),
        FaultEvent(0, 0.60 * horizon_s, 0.70 * horizon_s, mode="crash"),
    ])


def faults(seed: int) -> Workload:
    rates = (4.0, 8.0)
    sweep_requests = 48
    retry = RetryPolicy(max_retries=4, backoff_s=0.05)

    def variant(subseed: int) -> Variant:
        requests = generate_requests(600, rate=8.0, pattern="bursty",
                                     seed=subseed)
        return Variant(
            inputs=requests,
            num_requests=len(requests),
            serve_kwargs=dict(faults=_outages(requests[-1].arrival_time),
                              retry=retry, class_slos=CLASS_SLOS),
            sweep_kwargs=dict(
                rates=rates, num_requests=sweep_requests, pattern="bursty",
                input_len=None, output_len=None, seed=subseed,
                cluster=("2x(none)",), routing="jsq",
                faults=_outages(sweep_requests / max(rates)), retry=retry,
                slo_classes=CLASS_SLOS, observers=lambda: [SpanTracer()]))

    return Workload(
        make_group=lambda: ReplicaGroup.from_layout(
            _vllm, "2x(none)", V100_16GB_NODE, policy="jsq"),
        variants=[variant(subseed) for subseed in _subseeds(seed, 4)],
        sweep_rows=len(rates) * 3,
        observers=lambda: [SpanTracer()],
    )


WORKLOADS = {"stream": stream, "sessions": session_mix, "faults": faults}
