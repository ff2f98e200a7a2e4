"""Benchmark regenerating the online serving rate sweep (Section VI, online)."""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time
import tracemalloc

import pytest

from repro.baselines import VLLMSystem
from repro.cluster import ReplicaGroup
from repro.core.engine import AlisaSystem
from repro.experiments import run_experiment
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import Observer, SpanTracer
from repro.serving import ContinuousBatchingEngine
from repro.workloads.arrivals import RequestStream, generate_requests


@pytest.mark.benchmark(group="serving")
def test_bench_serving_rate_sweep(benchmark, record_rows):
    result = benchmark(run_experiment, "serving_rate_sweep",
                       rates=(4.0, 16.0), num_requests=16,
                       input_len=256, output_len=128)
    record_rows(benchmark, result)
    alisa = result.filter(system="alisa", rate_req_per_s=16.0)[0]
    vllm = result.filter(system="vllm", rate_req_per_s=16.0)[0]
    assert alisa["p99_ttft_s"] <= vllm["p99_ttft_s"]
    assert alisa["goodput_tokens_per_s"] >= vllm["goodput_tokens_per_s"]


@pytest.mark.benchmark(group="serving")
def test_bench_serving_bursty_sharegpt(benchmark, record_rows):
    result = benchmark(run_experiment, "serving_rate_sweep",
                       rates=(8.0,), num_requests=16, pattern="bursty",
                       input_len=None, output_len=None)
    record_rows(benchmark, result)
    for row in result.rows:
        assert row["num_requests"] == 16
        assert row["throughput_tokens_per_s"] > 0


@pytest.mark.benchmark(group="serving")
def test_bench_serving_fast_path(benchmark):
    """Steady-state serving at the highest sweep rate (epoch fast path).

    Benchmarks ``serve()`` on a long-lived engine — the deployment shape,
    where prefill-plan/epoch-price caches are warm — at the highest
    arrival rate of the serving sweep, and cross-checks the engine
    against the clock-stepped reference loop with per-step epoch pricing
    (``tests/clock_reference.py``): the traces must be bit-identical and
    the engine at least 5x faster.
    """
    # The reference is test code; this file also runs without tests/ on
    # sys.path (the CI bench job collects benchmarks/ alone).
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "tests"))
    from clock_reference import serve_stepped

    requests = generate_requests(16, rate=16.0, input_len=256,
                                 output_len=128, seed=0)
    engine = ContinuousBatchingEngine(
        AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8))
    fast_trace = engine.serve(requests)  # warm the pricing caches once
    benchmark(engine.serve, requests)

    stepped_engine = ContinuousBatchingEngine(
        AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8))
    serve_stepped(stepped_engine, requests)  # warm the schedule cache
    start = time.perf_counter()
    stepped_trace = serve_stepped(stepped_engine, requests)
    stepped_seconds = time.perf_counter() - start

    assert fast_trace.records == stepped_trace.records  # bit-identical
    speedup = stepped_seconds / benchmark.stats["mean"]
    benchmark.extra_info["stepped_reference_seconds"] = stepped_seconds
    benchmark.extra_info["speedup_vs_stepped_reference"] = speedup
    assert speedup >= 5.0, (
        f"epoch fast path only {speedup:.1f}x faster than the stepped "
        f"reference")


@pytest.mark.benchmark(group="serving")
def test_bench_serving_cluster(benchmark, record_rows):
    """Cluster serving: 2 GPUs as one TP-2 node vs two routed replicas.

    Every sweep row runs with a :class:`~repro.obs.SpanTracer` attached;
    the last row's Chrome trace is exported to ``BENCH_cluster_trace.json``
    (a CI artifact — load it in https://ui.perfetto.dev).
    """
    tracers = []

    def observers():
        tracer = SpanTracer()
        tracers.append(tracer)
        return [tracer]

    result = benchmark(run_experiment, "serving_rate_sweep",
                       rates=(8.0, 32.0), num_requests=16,
                       input_len=256, output_len=128,
                       cluster=("tp-2", "2x(tp-1)"), routing="jsq",
                       slo_classes={"interactive": (2.0, 0.1)},
                       observers=observers)
    record_rows(benchmark, result)
    exported = tracers[-1].export("BENCH_cluster_trace.json")
    payload = json.loads(exported.read_text())
    assert payload["traceEvents"]
    assert payload["otherData"]["requests"]
    benchmark.extra_info["chrome_trace"] = str(exported)
    assert {row["cluster"] for row in result.rows} == {"tp-2", "2x(none)"}
    assert {row["gpu_count"] for row in result.rows} == {2}
    for row in result.filter(system="alisa", cluster="2x(none)"):
        assert sum(row["dispatch_counts"]) == 16
        assert row["num_replicas"] == 2
    sharded = result.filter(system="alisa", cluster="tp-2",
                            rate_req_per_s=32.0)[0]
    replicated = result.filter(system="alisa", cluster="2x(none)",
                               rate_req_per_s=32.0)[0]
    # One big node pools its KV budget; two replicas split it.
    assert sharded["kv_budget_tokens"] > replicated["kv_budget_tokens"]


@pytest.mark.benchmark(group="serving")
def test_bench_serving_million(benchmark):
    """One million requests through a 2-replica cluster in bounded memory.

    The headline row for the event-driven serving core: a
    :class:`RequestStream` is routed live across two replicas and folded
    into streaming sketches (``record_mode="streaming"``), so neither the
    arrival trace nor the per-request records are ever materialized.  The
    gate asserts the two properties that make the row meaningful:

    * **bounded memory** — the tracemalloc peak of a warm serve barely
      moves when the trace grows 3x (router state, pending queues, and
      sketches are all sized by the in-flight work, not the trace);
    * **no super-linear wall-clock** — per-request time on the million-
      request run stays within noise of the cold small run's (a 100x
      larger trace must not cost more per request; the fixed costs —
      budget probes, epoch-pricing cache fills — amortize away).
    """
    def stream(n):
        # Rate comfortably below the 2-replica capacity (~23 req/s at
        # these lengths), so the backlog — and with it memory — is bounded.
        return RequestStream(n, rate=16.0, pattern="poisson", seed=0,
                             input_len=128, output_len=64)

    def factory(node, parallelism):
        return VLLMSystem("opt-6.7b", node, parallelism=parallelism)

    group = ReplicaGroup.from_layout(factory, "2x(none)", V100_16GB_NODE,
                                     policy="round-robin")
    n_small = 10_000
    start = time.perf_counter()
    group.serve(stream(n_small), record_mode="streaming")  # cold
    per_request_small = (time.perf_counter() - start) / n_small

    peaks = {}
    for n in (20_000, 60_000):  # warm, 3x apart
        tracemalloc.start()
        group.serve(stream(n), record_mode="streaming")
        _, peaks[n] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_20k_bytes"] = peaks[20_000]
    benchmark.extra_info["tracemalloc_peak_60k_bytes"] = peaks[60_000]
    assert peaks[60_000] < 1.5 * peaks[20_000] + 1_000_000, (
        f"streaming peak memory grew with the trace: "
        f"{peaks[20_000]} -> {peaks[60_000]} bytes")
    assert peaks[60_000] < 16_000_000

    n_big = 1_000_000
    trace = benchmark.pedantic(group.serve, args=(stream(n_big),),
                               kwargs={"record_mode": "streaming"},
                               rounds=1, iterations=1)
    assert trace.num_requests == n_big
    assert sum(trace.metadata["routing"]["dispatch_counts"]) == n_big
    assert trace.mean_queueing_delay < 1.0  # the rate really is sustained
    assert trace.summary()["p99_ttft_s"] > trace.summary()["p50_ttft_s"]
    per_request_big = benchmark.stats["mean"] / n_big
    benchmark.extra_info["per_request_us"] = per_request_big * 1e6
    # 1.25x headroom: the cold 10k timing is a single noisy sample, and a
    # loaded CI machine can skew either side of the comparison.  A linear
    # or super-linear core would blow through this by orders of magnitude.
    assert per_request_big < 1.25 * per_request_small, (
        f"per-request wall-clock grew with the trace: "
        f"{per_request_small * 1e6:.0f}us -> {per_request_big * 1e6:.0f}us")


@pytest.mark.benchmark(group="serving")
def test_bench_fault_recovery(benchmark):
    """Serving through a mid-trace replica crash: goodput during the
    outage window and the time to drain the interrupted work after the
    replica rejoins (``recovery_time_s``)."""
    fail_at, recover_at = 2.5, 4.0
    requests = generate_requests(24, rate=8.0, input_len=256,
                                 output_len=128, seed=0)
    group = ReplicaGroup.from_layout(
        lambda node, parallelism: VLLMSystem("opt-6.7b", node,
                                             parallelism=parallelism),
        "2x(none)", V100_16GB_NODE)
    faults = FaultSchedule([FaultEvent(1, fail_at, recover_at,
                                       mode="crash")])

    def serve():
        return group.serve(requests, policy="jsq", faults=faults,
                           retry=RetryPolicy(max_retries=3,
                                             backoff_s=0.05))

    trace = benchmark(serve)
    completed = trace.completed_records
    assert len(completed) == 24  # JSQ re-routing + retry loses nothing
    assert trace.num_retries > 0
    outage_tokens = sum(r.output_len for r in completed
                        if fail_at <= r.completion_time <= recover_at)
    goodput_during_outage = outage_tokens / (recover_at - fail_at)
    retried = [r.completion_time for r in completed if r.retries > 0]
    recovery_time = max(max(retried) - recover_at, 0.0)
    resilience = trace.metadata["resilience"]
    benchmark.extra_info["goodput_during_outage_tokens_per_s"] = \
        goodput_during_outage
    benchmark.extra_info["recovery_time_s"] = recovery_time
    benchmark.extra_info["num_retries"] = trace.num_retries
    benchmark.extra_info["availability"] = resilience["availability"]
    # The surviving replica keeps producing tokens through the outage.
    assert goodput_during_outage > 0.0
    assert 0.0 < resilience["availability"] < 1.0


@pytest.mark.benchmark(group="serving")
def test_bench_observer_overhead(benchmark):
    """A no-op observer costs at most 5% over the unobserved serve.

    Every engine hook site is guarded by one ``if``, so the unobserved
    path is instruction-identical to the pre-observability core; with a
    no-op :class:`~repro.obs.Observer` attached the engine and driver
    leave its inherited no-op callbacks out of their per-request and
    per-epoch dispatch.  The serve is large enough (~10 ms) to sit well
    above timer noise.  Each serve is timed in process CPU time, so time
    the process spends descheduled on a shared machine is not counted,
    and the two serves alternate, so the median ratio of adjacent pairs
    is robust to the machine's speed drifting.
    """
    requests = generate_requests(800, rate=16.0, input_len=256,
                                 output_len=128, seed=0)
    engine = ContinuousBatchingEngine(
        VLLMSystem("opt-6.7b", V100_16GB_NODE))
    observer = Observer()

    def timed(serve_kwargs):
        start = time.process_time()
        engine.serve(requests, **serve_kwargs)
        return time.process_time() - start

    engine.serve(requests)  # warm the pricing caches once
    base, observed = [], []
    for pair in range(20):
        if pair % 2:
            observed.append(timed({"observers": [observer]}))
            base.append(timed({}))
        else:
            base.append(timed({}))
            observed.append(timed({"observers": [observer]}))
    overhead = statistics.median(
        o / b for o, b in zip(observed, base)) - 1.0
    benchmark.extra_info["base_min_s"] = min(base)
    benchmark.extra_info["observed_min_s"] = min(observed)
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead <= 0.05, (
        f"no-op observer overhead {overhead:+.1%} exceeds the 5% budget")
    benchmark.pedantic(engine.serve, args=(requests,),
                       kwargs={"observers": [observer]},
                       rounds=5, iterations=1)


@pytest.mark.benchmark(group="serving")
def test_bench_serving_multi_gpu_tp(benchmark, record_rows):
    """Sharded serving: single-GPU vs 2-GPU tensor parallel in one sweep."""
    result = benchmark(run_experiment, "serving_rate_sweep",
                       rates=(8.0, 32.0), num_requests=16,
                       input_len=256, output_len=128,
                       parallelism=("none", "tp-2"))
    record_rows(benchmark, result)
    single = result.filter(system="alisa", parallelism="none",
                           rate_req_per_s=32.0)[0]
    sharded = result.filter(system="alisa", parallelism="tp-2",
                            rate_req_per_s=32.0)[0]
    assert sharded["kv_budget_tokens"] > single["kv_budget_tokens"]
    assert sharded["p99_ttft_s"] <= single["p99_ttft_s"]
    assert sharded["comm_time_share"] > 0.0
