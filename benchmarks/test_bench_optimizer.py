"""Benchmarks for the scheduler optimizer and its incremental re-solve layer.

``test_bench_serving_incremental_speedup`` is the acceptance benchmark for
the serving hot path: it serves a bursty ShareGPT-length arrival trace
whose decode epochs spill past the GPU KV budget (an epoch that fits is
priced from the step table without any schedule search) through a
cold-cache incremental engine and compares against the pre-cache
behaviour (a full offline grid search per decode epoch,
``FULL_RESOLVE_POLICY``).  The measured ratio is attached to
``extra_info`` so the CI artifact (``BENCH_optimizer.json``) documents the
speedup, and the test fails outright below 5x.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import AlisaSystem
from repro.core.schedule_cache import FULL_RESOLVE_POLICY
from repro.core.swa import SWAConfig
from repro.core.optimizer import SchedulerOptimizer
from repro.hardware.presets import hardware_for_model
from repro.model.config import get_config
from repro.serving import ContinuousBatchingEngine
from repro.systems.cost import LLMCostModel
from repro.workloads.arrivals import generate_requests
from repro.workloads.descriptors import ALPACA_WORKLOAD

MODEL = "opt-6.7b"


def make_optimizer() -> SchedulerOptimizer:
    cost_model = LLMCostModel(get_config(MODEL), hardware_for_model(MODEL))
    return SchedulerOptimizer(cost_model, ALPACA_WORKLOAD,
                              SWAConfig.from_sparsity(0.8), kv_dtype="int8")


@pytest.mark.benchmark(group="optimizer")
def test_bench_optimizer_full_grid(benchmark):
    """The paper's offline search (Section V-A) on the Alpaca workload."""
    solution = benchmark(lambda: make_optimizer().solve())
    benchmark.extra_info["evaluated_candidates"] = \
        solution.evaluated_candidates
    assert solution.estimated_time > 0


@pytest.mark.benchmark(group="optimizer")
def test_bench_optimizer_incremental_grid(benchmark):
    """Same search through the vectorized objective (cold, no warm start)."""
    solution = benchmark(lambda: make_optimizer().solve_incremental())
    reference = make_optimizer().solve()
    benchmark.extra_info["evaluated_candidates"] = \
        solution.evaluated_candidates
    assert solution.config == reference.config


@pytest.mark.benchmark(group="optimizer")
def test_bench_serving_incremental_speedup(benchmark):
    """Cold-cache incremental serving vs a full re-solve per epoch (>= 5x)."""
    hardware = hardware_for_model(MODEL)
    requests = generate_requests(24, 64.0, pattern="bursty", input_len=None,
                                 output_len=None, seed=3)

    start = time.perf_counter()
    full_trace = ContinuousBatchingEngine(
        AlisaSystem(MODEL, hardware, kv_sparsity=0.8,
                    schedule_policy=FULL_RESOLVE_POLICY)).serve(requests)
    full_resolve_seconds = time.perf_counter() - start

    def serve_cold_incremental():
        engine = ContinuousBatchingEngine(
            AlisaSystem(MODEL, hardware, kv_sparsity=0.8))
        return engine.serve(requests)

    trace = benchmark(serve_cold_incremental)
    incremental_seconds = benchmark.stats.stats.mean
    speedup = full_resolve_seconds / incremental_seconds
    benchmark.extra_info["full_resolve_seconds"] = full_resolve_seconds
    benchmark.extra_info["speedup_vs_full_resolve"] = speedup
    benchmark.extra_info["scheduler"] = trace.metadata["scheduler"]

    # Enough spilling epoch shapes that the speedup measures the schedule
    # cache, not a couple of searches among step-table epochs.
    assert full_trace.metadata["scheduler"]["full_solves"] >= 10
    assert speedup >= 5.0
    # The schedules the cache serves must price the same workload within
    # the documented drift bound of the full re-solve.
    full_summary = full_trace.summary()
    incremental_summary = trace.summary()
    for metric in ("p99_ttft_s", "p99_tpot_s", "duration_s"):
        assert incremental_summary[metric] == pytest.approx(
            full_summary[metric], rel=0.05)
