"""Bit-identity of the vectorized epoch pricing fast path.

The fast path (``InferenceSimulator.epoch_timings`` +
``ContinuousBatchingEngine._price_epoch_fast``) must be a pure
re-expression of the per-step loop: same plans, same prices, same traces,
bit for bit.  These tests pin that across systems, KV dtypes, shard
shapes, and random workloads (hypothesis), pin the serving/offline
traces against the per-step references in ``tests/clock_reference.py``,
and pin the step-table pricing of epochs that keep their KV on the GPU
against full planning.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clock_reference import decode_stepped, price_epoch_stepwise, serve_stepped
from repro._common import ConfigurationError, left_sum
from repro.baselines import (
    AccelerateSystem,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    GPUOnlySystem,
    VLLMSystem,
)
from repro.core.engine import AlisaSystem
from repro.core.scheduler import PHASE_GPU, DynamicScheduler, SchedulerConfig
from repro.core.swa import SWAConfig, sequence_table
from repro.hardware.presets import V100_16GB_NODE, multi_gpu
from repro.serving import ContinuousBatchingEngine
from repro.serving.engine import _PricedEpoch
from repro.systems.cost import ParallelismSpec
from repro.systems.memory import MemoryHierarchy, PCIeLink
from repro.systems.pricing import PricingStore
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.descriptors import Workload

MODEL = "opt-6.7b"

SYSTEM_BUILDERS = {
    "gpu-only": lambda hw, **kw: GPUOnlySystem(MODEL, hw, **kw),
    "accelerate": lambda hw, **kw: AccelerateSystem(MODEL, hw, **kw),
    "deepspeed-zero": lambda hw, **kw: DeepSpeedZeroSystem(MODEL, hw, **kw),
    "flexgen": lambda hw, **kw: FlexGenSystem(MODEL, hw, **kw),
    "vllm": lambda hw, **kw: VLLMSystem(MODEL, hw, **kw),
    "alisa": lambda hw, **kw: AlisaSystem(MODEL, hw, kv_sparsity=0.8, **kw),
    "alisa-static": lambda hw, **kw: AlisaSystem(
        MODEL, hw, kv_sparsity=0.8, use_dynamic_scheduling=False, **kw),
    # A fixed schedule entering Phase III early, so epochs recompute.
    "alisa-recompute": lambda hw, **kw: AlisaSystem(
        MODEL, hw, kv_sparsity=0.8,
        scheduler_config=SchedulerConfig(0.7, 0.4, 0, 5), **kw),
}

SHARD_SHAPES = {
    "none": (1, None),
    "tp-2": (2, ParallelismSpec("tp", 2)),
    "pp-2": (2, ParallelismSpec("pp", 2)),
}


def build_system(system: str, shard: str = "none", **kwargs):
    gpu_count, parallelism = SHARD_SHAPES[shard]
    hardware = multi_gpu(V100_16GB_NODE, gpu_count)
    if parallelism is not None:
        kwargs["parallelism"] = parallelism
    return SYSTEM_BUILDERS[system](hardware, **kwargs)


def stepwise_reference(system, workload):
    """Price the epoch with the per-step loop (the legacy hot path)."""
    system.prepare(workload)
    system.plan_prefill(workload)
    memory = MemoryHierarchy.from_hardware(system.hardware)
    timings = [
        system.step_timing(system.plan_decode_step(step, workload), step,
                           workload, memory)
        for step in range(workload.output_len)
    ]
    return timings, memory.link


def assert_epoch_matches_step_loop(system, shard, kv_dtype, workload):
    """``epoch_timings`` of a fresh system equals the step loop of another
    fresh system, element by element."""
    simulator = build_system(system, shard, kv_dtype=kv_dtype)
    reference, link = stepwise_reference(simulator, workload)
    simulator = build_system(system, shard, kv_dtype=kv_dtype)
    simulator.prepare(workload)
    simulator.plan_prefill(workload)
    epoch = simulator.epoch_timings(workload)
    assert epoch.num_steps == len(reference)
    assert epoch.phases == tuple(t.phase for t in reference)
    for field, values in (
            ("compute_time", epoch.compute_times),
            ("transfer_time", epoch.transfer_times),
            ("recompute_time", epoch.recompute_times),
            ("overhead_time", epoch.overhead_times),
            ("gpu_kv_bytes", epoch.gpu_kv_bytes),
            ("cpu_kv_bytes", epoch.cpu_kv_bytes),
            ("bytes_offloaded", epoch.bytes_offloaded),
            ("bytes_reloaded", epoch.bytes_reloaded),
            ("sequence_length", epoch.sequence_lengths),
    ):
        expected = np.array([getattr(t, field) for t in reference])
        assert np.array_equal(values, expected), (system, field)
    totals = np.array([t.total_time for t in reference])
    assert np.array_equal(epoch.total_times, totals)
    # The per-step PCIe traffic matches what the loop recorded.
    assert float(np.sum(epoch.h2d_bytes)) == pytest.approx(
        link.bytes_host_to_device)
    assert float(np.sum(epoch.d2h_bytes)) == pytest.approx(
        link.bytes_device_to_host)


class TestEpochTimingsMatchStepLoop:
    """``epoch_timings`` is element-wise identical to the step loop."""

    @settings(max_examples=12, deadline=None)
    @given(
        system=st.sampled_from(sorted(SYSTEM_BUILDERS)),
        shard=st.sampled_from(sorted(SHARD_SHAPES)),
        kv_dtype=st.sampled_from(["fp16", "int8"]),
        batch_size=st.integers(min_value=1, max_value=8),
        input_len=st.integers(min_value=1, max_value=192),
        output_len=st.integers(min_value=1, max_value=96),
    )
    def test_property_random_workloads(self, system, shard, kv_dtype,
                                       batch_size, input_len, output_len):
        workload = Workload(batch_size, input_len, output_len, "prop")
        assert_epoch_matches_step_loop(system, shard, kv_dtype, workload)

    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    def test_alisa_gpu_budget_boundary(self, shard, kv_dtype):
        # With s + n == budget the epoch never leaves Phase I and its plan
        # carries no movement arrays; one more step leaves Phase I.
        simulator = build_system("alisa", shard, kv_dtype=kv_dtype)
        budget = simulator.gpu_kv_budget_tokens(32, 100)
        for extra, phase1_only in ((0, True), (1, False)):
            workload = Workload(32, 100, budget - 100 + extra, "boundary")
            assert_epoch_matches_step_loop("alisa", shard, kv_dtype,
                                           workload)
            simulator.prepare(workload)
            simulator.plan_prefill(workload)
            plan = simulator.plan_decode_epoch(workload)
            assert (plan.phases[-1] == PHASE_GPU) == phase1_only
            movement = (plan.load_kv_tokens, plan.offload_kv_tokens,
                        plan.recompute_tokens, plan.quantize_tokens)
            assert [array is None for array in movement] \
                == [phase1_only] * 4

    def test_scheduler_plan_epoch_matches_plan_step(self):
        # Direct pin of the vectorized Algorithm 2 (all three phases).
        config = SchedulerConfig(offload_ratio=0.5, recompute_ratio=0.4,
                                 phase2_step=20, phase3_step=60)
        swa = SWAConfig.from_sparsity(0.8)
        reference = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                     prompt_len=128)
        reference.plan_prefill()
        plans = [reference.plan_step(j) for j in range(150)]

        vectorized = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                      prompt_len=128)
        vectorized.plan_prefill()
        epoch = vectorized.plan_epoch(150)
        assert epoch.phases == tuple(p.phase for p in plans)
        for field, values in (
                ("tokens_gpu", epoch.tokens_gpu),
                ("tokens_cpu", epoch.tokens_cpu),
                ("tokens_deleted", epoch.tokens_deleted),
                ("load_tokens", epoch.load_tokens),
                ("offload_tokens", epoch.offload_tokens),
                ("recompute_tokens", epoch.recompute_tokens),
                ("kept_local", epoch.kept_local),
                ("kept_global", epoch.kept_global),
        ):
            expected = np.array([getattr(p, field) for p in plans])
            assert np.array_equal(values, expected), field

    def test_split_table_matches_scalar_as_it_grows(self):
        # Two configs interleaved in one process, each queried past its
        # table's current size so the table regrows between checks.
        configs = [SWAConfig(0.23), SWAConfig(0.41, local_fraction=0.3)]
        for size in (40, 1500, 5000):
            for swa in configs:
                seq = np.arange(1, size + 1)
                local, global_ = swa.split_budget_batch(seq)
                assert [tuple(pair) for pair in zip(local.tolist(),
                                                    global_.tolist())] \
                    == [swa.split_budget(q) for q in range(1, size + 1)]

    def test_split_table_unsorted_input_and_errors(self):
        swa = SWAConfig.from_sparsity(0.7)
        seq = np.random.default_rng(0).integers(1, 9000, size=300)
        local, global_ = swa.split_budget_batch(seq)
        assert local.dtype == global_.dtype == np.int64
        for q, pair in zip(seq.tolist(), zip(local.tolist(),
                                             global_.tolist())):
            assert pair == swa.split_budget(q)
        # The caller owns the returned arrays: mutating one leaves the
        # table intact.
        local[:] = -1
        assert swa.split_budget_batch(seq)[0].tolist() == [
            swa.split_budget(q)[0] for q in seq.tolist()]
        for bad in ([3, 0, 5], [-2]):
            with pytest.raises(ConfigurationError):
                swa.split_budget_batch(np.array(bad))
        empty = swa.split_budget_batch(np.array([], dtype=np.int64))
        assert [a.size for a in empty] == [0, 0]

    def test_sequence_table_columns(self):
        swa = SWAConfig(0.37, local_fraction=0.4)
        table = sequence_table(swa, 3000)
        seq = np.arange(1, 3001)
        local, global_ = swa.split_budget_batch(seq)
        assert table.num_local[1:3001].tolist() == local.tolist()
        assert table.num_global[1:3001].tolist() == global_.tolist()
        assert table.non_local[1:3001].tolist() \
            == np.maximum(0, seq - local).tolist()
        assert table.non_local_total[1:3001].tolist() \
            == np.maximum(1, seq - local).tolist()
        assert table.local_list()[1:3001] == local.tolist()
        # Slices handed out are read-only views of the shared table.
        for array in (table.num_local, table.num_global, table.non_local,
                      table.non_local_total):
            with pytest.raises(ValueError):
                array[1] = 0
        # A longer query grows the table and keeps every entry.
        grown = sequence_table(swa, 2 * table.size)
        assert grown.size > 2 * table.size
        assert grown.local_list()[:table.size] == table.local_list()

    def test_split_budget_batch_matches_scalar(self):
        swa = SWAConfig.from_sparsity(0.8)
        seq = np.arange(1, 2000)
        local, global_ = swa.split_budget_batch(seq)
        for j in (0, 1, 5, 123, 998, 1998):
            assert (local[j], global_[j]) == swa.split_budget(int(seq[j]))


#: EpochPlan token-movement fields whose ``None`` means "all zeros".
ZERO_DEFAULT_FIELDS = ("load_kv_tokens", "offload_kv_tokens",
                       "recompute_tokens", "quantize_tokens",
                       "cpu_attention_tokens", "extra_h2d_bytes",
                       "extra_overhead_s")

TIMING_FIELDS = ("sequence_lengths", "compute_times", "transfer_times",
                 "recompute_times", "overhead_times", "total_times",
                 "comm_times", "gpu_kv_bytes", "cpu_kv_bytes",
                 "bytes_offloaded", "bytes_reloaded", "h2d_bytes",
                 "d2h_bytes")


class TestAbsentTermsSkipped:
    """``epoch_timings`` prices only the terms a plan has.

    Replacing every absent (``None``) token array with explicit zeros must
    not change a single priced value: skipping a term is an identity.  The
    skipped pricing also matches the step loop, which prices every term.
    """

    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_explicit_zeros_price_identically(self, system, shard,
                                              kv_dtype):
        # Small, offloading and heavily offloading shapes.
        for shape in ((1, 64, 16), (32, 1024, 64), (64, 1500, 100)):
            workload = Workload(*shape, "skip")
            simulator = build_system(system, shard, kv_dtype=kv_dtype)
            simulator.prepare(workload)
            simulator.plan_prefill(workload)
            skipped = simulator.epoch_timings(workload)
            reference, _ = stepwise_reference(
                build_system(system, shard, kv_dtype=kv_dtype), workload)
            for name, field in (("transfer_times", "transfer_time"),
                                ("recompute_times", "recompute_time"),
                                ("overhead_times", "overhead_time"),
                                ("total_times", "total_time")):
                assert np.array_equal(
                    getattr(skipped, name),
                    [getattr(t, field) for t in reference]), (shape, name)

            planned = simulator.plan_decode_epoch

            def explicit_zeros(workload, _planned=planned):
                plan = _planned(workload)
                return replace(plan, **{
                    name: np.zeros(plan.num_steps)
                    for name in ZERO_DEFAULT_FIELDS
                    if getattr(plan, name) is None})

            simulator.plan_decode_epoch = explicit_zeros
            full = simulator.epoch_timings(workload)
            assert full.phases == skipped.phases
            for name in TIMING_FIELDS:
                assert np.array_equal(getattr(full, name),
                                      getattr(skipped, name)), (shape, name)
            assert (full.h2d_any, full.d2h_any) \
                == (skipped.h2d_any, skipped.d2h_any)
            assert full.h2d_any == bool(np.any(full.h2d_bytes))
            assert full.d2h_any == bool(np.any(full.d2h_bytes))

    def test_negative_transfer_still_rejected(self):
        simulator = build_system("vllm")
        workload = Workload(2, 32, 8, "negative")
        simulator.prepare(workload)
        planned = simulator.plan_decode_epoch
        simulator.plan_decode_epoch = lambda w: replace(
            planned(w), offload_kv_tokens=np.full(w.output_len, -1.0))
        with pytest.raises(ConfigurationError, match="non-negative"):
            simulator.epoch_timings(workload)


class TestServingFastPathGoldenPins:
    """serve()/run() with the fast path are bit-identical to per-step
    pricing through the clock-stepped references."""

    REQUESTS = dict(rate=16.0, input_len=256, output_len=128, seed=5)

    @pytest.mark.parametrize("system,shard", [
        ("alisa", "none"), ("flexgen", "none"), ("vllm", "none"),
        ("alisa", "tp-2"), ("alisa", "pp-2"),
    ])
    def test_serve_traces_bit_identical(self, system, shard):
        requests = generate_requests(12, **self.REQUESTS)
        fast = ContinuousBatchingEngine(
            build_system(system, shard)).serve(requests)
        exact = serve_stepped(
            ContinuousBatchingEngine(build_system(system, shard)), requests)
        assert fast.records == exact.records
        assert fast.summary() == exact.summary()
        for key in ("kv_budget_tokens", "peak_reserved_tokens", "num_epochs",
                    "num_decode_steps", "pcie_bytes", "comm_time_s",
                    "comm_time_share", "shards"):
            assert fast.metadata[key] == exact.metadata[key], key

    def test_serve_fast_path_is_default_and_memoizes(self):
        requests = generate_requests(12, **self.REQUESTS)
        engine = ContinuousBatchingEngine(build_system("alisa"))
        first = engine.serve(requests)
        assert first.metadata["epoch_cache"]["misses"] >= 1
        # Identical trace again: every epoch shape is already priced.
        second = engine.serve(requests)
        assert second.metadata["epoch_cache"]["misses"] == 0
        assert (second.metadata["epoch_cache"]["hits"]
                == second.metadata["num_epochs"])
        assert second.records == first.records

    @pytest.mark.parametrize("system", ["alisa", "alisa-static", "flexgen",
                                        "accelerate", "vllm"])
    def test_offline_run_bit_identical(self, system):
        workload = Workload(16, 256, 200, "offline")
        fast = build_system(system).run(workload)
        stepped = build_system(system)
        stepped._run_decode_fast = partial(decode_stepped, stepped)
        exact = stepped.run(workload)
        assert fast.prefill_time == exact.prefill_time
        assert fast.steps == exact.steps
        assert fast.summary() == exact.summary()

    def test_cluster_serve_bit_identical_to_exact_stepping(self):
        # The replica-group fast path (per-replica epoch memos, shared
        # prefill plans) must reproduce the cluster trace of per-step
        # epoch pricing bit for bit, including with ALISA's
        # history-dependent default schedule policy.
        from repro.cluster import ReplicaGroup

        def build(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        def group():
            return ReplicaGroup.from_layout(build, "2x(none)",
                                            V100_16GB_NODE, policy="jsq",
                                            seed=3)

        requests = generate_requests(16, rate=32.0, pattern="bursty", seed=3)
        fast = group().serve(requests)
        stepped = group()
        for engine in stepped.engines:
            engine._price_epoch_fast = partial(price_epoch_stepwise, engine)
        exact = stepped.serve(requests)
        assert fast.records == exact.records
        assert fast.summary() == exact.summary()

    def test_prefill_plan_cache_is_engine_state(self):
        requests = generate_requests(8, **self.REQUESTS)
        engine = ContinuousBatchingEngine(build_system("alisa"))
        engine.serve(requests)
        cached_shapes = set(engine._prefill_prices)
        assert cached_shapes  # plans survived the serve() call
        engine.serve(requests)
        assert set(engine._prefill_prices) == cached_shapes

    def test_replica_group_shares_pricing_caches(self):
        from repro.cluster import ReplicaGroup
        from repro.core.schedule_cache import SchedulePolicy

        def factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy="jsq")
        first, second = group.engines
        assert first.pricing is second.pricing is group.pricing
        # Prefill plans are shape-pure for every system: always shared.
        assert first._prefill_prices is second._prefill_prices
        # ALISA's default warm-started schedules depend on replica-local
        # solver history, so its priced epochs are NOT shared...
        assert not first.simulator.pricing_is_shape_pure()
        assert first._epoch_cache is not second._epoch_cache
        # Schedule caches stay per replica (solver state is not shared).
        assert (first.simulator.schedule_cache
                is not second.simulator.schedule_cache)
        requests = generate_requests(12, **self.REQUESTS)
        trace = group.serve(requests)
        assert trace.num_requests == 12
        # The store holds one prefill memo and both per-replica epoch memos.
        stats = group.pricing.stats()
        assert stats["prefill"]["entries"] == len(first._prefill_prices) > 0
        assert stats["epoch"]["entries"] == (len(first._epoch_cache)
                                             + len(second._epoch_cache))

        # ...but shape-pure pricing (exact schedules, stateless baselines)
        # shares epochs cluster-wide.
        def exact_factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism,
                               schedule_policy=SchedulePolicy(exact=True))

        exact_group = ReplicaGroup.from_layout(exact_factory, "2x(none)",
                                               V100_16GB_NODE)
        assert exact_group.engines[0].simulator.pricing_is_shape_pure()
        assert (exact_group.engines[0]._epoch_cache
                is exact_group.engines[1]._epoch_cache)
        flexgen_group = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "2x(none)", V100_16GB_NODE)
        assert (flexgen_group.engines[0]._epoch_cache
                is flexgen_group.engines[1]._epoch_cache)

        # Mixed pricing signatures must not share anything.
        tp_group = ReplicaGroup(
            [ContinuousBatchingEngine(build_system("alisa")),
             ContinuousBatchingEngine(build_system("alisa", "tp-2"))])
        a, b = tp_group.engines
        assert a.pricing is b.pricing  # one store, two keys
        assert a._epoch_cache is not b._epoch_cache
        assert a._prefill_prices is not b._prefill_prices


class TestEpochByteReplay:
    """A memo hit replays the taken steps' PCIe bytes onto the serve's link
    ledger with left-to-right float adds, the order per-step recording
    adds them in, and the memo holds no NumPy arrays."""

    SHAPE = (4, 256)

    def replay(self, engine, h2d_bytes, d2h_bytes, start, cut_arrival=None):
        """Seed the memo with a one-second-per-step epoch of the given
        byte lists, replay it from ``start`` at clock 0.0, return the
        link and the steps taken."""
        num_steps = len(h2d_bytes)
        batch, context = self.SHAPE
        engine._epoch_cache[(batch, context, num_steps)] = _PricedEpoch(
            step_times=[1.0] * num_steps, comm_per_step=0.0,
            h2d_bytes=h2d_bytes, d2h_bytes=d2h_bytes)
        memory = MemoryHierarchy.from_hardware(engine.simulator.hardware)
        link = memory.link
        link.bytes_host_to_device = start
        link.bytes_device_to_host = start
        _, steps, _, _ = engine._price_epoch_fast(
            batch, context, num_steps, cut_arrival, 0.0, memory)
        assert engine._epoch_hits == 1 and engine._epoch_misses == 0
        return link, steps

    @staticmethod
    def left_to_right(start, values):
        total = start
        for value in values:
            total += value
        return total

    @pytest.mark.parametrize("k", [2, 3, 8, 17])
    def test_add_order_is_left_to_right(self, k):
        # Each +1.0 onto 2**53 rounds back to 2**53 (ties to even).  A sum
        # that adds the ones among themselves first (NumPy's pairwise
        # np.sum, the compensated sum() of Python 3.12+) lands above it.
        engine = ContinuousBatchingEngine(build_system("alisa"))
        link, steps = self.replay(engine, [1.0] * k, None, 2.0 ** 53)
        assert steps == k
        assert link.bytes_host_to_device == self.left_to_right(
            2.0 ** 53, [1.0] * k) == 2.0 ** 53
        assert link.bytes_host_to_device != 2.0 ** 53 + k
        # A direction the epoch does not move is left alone.
        assert link.bytes_device_to_host == 2.0 ** 53

    def test_cut_epoch_replays_only_taken_steps(self):
        engine = ContinuousBatchingEngine(build_system("alisa"))
        h2d, d2h = [0.1 * (i + 1) for i in range(9)], [0.7] * 9
        link, steps = self.replay(engine, h2d, d2h, 0.3, cut_arrival=4.5)
        assert steps == 5
        assert link.bytes_host_to_device == self.left_to_right(0.3, h2d[:5])
        assert link.bytes_device_to_host == self.left_to_right(0.3, d2h[:5])

    @pytest.mark.parametrize("system,kwargs,requests", [
        ("flexgen", {"cpu_fraction": 0.5},
         dict(input_len=256, output_len=128)),
        ("alisa", {}, dict(input_len=1024, output_len=512)),
    ])
    def test_spilling_serve_memoizes_plain_floats(self, system, kwargs,
                                                  requests):
        engine = ContinuousBatchingEngine(build_system(system, **kwargs))
        trace = engine.serve(
            generate_requests(12, rate=16.0, seed=5, **requests))
        assert trace.metadata["pcie_bytes"] > 0
        entries = list(engine._epoch_cache.values())
        assert any(entry.h2d_bytes is not None or entry.d2h_bytes is not None
                   for entry in entries)
        for entry in entries:
            for field in entry:
                assert not isinstance(field, np.ndarray)
            for values in (entry.step_times, entry.h2d_bytes,
                           entry.d2h_bytes):
                if values is not None:
                    assert all(type(value) is float for value in values)


#: Systems whose epochs stay resident exactly when ``s + n`` fits their
#: GPU KV budget; vLLM's always do, and the other systems answer no.
BUDGET_RESIDENT = {"flexgen", "alisa", "alisa-static"}


class TestStepTableEpochs:
    """An epoch-cache miss whose KV stays on the GPU is priced from the
    cost model's step table, bit-identical to ``prepare`` +
    ``plan_prefill`` + ``epoch_timings``."""

    @staticmethod
    def budget_shapes(simulator, batch_size, input_len):
        """``(b, s, n)`` with ``s + n`` equal to the GPU KV budget, then one
        step more (none when the prompt alone fills the budget)."""
        budget = simulator.gpu_kv_budget_tokens(batch_size, input_len)
        steps = budget - input_len
        if steps < 1:
            return []
        return [(batch_size, input_len, steps),
                (batch_size, input_len, steps + 1)]

    @staticmethod
    def assert_table_priced_like_planning(engine, reference, shape):
        """Price ``shape`` on the engine's miss path and plan it in full on
        ``reference``; returns whether the engine read the step table."""
        workload = Workload(*shape, "table")
        simulator = engine.simulator
        resident = simulator.epoch_stays_resident(*shape)
        priced = engine._price_epoch(
            *shape, PCIeLink(simulator.hardware.node_pcie_bandwidth))
        reference.prepare(workload)
        reference.plan_prefill(workload)
        timings = reference.epoch_timings(workload)
        if resident:
            assert priced.step_times == timings.total_times.tolist(), shape
            assert priced.comm_per_step == float(timings.comm_times[0])
            assert not timings.h2d_any and not timings.d2h_any, shape
            assert priced.h2d_bytes is None and priced.d2h_bytes is None
        return resident

    @settings(max_examples=6, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 64), st.integers(1, 1500),
                                  st.integers(1, 300)),
                        min_size=1, max_size=3),
        boundary=st.tuples(st.integers(1, 64), st.integers(1, 2500)),
    )
    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_property_table_epochs_match_planning(self, system, shard,
                                                  kv_dtype, shapes,
                                                  boundary):
        # One engine prices the shapes in order, so ALISA's solver
        # history reaches each one; the reference plans every shape.
        engine = ContinuousBatchingEngine(
            build_system(system, shard, kv_dtype=kv_dtype))
        reference = build_system(system, shard, kv_dtype=kv_dtype)
        shapes = shapes + self.budget_shapes(reference, *boundary)
        for batch_size, input_len, steps in shapes:
            resident = self.assert_table_priced_like_planning(
                engine, reference, (batch_size, input_len, steps))
            if system == "vllm":
                assert resident
            elif system in BUDGET_RESIDENT:
                budget = reference.gpu_kv_budget_tokens(batch_size,
                                                        input_len)
                assert resident == (input_len + steps <= budget)
            else:
                assert not resident

    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    def test_fixed_schedules_and_cpu_splits(self, shard):
        # A fixed ALISA schedule or a requested FlexGen CPU share moves KV
        # even when the epoch fits, so they always plan; a requested share
        # of 0 never moves KV, however long the epoch.
        small, spilling = (1, 16, 8), (64, 1500, 300)
        fixed = build_system("alisa-recompute", shard)
        for fraction in (0.5, 1.0):
            split = FlexGenSystem(MODEL, fixed.hardware, cpu_fraction=fraction,
                                  parallelism=fixed.parallelism)
            assert not split.epoch_stays_resident(*small)
        assert not fixed.epoch_stays_resident(*small)

        def gpu_only():
            return FlexGenSystem(MODEL, fixed.hardware, cpu_fraction=0.0,
                                 parallelism=fixed.parallelism)

        engine = ContinuousBatchingEngine(gpu_only())
        for shape in (small, spilling):
            assert self.assert_table_priced_like_planning(
                engine, gpu_only(), shape)


class TestResidentPrefill:
    """A prefill-memo miss whose KV stays on the GPU is priced from the
    cost model alone, bit-identical to ``prepare(decode=False)`` +
    ``plan_prefill`` + ``prefill_timing`` + ``parallel_comm_time`` on a
    fresh link, and never prepares."""

    @staticmethod
    def count_prepares(simulator):
        """Record the ``decode`` flag of every ``prepare`` on ``simulator``."""
        calls = []
        prepare = simulator.prepare

        def counting(workload, decode=True):
            calls.append(decode)
            return prepare(workload, decode)

        simulator.prepare = counting
        return calls

    @staticmethod
    def planned(reference, shape):
        """``(time, comm, h2d, d2h)`` of ``shape`` planned in full on
        ``reference``, against a fresh link."""
        workload = Workload(*shape, "serving-prefill")
        reference.prepare(workload, decode=False)
        plan = reference.plan_prefill(workload)
        memory = MemoryHierarchy.from_hardware(reference.hardware)
        time = reference.prefill_timing(plan, workload, memory)
        comm = reference.parallel_comm_time(workload, query_len=shape[1])
        return (time, comm, memory.link.bytes_host_to_device,
                memory.link.bytes_device_to_host)

    def assert_priced_like_planning(self, engine, calls, reference, shape):
        """Price ``shape`` on the engine's miss path and plan it in full on
        ``reference``; returns whether the shape stayed resident."""
        simulator = engine.simulator
        resident = simulator.epoch_stays_resident(*shape)
        memory = MemoryHierarchy.from_hardware(simulator.hardware)
        prepared = len(calls)
        time, comm = engine._price_prefill(*shape, memory)
        priced = engine._prefill_prices[shape]
        expected = self.planned(reference, shape)
        assert priced == expected and (time, comm) == expected[:2], shape
        assert all(type(a) is type(b) for a, b in zip(priced, expected))
        if resident:
            assert priced[2:] == (0.0, 0.0), shape
            assert memory.link.total_bytes == 0.0
            assert len(calls) == prepared, "a resident miss prepared"
        else:
            assert calls[prepared:] == [False], shape
        return resident

    @settings(max_examples=6, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 64), st.integers(1, 1500),
                                  st.integers(1, 300)),
                        min_size=1, max_size=3, unique=True),
        boundary=st.tuples(st.integers(1, 64), st.integers(1, 2500)),
    )
    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_property_resident_prefills_match_planning(self, system, shard,
                                                       kv_dtype, shapes,
                                                       boundary):
        engine = ContinuousBatchingEngine(
            build_system(system, shard, kv_dtype=kv_dtype))
        calls = self.count_prepares(engine.simulator)
        reference = build_system(system, shard, kv_dtype=kv_dtype)
        boundary_shapes = TestStepTableEpochs.budget_shapes(reference,
                                                            *boundary)
        for shape in dict.fromkeys(shapes + boundary_shapes):
            resident = self.assert_priced_like_planning(engine, calls,
                                                        reference, shape)
            if system == "vllm":
                assert resident
            elif system not in BUDGET_RESIDENT:
                assert not resident
        if boundary_shapes and system in BUDGET_RESIDENT:
            # s + n equal to the budget fits; one step more spills.
            assert [engine.simulator.epoch_stays_resident(*shape)
                    for shape in boundary_shapes] == [True, False]

    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    def test_fixed_schedules_and_cpu_splits_plan(self, shard):
        # A fixed ALISA schedule or a requested FlexGen CPU share may move
        # KV however small the shape, so their prefills still plan.
        gpu_count, parallelism = SHARD_SHAPES[shard]
        hardware = multi_gpu(V100_16GB_NODE, gpu_count)
        builders = [
            partial(build_system, "alisa-recompute", shard),
            partial(FlexGenSystem, MODEL, hardware, cpu_fraction=0.5,
                    parallelism=parallelism),
        ]
        for build in builders:
            engine = ContinuousBatchingEngine(build())
            calls = self.count_prepares(engine.simulator)
            assert not self.assert_priced_like_planning(
                engine, calls, build(), (1, 16, 8))
        # The CPU share moved half of the prompt to the host.
        assert engine._prefill_prices[(1, 16, 8)][3] > 0.0


class TestPrefillPriceMemo:
    """The per-shape prefill memo prices exactly like direct pricing."""

    @staticmethod
    def direct_pricing():
        """``_price_prefill`` without the memo: plans per shape (as the
        memo prepares them), then ``prefill_timing`` straight onto the
        serve's link on every pass."""
        plans = {}

        def price(engine, batch_size, input_len, output_len, memory):
            workload = Workload(batch_size=batch_size, input_len=input_len,
                                output_len=output_len, name="serving-prefill")
            key = (batch_size, input_len, output_len)
            if key not in plans:
                engine.simulator.prepare(workload)
                plans[key] = engine.simulator.plan_prefill(workload)
            time = engine.simulator.prefill_timing(plans[key], workload,
                                                   memory)
            return time, engine.simulator.parallel_comm_time(
                workload, query_len=input_len)

        return price

    @pytest.mark.parametrize("system,shard,chunk", [
        ("alisa", "none", None), ("alisa", "none", 256),
        ("vllm", "tp-2", None),
    ])
    def test_memo_matches_direct_pricing(self, system, shard, chunk,
                                         monkeypatch):
        requests = generate_requests(32, 32.0, pattern="bursty", seed=3,
                                     max_len=2048)
        memo_engine = ContinuousBatchingEngine(
            build_system(system, shard), prefill_chunk_tokens=chunk)
        memo = memo_engine.serve(requests)
        if system == "alisa" and chunk is None:
            # The memo must carry real offload traffic to replay.
            assert any(h2d or d2h for _, _, h2d, d2h
                       in memo_engine._prefill_prices.values())
        with monkeypatch.context() as patch:
            patch.setattr(ContinuousBatchingEngine, "_price_prefill",
                          self.direct_pricing())
            direct = ContinuousBatchingEngine(
                build_system(system, shard),
                prefill_chunk_tokens=chunk).serve(requests)
        assert memo.records == direct.records
        for key in ("pcie_bytes", "comm_time_s", "num_epochs",
                    "num_decode_steps"):
            assert memo.metadata[key] == direct.metadata[key], key
        if shard != "none":
            assert memo.metadata["comm_time_s"] > 0.0

    def test_memo_shared_across_equal_signatures(self):
        from repro.cluster import ReplicaGroup

        group = ReplicaGroup([ContinuousBatchingEngine(build_system("vllm"))
                              for _ in range(2)], policy="round-robin")
        first, second = group.engines
        assert (first.simulator.pricing_signature()
                == second.simulator.pricing_signature())
        assert first._prefill_prices is second._prefill_prices
        group.serve(generate_requests(12, **TestServingFastPathGoldenPins
                                      .REQUESTS))
        # Fixed-length requests: every pass of either replica is one of a
        # few shapes, priced once for both.
        shapes = set(first._prefill_prices)
        assert shapes and all(shape[1:] == (256, 128) for shape in shapes)


class TestPricingStoreStats:
    """``PricingStore.stats()`` counts every memo of its scope exactly."""

    @staticmethod
    def record_prefills(monkeypatch) -> list:
        """Record every priced prefill shape with the memo it reads."""
        shapes = []
        price = ContinuousBatchingEngine._price_prefill

        def recording(engine, batch_size, input_len, output_len, memory):
            shapes.append((id(engine._prefill_prices), batch_size,
                           input_len, output_len))
            return price(engine, batch_size, input_len, output_len, memory)

        monkeypatch.setattr(ContinuousBatchingEngine, "_price_prefill",
                            recording)
        return shapes

    @staticmethod
    def assert_counts(stats, shapes, replica_traces):
        prefill, epoch = stats["prefill"], stats["epoch"]
        # Every miss prices one new shape of its memo; the rest are hits.
        assert prefill["misses"] == len(set(shapes)) == prefill["entries"]
        assert prefill["hits"] == len(shapes) - len(set(shapes)) > 0
        # Epoch counts are the engines' own, the ones traces report.
        reported = [replica.metadata["epoch_cache"]
                    for replica in replica_traces]
        assert epoch["hits"] == sum(cache["hits"] for cache in reported) > 0
        assert epoch["misses"] == sum(cache["misses"] for cache in reported)
        assert epoch["entries"] == epoch["misses"]

    def test_group_serve_counts(self, monkeypatch):
        from repro.cluster import ReplicaGroup

        shapes = self.record_prefills(monkeypatch)
        group = ReplicaGroup.from_layout(
            lambda node, parallelism: AlisaSystem(
                MODEL, node, kv_sparsity=0.8, parallelism=parallelism),
            "2x(none)", V100_16GB_NODE, policy="jsq")
        requests = generate_requests(24, rate=16.0, input_len=128,
                                     output_len=64, seed=3)
        # The second serve reads the epochs the first one priced.
        traces = [group.serve(requests) for _ in range(2)]
        stats = group.pricing.stats()
        self.assert_counts(stats, shapes, [
            replica for trace in traces for replica in trace.replica_traces])
        assert stats["service_estimates"]["entries"] > 0
        assert stats["step_tables"] == stats["step_lists"]

    def test_sweep_counts_and_starts_cold(self, monkeypatch):
        from repro.cluster import ReplicaGroup
        from repro.experiments import serving
        from repro.experiments.serving import serving_rate_sweep

        stores, traces = [], []

        class RecordingStore(PricingStore):
            def __init__(self):
                super().__init__()
                stores.append(self)

        serve = ReplicaGroup.serve

        def recording_serve(group, *args, **kwargs):
            traces.append(serve(group, *args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(serving, "PricingStore", RecordingStore)
        monkeypatch.setattr(ReplicaGroup, "serve", recording_serve)
        shapes = self.record_prefills(monkeypatch)

        def sweep():
            stores.clear()
            traces.clear()
            shapes.clear()
            serving_rate_sweep(rates=(8.0, 64.0), num_requests=24,
                               pattern="bursty", input_len=None,
                               output_len=None, seed=3,
                               cluster=("1x(none)", "2x(none)"),
                               require_equal_gpus=False, routing="jsq")
            (store,) = stores  # one store for the whole call
            stats = store.stats()
            self.assert_counts(stats, shapes, [
                replica for trace in traces
                for replica in trace.replica_traces])
            return store, stats

        first, first_stats = sweep()
        second, second_stats = sweep()
        # A second sweep builds a new store and counts from zero.
        assert second is not first
        assert second_stats == first_stats


class TestPrefillOnlyPrepare:
    """Pricing a prefill with ``prepare(decode=False)`` gives the prices a
    full ``prepare`` gives, on every system and shard shape."""

    #: ``(batch, input_len, output_len)``: prompts that fit on the GPU and
    #: prompts that overflow it, with short and long decode horizons.
    SHAPES = [(b, s, n) for b in (1, 4, 16) for s in (8, 300, 1500, 4000)
              for n in (1, 64, 900)]

    CASES = [
        ("alisa", "none", {"kv_dtype": "fp16"}),
        ("alisa", "none", {"kv_dtype": "int8"}),
        ("alisa", "tp-2", {}),
        ("alisa", "pp-2", {}),
        ("alisa", "none", {"enable_recomputation": False}),
        ("alisa-static", "none", {}),
        ("alisa-recompute", "none", {}),
        ("vllm", "none", {}),
        ("vllm", "tp-2", {}),
        ("flexgen", "none", {}),
        ("gpu-only", "none", {}),
        ("accelerate", "none", {}),
        ("deepspeed-zero", "none", {}),
    ]

    @staticmethod
    def prices(simulator) -> dict:
        """``(time, comm, h2d, d2h)`` of every shape, as the engine's
        prefill pricing fills its memo."""
        engine = ContinuousBatchingEngine(simulator)
        for shape in TestPrefillOnlyPrepare.SHAPES:
            engine._price_prefill(
                *shape, MemoryHierarchy.from_hardware(simulator.hardware))
        return engine._prefill_prices

    @pytest.mark.parametrize("system,shard,kwargs", CASES)
    def test_prices_equal_full_prepare(self, system, shard, kwargs,
                                       monkeypatch):
        simulator = build_system(system, shard, **kwargs)
        prefill_only = self.prices(simulator)
        full = build_system(system, shard, **kwargs)
        # Today's path: every prefill pricing miss prepared in full.
        monkeypatch.setattr(full, "prepare", lambda workload, decode=True:
                            type(full).prepare(full, workload))
        reference = self.prices(full)
        assert list(prefill_only) == list(reference)
        for shape, priced in reference.items():
            assert prefill_only[shape] == priced, shape
            assert all(type(a) is type(b) for a, b
                       in zip(prefill_only[shape], priced)), shape
        if system == "alisa":
            # Some shapes offload part of the prompt, so the byte counts
            # are compared on real traffic.
            assert any(h2d or d2h for _, _, h2d, d2h in reference.values())
            assert full.schedule_stats()["candidates_evaluated"] > 0
            assert simulator.schedule_stats()["candidates_evaluated"] == 0


class TestStepTable:
    """``LLMCostModel.decode_step_times`` gathers from a per-cost-model
    table that prices exactly like the direct step formulas."""

    @staticmethod
    def splits(simulator):
        """Dense attention, plus the system's SWA split if it has one."""
        swa = getattr(simulator, "swa", None)
        return [None] if swa is None else [None, swa]

    @staticmethod
    def direct(cost, batch_size, seq, split):
        if split is None:
            return cost.decode_step_time_batch(batch_size, seq)
        local, global_ = split.split_budget_batch(seq)
        return cost.decode_step_time_batch(batch_size, seq,
                                           kept_kv=local + global_,
                                           local_windows=local)

    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_slices_match_batch_and_scalar(self, system, shard, kv_dtype):
        simulator = build_system(system, shard, kv_dtype=kv_dtype)
        cost = simulator.cost_model
        # The last shape spans the router's service-estimate decode term
        # (ReplicaGroup.estimate_service_time reads the dense batch-1
        # table in place of decode_step_time).
        for split in self.splits(simulator):
            for batch_size, first, count in ((1, 1, 40), (7, 300, 90),
                                             (1, 1, 5000)):
                seq = np.arange(first, first + count)
                times = cost.decode_step_times(batch_size, first, count,
                                               split)
                assert np.array_equal(
                    times, self.direct(cost, batch_size, seq, split))
                for q, value in zip(seq.tolist()[::11],
                                    times.tolist()[::11]):
                    if split is None:
                        scalar = cost.decode_step_time(batch_size, q)
                    else:
                        local, global_ = split.split_budget(q)
                        scalar = cost.decode_step_time(
                            batch_size, q, kept_kv=local + global_,
                            local_window=local)
                    assert value == scalar, (split, batch_size, q)

    def test_list_view_follows_growth_and_adoption(self):
        def assert_views(cost):
            assert set(cost._step_lists) == set(cost._step_tables)
            for key, table in cost._step_tables.items():
                values = cost._step_lists[key]
                # Entry 0 is NaN (no sequence has length 0).
                assert len(values) == table.size
                assert values[1:] == table[1:].tolist()

        cost = build_system("alisa").cost_model
        for first, count in ((1, 100), (200, 200), (390, 700), (5, 2000)):
            for split in (None, SWAConfig(0.2)):
                times = cost.decode_step_times(3, first, count, split)
                assert cost.decode_step_list(3, first, count, split) \
                    == times.tolist()
                assert_views(cost)
        # A list read that grows the table remakes both views.
        values = cost.decode_step_list(16, 4000, 10)
        assert values == cost.decode_step_times(16, 4000, 10).tolist()
        assert all(type(value) is float for value in values)
        assert_views(cost)
        with pytest.raises(ConfigurationError):
            cost.decode_step_list(1, 0, 4)

        # Equal identities in one store read and grow one set of tables.
        store = PricingStore()
        engines = [ContinuousBatchingEngine(build_system(name))
                   for name in ("alisa", "vllm")]
        for engine in engines:
            store.attach(engine)
        cost, adopter = (engine.simulator.cost_model for engine in engines)
        assert adopter.identity == cost.identity
        assert adopter._step_lists is cost._step_lists
        assert adopter._prefill_times is cost._prefill_times
        cost.decode_step_list(3, 1, 100)
        adopter.decode_step_list(3, 9000, 5)  # grows the shared table
        assert cost._step_tables[(3, None)].size >= 9005
        assert_views(cost)
        assert store.stats()["step_tables"] == {"entries": 1}

    def test_sweep_builds_each_table_once_per_identity(self, monkeypatch):
        from repro.experiments.serving import serving_rate_sweep
        from repro.systems.cost import LLMCostModel

        built = []
        price = LLMCostModel.decode_step_time_batch

        def counting(self, batch_size, kv_lens, kept_kv=None,
                     local_windows=None):
            built.append((self.identity, batch_size, local_windows is None,
                          int(kv_lens[0]), int(kv_lens[-1])))
            return price(self, batch_size, kv_lens, kept_kv, local_windows)

        monkeypatch.setattr(LLMCostModel, "decode_step_time_batch",
                            counting)

        def sweep():
            built.clear()
            serving_rate_sweep(rates=(2.0, 8.0), num_requests=12,
                               cluster=("2x(none)",))
            return sorted(built, key=repr)

        first = sweep()
        # vLLM, FlexGen and ALISA replicas all have one cost-model
        # identity; ALISA's SWA tables are kept under their own key.
        assert len({entry[0] for entry in first}) == 1
        assert {entry[2] for entry in first} == {True, False}
        ranges = [entry[1:] for entry in first]
        assert len(ranges) == len(set(ranges)), "a table range was rebuilt"
        # Nothing outlives a sweep: the next one builds the same tables.
        assert sweep() == first

    def test_sweep_prices_each_prefill_once_per_identity(self,
                                                         monkeypatch):
        from repro.experiments.serving import serving_rate_sweep
        from repro.systems.cost import LLMCostModel

        priced = []
        formula = LLMCostModel._prefill_time

        def counting(self, batch_size, prompt_len):
            priced.append((self.identity, batch_size, prompt_len))
            return formula(self, batch_size, prompt_len)

        monkeypatch.setattr(LLMCostModel, "_prefill_time", counting)

        def sweep():
            priced.clear()
            serving_rate_sweep(rates=(2.0, 8.0), num_requests=12,
                               cluster=("2x(none)",), input_len=None,
                               output_len=None)
            return sorted(priced, key=repr)

        first = sweep()
        # Admissions, chunks and router estimates of every system and
        # replica share one memo per cost-model identity.
        assert len({entry[0] for entry in first}) == 1
        assert len(first) > 1
        assert len(first) == len(set(first)), "a prefill was priced twice"
        # Nothing outlives a sweep: the next one prices the same shapes.
        assert sweep() == first

    def test_growth_boundary_with_interleaved_keys(self):
        cost = build_system("alisa").cost_model
        splits = [None, SWAConfig(0.2), SWAConfig(0.37, local_fraction=0.3)]
        # Each round reaches past every table's current size, so all six
        # tables regrow between checks, in interleaved order.
        for first, count in ((1, 100), (200, 200), (390, 700), (5, 2000)):
            for batch_size in (3, 16):
                for split in splits:
                    before = cost._step_tables.get((batch_size, split))
                    times = cost.decode_step_times(batch_size, first, count,
                                                   split)
                    seq = np.arange(first, first + count)
                    assert np.array_equal(
                        times, self.direct(cost, batch_size, seq, split))
                    table = cost._step_tables[(batch_size, split)]
                    if before is not None and table is not before:
                        assert table.size >= 2 * before.size
                        assert np.array_equal(table[1:before.size],
                                              before[1:])
        with pytest.raises(ValueError):
            times[0] = 1.0  # the table is read-only
        with pytest.raises(ConfigurationError):
            cost.decode_step_times(1, 0, 4)

    @settings(max_examples=60, deadline=None)
    @given(batch_size=st.integers(1, 64),
           split=st.sampled_from([None, SWAConfig.from_sparsity(0.8),
                                  SWAConfig(0.37, local_fraction=0.3)]),
           bound=st.integers(1, 3000), data=st.data())
    def test_reserved_table_equals_doubled_one(self, batch_size, split,
                                               bound, data):
        reserved = build_system("alisa").cost_model
        doubled = build_system("alisa").cost_model
        reserved.reserve_step_tables(bound)
        first = data.draw(st.integers(1, bound), label="first")
        count = data.draw(st.integers(1, bound - first + 1), label="count")
        values = reserved.decode_step_list(batch_size, first, count, split)
        table = reserved._step_tables[(batch_size, split)]
        assert table.size >= bound + 1
        # Reach the bound from the 256-entry start, doubling on the way.
        for end in range(64, bound + 64, 64):
            doubled.decode_step_times(batch_size, 1, min(end, bound), split)
        grown = doubled._step_tables[(batch_size, split)]
        common = min(table.size, grown.size)
        assert table[1:common].tobytes() == grown[1:common].tobytes()
        # The reserved table was built once, by the first read.
        assert reserved._step_tables[(batch_size, split)] is table
        for cost in (reserved, doubled):
            times = cost.decode_step_times(batch_size, first, count, split)
            assert cost.decode_step_list(batch_size, first, count, split) \
                == times.tolist() == values

    def test_session_serve_builds_each_table_once(self, monkeypatch):
        from repro.cluster import ReplicaGroup
        from repro.systems.cost import LLMCostModel
        from repro.workloads.sessions import sessions

        grown = []
        grow = LLMCostModel._grow_step_table

        def counting(self, batch_size, split, first_seq, end):
            grown.append((batch_size, split))
            return grow(self, batch_size, split, first_seq, end)

        monkeypatch.setattr(LLMCostModel, "_grow_step_table", counting)

        def factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        group = ReplicaGroup.from_layout(factory, "2x(none)", V100_16GB_NODE,
                                         policy="jsq", preemption="retain",
                                         prefill_chunk_tokens=256)
        requests = sessions(40, rate=4.0, seed=3,
                            interactive_fraction=0.5).requests()
        group.serve(requests)
        # Dense and SWA tables of several batch sizes, each sized once to
        # the run's longest context although contexts grow over the serve.
        assert {split for _, split in grown} == {None, group.engines[0]
                                                 .simulator.swa}
        assert len(grown) == len(set(grown)) > 4
        longest = max(r.input_len + r.output_len for r in requests)
        tables = group.engines[0].simulator.cost_model._step_tables
        assert min(table.size for table in tables.values()) > longest

    @pytest.mark.parametrize("system", ["alisa", "alisa-static", "vllm",
                                        "flexgen"])
    def test_epoch_compute_is_gathered(self, system):
        simulator = build_system(system)
        workload = Workload(4, 700, 60, "gather")
        simulator.prepare(workload)
        simulator.plan_prefill(workload)
        plan = simulator.plan_decode_epoch(workload)
        if system.startswith("alisa"):
            assert plan.swa_split == simulator.swa
        else:
            assert plan.kept_kv is None and plan.local_windows is None
        epoch = simulator.epoch_timings(workload)
        # A read-only compute array is a slice of the step table.
        assert not epoch.compute_times.flags.writeable
        assert np.array_equal(epoch.compute_times,
                              simulator.cost_model.decode_step_time_batch(
                                  4, epoch.sequence_lengths, plan.kept_kv,
                                  plan.local_windows))

    def test_profile_table_compute_time_matches_scalar(self):
        from repro.core.optimizer import ProfileTable

        simulator = build_system("alisa", "tp-2")
        for batch_size in (1, 12):
            workload = Workload(batch_size, 64, 32, "profile")
            profile = ProfileTable(simulator.cost_model, workload,
                                   simulator.swa)
            for q in (1, 2, 97, 255, 256, 257, 1300):
                local, global_ = simulator.swa.split_budget(q)
                value = profile.compute_time(q)
                assert type(value) is float
                assert value == simulator.cost_model.decode_step_time(
                    batch_size, q, kept_kv=local + global_,
                    local_window=local)

    def test_replica_group_shares_step_tables(self):
        from repro.cluster import ReplicaGroup

        def factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy="jsq")
        first, second = (engine.simulator.cost_model
                         for engine in group.engines)
        assert first._step_tables is second._step_tables
        assert first._prefill_times is second._prefill_times
        group.serve(generate_requests(12, rate=8.0, input_len=256,
                                      output_len=64, seed=1))
        assert first._step_tables  # filled by the serve, read by both
        assert (group.pricing.stats()["step_tables"]["entries"]
                == len(first._step_tables))

        mixed = ReplicaGroup(
            [ContinuousBatchingEngine(build_system("alisa")),
             ContinuousBatchingEngine(build_system("alisa", "tp-2"))])
        a, b = (engine.simulator.cost_model for engine in mixed.engines)
        assert mixed.engines[0].pricing is mixed.engines[1].pricing
        assert a._step_tables is not b._step_tables

    def test_equal_cost_models_share_tables_across_signatures(self):
        from repro.cluster import ReplicaGroup

        flexgen = ReplicaGroup(
            [ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE)),
             ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE,
                                                    cpu_fraction=0.5))])
        first, second = (engine.simulator for engine in flexgen.engines)
        assert first.pricing_signature() != second.pricing_signature()
        assert first.cost_model.identity == second.cost_model.identity
        assert first.cost_model._step_tables is second.cost_model._step_tables
        assert first.cost_model._step_lists is second.cost_model._step_lists
        # Unequal signatures still keep their priced epochs apart.
        engines = flexgen.engines
        assert engines[0].pricing is engines[1].pricing is flexgen.pricing
        assert engines[0]._epoch_cache is not engines[1]._epoch_cache


def spilled_workload(system, shard, kv_dtype, batch_size, extra,
                     output_len):
    """A ``(b, s, n)`` workload whose prompt alone exceeds the system's
    GPU KV budget: the budget never grows with the prompt, so a prompt
    ``extra`` tokens past the one-token prompt's budget spills, and ALISA
    starts in Phase II (``p1 = 0``) with the surplus already on the CPU."""
    simulator = build_system(system, shard, kv_dtype=kv_dtype)
    input_len = simulator.gpu_kv_budget_tokens(batch_size, 1) + extra
    return Workload(batch_size, input_len, output_len, "spilled")


class TestSpilledPrompts:
    """Decode epochs whose prompt already spills past the GPU KV budget.

    The shapes most serving misses plan (a long resident context, a
    batch too large for the GPU) are pinned like the random ones: the
    engine's priced epoch equals ``epoch_timings`` on a fresh system and
    the step loop, bit for bit, and its miss path plans no prefill.
    """

    @staticmethod
    def priced_miss(system, shard, kv_dtype, workload):
        """The engine's memo entry for ``workload``, priced on a fresh
        system whose ``plan_prefill`` raises."""
        simulator = build_system(system, shard, kv_dtype=kv_dtype)

        def no_prefill(*args, **kwargs):
            raise AssertionError("a decode-epoch miss planned a prefill")

        simulator.plan_prefill = no_prefill
        engine = ContinuousBatchingEngine(simulator)
        return engine._price_epoch(
            workload.batch_size, workload.input_len, workload.output_len,
            PCIeLink(simulator.hardware.node_pcie_bandwidth))

    @settings(max_examples=5, deadline=None)
    @given(batch_size=st.integers(1, 8), extra=st.integers(1, 300),
           output_len=st.integers(1, 48))
    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_property_priced_like_epoch_timings_and_step_loop(
            self, system, shard, kv_dtype, batch_size, extra, output_len):
        workload = spilled_workload(system, shard, kv_dtype, batch_size,
                                    extra, output_len)
        assert_epoch_matches_step_loop(system, shard, kv_dtype, workload)

        priced = self.priced_miss(system, shard, kv_dtype, workload)
        fresh = build_system(system, shard, kv_dtype=kv_dtype)
        fresh.prepare(workload)
        epoch = fresh.epoch_timings(workload)
        assert priced.step_times == epoch.total_times.tolist()
        assert priced.comm_per_step == epoch.comm_per_step \
            == fresh.parallel_comm_time(workload)
        assert priced.h2d_bytes == (epoch.h2d_bytes.tolist()
                                    if epoch.h2d_any else None)
        assert priced.d2h_bytes == (epoch.d2h_bytes.tolist()
                                    if epoch.d2h_any else None)

        steps, link = stepwise_reference(
            build_system(system, shard, kv_dtype=kv_dtype), workload)
        assert priced.step_times == [step.total_time for step in steps]
        # Replayed onto an empty ledger, the memo's bytes add up to what
        # the step loop recorded, add for add.
        assert left_sum(priced.h2d_bytes or (), 0.0) \
            == link.bytes_host_to_device
        assert left_sum(priced.d2h_bytes or (), 0.0) \
            == link.bytes_device_to_host

    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", ["alisa", "alisa-recompute",
                                        "alisa-static"])
    def test_alisa_starts_past_phase_one(self, system, shard, kv_dtype):
        # The spilled shapes do reach the planning the property test is
        # about: the prompt's surplus is on the CPU before step 0.
        workload = spilled_workload(system, shard, kv_dtype, 4, 1, 16)
        simulator = build_system(system, shard, kv_dtype=kv_dtype)
        assert not simulator.epoch_stays_resident(
            workload.batch_size, workload.input_len, workload.output_len)
        simulator.prepare(workload)
        plan = simulator.plan_decode_epoch(workload)
        assert PHASE_GPU not in plan.phases
        assert plan.kv_cpu_tokens[0] > 0

    def test_plan_epoch_needs_no_prefill(self):
        # The scheduler starts from plan_prefill's placement without
        # running it, and a prefill planned first changes nothing.
        config = SchedulerConfig(0.5, 0.4, 0, 3)
        swa = SWAConfig.from_sparsity(0.8)
        alone = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                 prompt_len=500).plan_epoch(8)
        prefilled = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                     prompt_len=500)
        assert prefilled.plan_prefill().tokens_cpu == 300
        after = prefilled.plan_epoch(8)
        assert alone.phases == after.phases
        for field in ("tokens_gpu", "tokens_cpu", "tokens_deleted",
                      "load_tokens", "offload_tokens", "recompute_tokens"):
            assert np.array_equal(getattr(alone, field),
                                  getattr(after, field)), field
        # Step 0 offloads only its growth over the 300 prompt tokens
        # already on the CPU.
        assert alone.offload_tokens[0] == alone.tokens_cpu[0] - 300

    @pytest.mark.parametrize("system,shard", [
        ("alisa", "none"), ("alisa-recompute", "none"),
        ("alisa-static", "none"), ("flexgen", "none"), ("accelerate", "none"),
        ("alisa", "tp-2"), ("alisa", "pp-2"),
    ])
    def test_serve_bit_identical_and_plans_no_decode_prefill(
            self, system, shard, monkeypatch):
        # One long prompt decoding beside short ones: the epoch's longest
        # context is more than the batch's share of the GPU budget, so
        # its misses plan spilled prompts, and none of them may plan a
        # prefill.
        long_prompt = 3000 * SHARD_SHAPES[shard][0]
        requests = [Request(0, 0.0, long_prompt, 40)] + [
            Request(i, 0.01 * i, 200 + 50 * i, 24 + 4 * i)
            for i in range(1, 10)]
        exact = serve_stepped(
            ContinuousBatchingEngine(build_system(system, shard)), requests)
        engine = ContinuousBatchingEngine(build_system(system, shard))
        simulator_type = type(engine.simulator)
        price_epoch = ContinuousBatchingEngine._price_epoch
        prepare = simulator_type.prepare
        plan_prefill = simulator_type.plan_prefill
        in_epoch_miss = []
        planned_epochs = []

        def tracked_epoch(self, *args):
            in_epoch_miss.append(True)
            try:
                return price_epoch(self, *args)
            finally:
                in_epoch_miss.pop()

        def tracked_prepare(self, workload, decode=True):
            if in_epoch_miss:
                planned_epochs.append(workload)
            return prepare(self, workload, decode)

        def guarded_prefill(self, workload):
            assert not in_epoch_miss, "a decode-epoch miss planned a prefill"
            return plan_prefill(self, workload)

        monkeypatch.setattr(ContinuousBatchingEngine, "_price_epoch",
                            tracked_epoch)
        monkeypatch.setattr(simulator_type, "prepare", tracked_prepare)
        monkeypatch.setattr(simulator_type, "plan_prefill", guarded_prefill)
        fast = engine.serve(requests)
        assert fast.records == exact.records
        assert fast.summary() == exact.summary()
        for key in ("pcie_bytes", "comm_time_s", "num_epochs",
                    "num_decode_steps"):
            assert fast.metadata[key] == exact.metadata[key], key
        spilled = [workload for workload in planned_epochs
                   if workload.input_len > engine.simulator
                   .gpu_kv_budget_tokens(workload.batch_size,
                                         workload.input_len)]
        assert spilled
