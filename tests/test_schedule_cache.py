"""Tests for the incremental scheduler re-solve layer.

Covers the vectorized objective (must price candidates identically to the
legacy :class:`DynamicScheduler`-driven evaluator), the warm-started
coordinate-descent search, the :class:`ScheduleCache` key spaces, and the
cache-correctness invariant: any schedule served from the cache — exact
hit, canonical-bucket derivation, or warm-started solve — must cost within
``SchedulePolicy.tolerance`` of a cold full grid solve of the same shape.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.core.engine import AlisaSystem
from repro.core.optimizer import (
    SchedulerOptimizer,
    gpu_kv_budget_tokens,
    phase1_end_step,
)
from repro.core.schedule_cache import (
    FULL_RESOLVE_POLICY,
    CachedSchedule,
    ScheduleCache,
    SchedulePolicy,
)
from repro.core.scheduler import SchedulerConfig
from repro.core.swa import SWAConfig
from repro.hardware.presets import V100_16GB_NODE
from repro.workloads.descriptors import Workload

MODEL = "opt-6.7b"
SWA = SWAConfig.from_sparsity(0.8)

SHAPES = [(32, 128, 128), (8, 64, 32), (4, 512, 300), (1, 100, 7),
          (19, 450, 64), (3, 257, 129)]


def make_optimizer(opt_cost_model, shape) -> SchedulerOptimizer:
    return SchedulerOptimizer(opt_cost_model, Workload(*shape, "t"), SWA,
                              kv_dtype="int8")


class TestFastObjective:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_legacy_evaluator_on_full_grid(self, opt_cost_model,
                                                   shape):
        optimizer = make_optimizer(opt_cost_model, shape)
        workload = optimizer.workload
        budget = gpu_kv_budget_tokens(opt_cost_model, workload, "int8")
        p1 = phase1_end_step(budget, workload)
        for alpha in optimizer.alpha_grid:
            for beta in optimizer.beta_grid:
                for p2 in optimizer._p2_candidates(p1):
                    config = SchedulerConfig(alpha, beta, p1, max(p1, p2))
                    legacy = optimizer.evaluate(config, budget)
                    fast = optimizer.fast_evaluate(config, budget)
                    assert fast == pytest.approx(legacy, rel=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_incremental_grid_reproduces_legacy_solve(self, opt_cost_model,
                                                      shape):
        legacy = make_optimizer(opt_cost_model, shape).solve()
        fast = make_optimizer(opt_cost_model, shape).solve_incremental()
        assert fast.config == legacy.config
        assert fast.estimated_time == pytest.approx(legacy.estimated_time,
                                                    rel=1e-9)
        assert fast.gpu_budget_tokens == legacy.gpu_budget_tokens

    def test_warm_start_visits_fewer_candidates(self, opt_cost_model):
        cold = make_optimizer(opt_cost_model, (19, 450, 64)).solve_incremental()
        warm = make_optimizer(opt_cost_model, (19, 450, 64)).solve_incremental(
            seed=(cold.config.offload_ratio, cold.config.recompute_ratio, 0.5)
        )
        assert warm.evaluated_candidates < cold.evaluated_candidates
        assert warm.estimated_time <= cold.estimated_time * 1.0001


class TestSchedulePolicy:
    def test_canonical_shape_buckets_up(self):
        policy = SchedulePolicy(input_bucket=64, output_bucket=64)
        workload = Workload(7, 130, 65, "w")
        assert policy.canonical_shape(workload) == (7, 192, 128)
        aligned = Workload(7, 128, 64, "w")
        assert policy.canonical_shape(aligned) == (7, 128, 64)

    def test_full_resolve_policy_disables_reuse(self):
        assert FULL_RESOLVE_POLICY.exact
        assert not FULL_RESOLVE_POLICY.memoize
        assert not FULL_RESOLVE_POLICY.warm_start

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulePolicy(input_bucket=0)
        with pytest.raises(ConfigurationError):
            SchedulePolicy(tolerance=1.5)


class TestCachedSchedule:
    def test_round_trips_on_the_solved_shape(self):
        workload = Workload(8, 128, 256, "w")
        config = SchedulerConfig(offload_ratio=0.7, recompute_ratio=0.4,
                                 phase2_step=40, phase3_step=148)
        entry = CachedSchedule.from_config(config, workload,
                                           gpu_budget_tokens=168,
                                           estimated_time=1.0)
        assert entry.derive_config(workload, phase2_step=40) == config

    def test_derivation_rescales_phase3_to_new_horizon(self):
        workload = Workload(8, 128, 256, "w")
        config = SchedulerConfig(offload_ratio=0.7, recompute_ratio=0.4,
                                 phase2_step=0, phase3_step=128)
        entry = CachedSchedule.from_config(config, workload, 128, 1.0)
        derived = entry.derive_config(Workload(8, 128, 64, "w"),
                                      phase2_step=0)
        assert derived.phase3_step == 32  # same fraction of a shorter run
        assert derived.offload_ratio == config.offload_ratio

    def test_distance_prefers_closer_shapes(self):
        entry = CachedSchedule.from_config(
            SchedulerConfig(0.5, 0.0, 10, 20), Workload(8, 128, 128, "w"),
            100, 1.0)
        near = Workload(8, 128, 160, "w")
        far = Workload(32, 512, 16, "w")
        assert entry.distance(near) < entry.distance(far)


class TestScheduleCache:
    def test_exact_hit_returns_stored_solution(self, opt_cost_model):
        cache = ScheduleCache()
        workload = Workload(8, 128, 64, "w")
        key = cache.exact_key(("ctx",), workload, 100)
        assert cache.lookup_exact(key) is None
        solution = make_optimizer(opt_cost_model, (8, 128, 64)).solve()
        cache.store_exact(key, solution)
        assert cache.lookup_exact(key) is solution
        assert cache.stats.exact_hits == 1
        assert len(cache) == 1

    def test_nearest_respects_context_namespace(self):
        cache = ScheduleCache()
        workload = Workload(8, 128, 128, "w")
        entry = CachedSchedule.from_config(
            SchedulerConfig(0.5, 0.0, 10, 20), workload, 100, 1.0)
        policy = SchedulePolicy()
        cache.store_canonical(cache.canonical_key(("a",), policy, workload),
                              entry)
        assert cache.nearest(("a",), workload) is entry
        assert cache.nearest(("b",), workload) is None

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from([("a",), ("b",), ("a", "x")]),
                      st.sampled_from([1, 2, 8]),
                      st.sampled_from([64, 128, 256]),
                      st.sampled_from([32, 128])),
            max_size=12),
        query=st.tuples(st.sampled_from([1, 2, 8]),
                        st.sampled_from([64, 96, 256]),
                        st.sampled_from([32, 100, 128])),
        context=st.sampled_from([("a",), ("b",), ("c",)]),
    )
    def test_nearest_matches_reference_scan(self, entries, query, context):
        # Few distinct shapes, so equal distances (ties) are common; each
        # entry gets its own key, so duplicates stay separate entries.
        cache = ScheduleCache()
        for index, (ctx, b, s, n) in enumerate(entries):
            cache.store_canonical(ctx + (index,), CachedSchedule.from_config(
                SchedulerConfig(0.5, 0.0, 0, 0), Workload(b, s, n, "w"),
                100, 1.0))
        workload = Workload(*query, "q")
        expected, best = None, float("inf")
        for key, entry in cache._canonical.items():
            if key[:len(context)] == context \
                    and entry.distance(workload) < best:
                expected, best = entry, entry.distance(workload)
        assert cache.nearest(context, workload) is expected

    def test_canonical_rejects_raw_configs(self):
        cache = ScheduleCache()
        with pytest.raises(ConfigurationError):
            cache.store_canonical(("k",), SchedulerConfig(0.5, 0.0, 0, 0))

    def test_clear_resets_entries_and_stats(self):
        cache = ScheduleCache()
        cache.store_exact(("k",), object())
        cache.lookup_exact(("k",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.exact_hits == 0


def alisa(policy=None, cache=None) -> AlisaSystem:
    return AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8,
                       schedule_policy=policy, schedule_cache=cache)


class TestAlisaIncrementalPrepare:
    def test_exact_mode_matches_legacy_search(self, opt_cost_model):
        system = alisa(SchedulePolicy(exact=True))
        workload = Workload(8, 128, 64, "w")
        system.prepare(workload)
        reference = make_optimizer(opt_cost_model, (8, 128, 64)).solve()
        assert system.schedule_solution.config == reference.config
        assert system.schedule_solution.estimated_time \
            == reference.estimated_time

    def test_repeated_shape_is_memoized(self):
        system = alisa()
        workload = Workload(8, 128, 64, "w")
        system.prepare(workload)
        first = system.schedule_solution
        system.prepare(workload)
        assert system.schedule_solution is first
        stats = system.schedule_stats()
        assert stats["exact_hits"] == 1
        assert stats["full_solves"] == 1

    def test_same_bucket_shape_derives_without_search(self):
        system = alisa()
        system.prepare(Workload(8, 128, 64, "w"))
        evaluated = system.schedule_stats()["candidates_evaluated"]
        system.prepare(Workload(8, 126, 62, "w"))  # same canonical bucket
        stats = system.schedule_stats()
        assert stats["canonical_hits"] == 1
        # Derivation prices the derived config once but runs no search.
        assert stats["candidates_evaluated"] == evaluated + 1

    def test_new_bucket_warm_starts_from_neighbor(self):
        system = alisa()
        system.prepare(Workload(8, 128, 64, "w"))
        full_grid = system.schedule_stats()["candidates_evaluated"]
        system.prepare(Workload(8, 192, 64, "w"))  # new bucket, near neighbor
        stats = system.schedule_stats()
        assert stats["warm_solves"] == 1
        assert stats["candidates_evaluated"] < 2 * full_grid

    def test_full_resolve_policy_never_reuses(self):
        system = alisa(FULL_RESOLVE_POLICY)
        workload = Workload(8, 128, 64, "w")
        system.prepare(workload)
        system.prepare(workload)
        stats = system.schedule_stats()
        assert stats["full_solves"] == 2
        assert stats["exact_hits"] == 0

    def test_shared_cache_carries_across_systems(self):
        cache = ScheduleCache()
        workload = Workload(8, 128, 64, "w")
        alisa(cache=cache).prepare(workload)
        second = alisa(cache=cache)
        second.prepare(workload)
        assert cache.stats.exact_hits == 1
        assert cache.stats.full_solves == 1

    def test_ablation_flags_namespace_the_cache(self):
        cache = ScheduleCache()
        workload = Workload(8, 128, 64, "w")
        alisa(cache=cache).prepare(workload)
        norecompute = AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8,
                                  enable_recomputation=False,
                                  schedule_cache=cache)
        norecompute.prepare(workload)
        # Different context, so the second prepare cannot hit the first's
        # entries — and its schedule must still honour beta == 0.
        assert cache.stats.exact_hits == 0
        assert cache.stats.full_solves == 2
        assert norecompute.schedule_solution.config.recompute_ratio == 0.0


class TestCacheCorrectnessInvariant:
    """A served schedule costs within tolerance of a cold full grid solve."""

    @staticmethod
    def _cold_cost(opt_cost_model, workload) -> float:
        optimizer = SchedulerOptimizer(opt_cost_model, workload, SWA,
                                       kv_dtype="int8")
        return optimizer.solve().estimated_time

    @staticmethod
    def _served_cost(opt_cost_model, system, workload) -> float:
        optimizer = SchedulerOptimizer(opt_cost_model, workload, SWA,
                                       kv_dtype="int8")
        budget = gpu_kv_budget_tokens(opt_cost_model, workload, "int8")
        return optimizer.evaluate(system.schedule_solution.config, budget)

    @given(batch=st.integers(min_value=1, max_value=32),
           input_len=st.integers(min_value=32, max_value=320),
           output_len=st.integers(min_value=8, max_value=160),
           delta_s=st.integers(min_value=-48, max_value=48),
           delta_n=st.integers(min_value=-48, max_value=48))
    @settings(max_examples=25, deadline=None)
    def test_warm_and_canonical_solves_within_tolerance(
            self, opt_cost_model, batch, input_len, output_len, delta_s,
            delta_n):
        first = Workload(batch, input_len, output_len, "first")
        second = Workload(batch, max(32, input_len + delta_s),
                          max(8, output_len + delta_n), "second")
        system = alisa()
        system.prepare(first)
        system.prepare(second)  # exact hit, canonical hit, or warm solve
        served = self._served_cost(opt_cost_model, system, second)
        cold = self._cold_cost(opt_cost_model, second)
        tolerance = system.schedule_policy.tolerance
        assert served <= cold * (1.0 + tolerance) + 1e-12


class TestResolveHelpers:
    """The lean re-solve helpers reproduce the formulas they replaced."""

    def test_phase1_end_step_matches_clip(self):
        import numpy as np

        for n in (1, 7, 64):
            for s in (1, 50, 128):
                for budget in (1, s - 1, s, s + 1, s + n - 1, s + n,
                               s + n + 1, 10 * (s + n)):
                    workload = Workload(1, s, n, "p1")
                    p1 = phase1_end_step(budget, workload)
                    assert type(p1) is int
                    assert p1 == int(np.clip(budget - s, 0, n))

    def test_p2_candidates_match_linspace_and_are_memoised(self):
        import numpy as np

        system = AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8)
        for n in (1, 2, 7, 64, 300):
            optimizer = system._make_optimizer(Workload(4, 128, n, "p2"))
            # p1 == 0, interior p1s, and p1 == n.
            for p1 in sorted({0, 1, n // 3, n - 1, n}):
                expected = sorted({int(p) for p in np.linspace(
                    p1, n, optimizer.num_p2_candidates)})
                candidates = optimizer._p2_candidates(p1)
                assert candidates == expected
                # A later optimizer of the same system reads the memo.
                again = system._make_optimizer(Workload(9, 64, n, "p2"))
                assert again._p2_candidates(p1) is candidates
        assert (0, 300, 5) in system._p2_candidate_cache

    @settings(max_examples=80, deadline=None)
    @given(prompt=st.integers(1, 300), budget=st.integers(1, 600),
           num_steps=st.integers(1, 200), p1=st.integers(0, 220),
           p2_gap=st.integers(0, 220),
           alpha=st.sampled_from([0.3, 0.7, 1.0]),
           beta=st.sampled_from([0.0, 0.4]))
    def test_plan_epoch_phases_match_where_reference(
            self, prompt, budget, num_steps, p1, p2_gap, alpha, beta):
        import numpy as np

        from repro.core.scheduler import (
            PHASE_GPU,
            PHASE_GPU_CPU,
            PHASE_RECOMPUTE,
            DynamicScheduler,
        )

        config = SchedulerConfig(alpha, beta, p1, p1 + p2_gap)
        scheduler = DynamicScheduler(config, SWA, budget, prompt)
        scheduler.plan_prefill()
        epoch = scheduler.plan_epoch(num_steps)
        steps = np.arange(num_steps)
        seq = prompt + steps + 1
        in_phase3 = steps >= config.phase3_step
        in_phase2 = (~in_phase3) & ((steps >= config.phase2_step)
                                    | (seq > budget))
        reference = np.where(in_phase3, PHASE_RECOMPUTE,
                             np.where(in_phase2, PHASE_GPU_CPU, PHASE_GPU))
        assert epoch.phases == tuple(reference.tolist())

        # The whole epoch still equals the step-wise plans.
        stepwise = DynamicScheduler(config, SWA, budget, prompt)
        stepwise.plan_prefill()
        plans = [stepwise.plan_step(j) for j in range(num_steps)]
        assert epoch.phases == tuple(plan.phase for plan in plans)
        for field in ("tokens_cpu", "tokens_deleted", "load_tokens",
                      "offload_tokens", "recompute_tokens"):
            assert np.array_equal(getattr(epoch, field), [
                getattr(plan, field) for plan in plans]), field

    def test_plan_epoch_skipping_phases(self):
        from repro.core.scheduler import (
            PHASE_GPU,
            PHASE_GPU_CPU,
            PHASE_RECOMPUTE,
            DynamicScheduler,
        )

        def phases(config, budget, prompt=100, num_steps=50):
            scheduler = DynamicScheduler(config, SWA, budget, prompt)
            scheduler.plan_prefill()
            return scheduler.plan_epoch(num_steps).phases

        # No Phase I: the prompt alone overflows the budget.
        assert set(phases(SchedulerConfig(0.5, 0.4, 20, 30), 50)[:20]) \
            == {PHASE_GPU_CPU}
        # No Phase II: p1 == p2 with the budget never overflowing.
        skipped = phases(SchedulerConfig(0.5, 0.4, 20, 20), 10_000)
        assert skipped == (PHASE_GPU,) * 20 + (PHASE_RECOMPUTE,) * 30
        # Phase III only.
        assert phases(SchedulerConfig(0.5, 0.4, 0, 0), 50) \
            == (PHASE_RECOMPUTE,) * 50

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("store"),
                      st.sampled_from([("a",), ("b",), ("a", "x")]),
                      st.integers(0, 5),
                      st.sampled_from([1, 2, 8]),
                      st.sampled_from([64, 128, 256]),
                      st.sampled_from([32, 128])),
            st.tuples(st.just("query"),
                      st.sampled_from([(), ("a",), ("b",), ("a", "x"),
                                       ("c",)]),
                      st.sampled_from([1, 2, 8]),
                      st.sampled_from([64, 96, 256]),
                      st.sampled_from([32, 100, 128]))),
        max_size=24))
    def test_nearest_index_tracks_interleaved_stores(self, ops):
        # Keys repeat (indices 0..5), so later stores overwrite entries
        # in place; queries run before and after each context's stores.
        cache = ScheduleCache()
        for op in ops:
            if op[0] == "store":
                _, ctx, index, b, s, n = op
                cache.store_canonical(ctx + (index,),
                                      CachedSchedule.from_config(
                                          SchedulerConfig(0.5, 0.0, 0, 0),
                                          Workload(b, s, n, "w"), 100, 1.0))
                continue
            _, context, b, s, n = op
            workload = Workload(b, s, n, "q")
            expected, best = None, float("inf")
            for key, entry in cache._canonical.items():
                if key[:len(context)] == context \
                        and entry.distance(workload) < best:
                    expected, best = entry, entry.distance(workload)
            assert cache.nearest(context, workload) is expected
        cache.clear()
        assert cache.nearest(("a",), Workload(1, 64, 32, "q")) is None
