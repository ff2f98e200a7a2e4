"""Tests for the incremental scheduler re-solve layer.

Covers the vectorized objective (must price candidates identically to the
legacy :class:`DynamicScheduler`-driven evaluator), the warm-started
coordinate-descent search, the :class:`ScheduleCache` key spaces, and the
cache-correctness invariant: any schedule served from the cache — exact
hit, canonical-bucket derivation, or warm-started solve — must cost within
``SchedulePolicy.tolerance`` of a cold full grid solve of the same shape.
"""

from __future__ import annotations

import operator
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.core.engine import AlisaSystem
from repro.core.optimizer import (
    SchedulerOptimizer,
    phase1_end_step,
)
from repro.core.schedule_cache import (
    FULL_RESOLVE_POLICY,
    CachedSchedule,
    ScheduleCache,
    SchedulePolicy,
)
from repro.core.scheduler import (
    PHASE_RECOMPUTE,
    DynamicScheduler,
    SchedulerConfig,
    phase3_placement,
)
from repro.core.swa import SWAConfig, sequence_table
from repro.hardware.presets import H100_80GB_NODE, V100_16GB_NODE
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
        budget = opt_cost_model.kv_budget_tokens(
            workload.batch_size, workload.input_len, "int8")
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

    def test_single_step_horizon_is_not_shared(self):
        # (30, 287, 9) overflows the GPU budget at step 8, so its schedule
        # was chosen over one decode step; a longer shape of the same
        # bucket must solve its own.
        system = alisa()
        system.prepare(Workload(30, 287, 9, "w"))
        assert system.schedule_solution.config.phase2_step == 8
        system.prepare(Workload(30, 287, 12, "w"))
        stats = system.schedule_stats()
        assert stats["canonical_hits"] == 0
        assert stats["full_solves"] == 2
        system.prepare(Workload(30, 287, 14, "w"))
        assert system.schedule_stats()["canonical_hits"] == 1

    def test_new_bucket_warm_starts_from_neighbor(self):
        # Both shapes overflow the GPU budget during decode, so neither is
        # answered in closed form: the first prepare runs the full grid.
        system = alisa()
        system.prepare(Workload(32, 256, 128, "w"))
        assert system.schedule_solution.config.phase2_step < 128
        assert system.schedule_stats()["full_solves"] == 1
        full_grid = system.schedule_stats()["candidates_evaluated"]
        system.prepare(Workload(32, 320, 128, "w"))  # new bucket, near
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


class TestPrefillOnlyPrepare:
    """``prepare(workload, decode=False)`` places the prompt without
    solving a decode schedule."""

    SHAPES = [Workload(8, 128, 64, "w"), Workload(8, 126, 62, "w"),
              Workload(3, 900, 300, "w"), Workload(16, 4000, 16, "w")]

    def test_cache_untouched(self, monkeypatch):
        system = alisa()
        system.prepare(Workload(8, 128, 64, "w"))
        cache = system.schedule_cache
        stats, entries = system.schedule_stats(), len(cache)

        def no_cache_access(*args, **kwargs):
            raise AssertionError("a prefill-only prepare used the cache")

        for name in ("exact_key", "lookup_exact", "store_exact",
                     "canonical_key", "lookup_canonical", "store_canonical",
                     "nearest"):
            monkeypatch.setattr(cache, name, no_cache_access)
        for workload in self.SHAPES:
            system.prepare(workload, decode=False)
            assert system.schedule_solution is None
            system.plan_prefill(workload)
        assert system.schedule_stats() == stats
        assert len(cache) == entries

    def test_decode_planning_raises_until_full_prepare(self):
        system = alisa()
        workload = Workload(8, 128, 64, "w")
        system.prepare(workload)
        system.plan_prefill(workload)
        system.plan_decode_step(0, workload)
        # A prefill-only prepare replaces the solved schedule.
        for _ in range(2):
            system.prepare(workload, decode=False)
            system.plan_prefill(workload)
            with pytest.raises(ConfigurationError, match="prompt only"):
                system.plan_decode_step(0, workload)
            with pytest.raises(ConfigurationError, match="prompt only"):
                system.plan_decode_epoch(workload)
        system.prepare(workload)
        system.plan_prefill(workload)
        assert system.plan_decode_epoch(workload).num_steps == 64

    @pytest.mark.parametrize("kwargs", [
        dict(use_dynamic_scheduling=False),
        dict(scheduler_config=SchedulerConfig(0.7, 0.4, 0, 5)),
    ])
    def test_systems_without_a_search_prepare_in_full(self, kwargs):
        # The static ablation and a fixed schedule search nothing, so a
        # prefill-only prepare still readies decode planning.
        workload = Workload(8, 128, 64, "w")
        prefill_only = AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8,
                                   **kwargs)
        prefill_only.prepare(workload, decode=False)
        prefill_only.plan_prefill(workload)
        full = AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8, **kwargs)
        full.prepare(workload)
        full.plan_prefill(workload)
        assert (prefill_only.plan_decode_step(0, workload)
                == full.plan_decode_step(0, workload))


class TestCanonicalHitEstimate:
    """A canonical-bucket hit prices its estimate on first read."""

    def test_estimate_priced_once_on_read(self, monkeypatch):
        system = alisa()
        system.prepare(Workload(8, 128, 64, "w"))
        calls = []
        original = SchedulerOptimizer.fast_evaluate

        def counting(optimizer, config, gpu_budget):
            calls.append(config)
            return original(optimizer, config, gpu_budget)

        monkeypatch.setattr(SchedulerOptimizer, "fast_evaluate", counting)
        workload = Workload(8, 126, 62, "w")  # same canonical bucket
        system.prepare(workload)
        stats = system.schedule_stats()
        assert stats["canonical_hits"] == 1
        assert calls == []  # the hit itself priced nothing
        solution = system.schedule_solution
        estimate = solution.estimated_time
        assert solution.estimated_time == estimate
        assert len(calls) == 1
        # An exact memo hit hands back the same, already priced, solution.
        system.prepare(workload)
        assert system.schedule_solution is solution
        assert solution.estimated_time == estimate and len(calls) == 1

        reference = original(
            SchedulerOptimizer(system.cost_model, workload, system.swa,
                               kv_dtype=system.kv_dtype),
            solution.config, solution.gpu_budget_tokens)
        assert type(estimate) is float
        assert estimate == reference
        assert solution.evaluated_candidates == 1
        assert system.schedule_stats()["candidates_evaluated"] \
            == stats["candidates_evaluated"]


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
        budget = opt_cost_model.kv_budget_tokens(
            workload.batch_size, workload.input_len, "int8")
        return optimizer.evaluate(system.schedule_solution.config, budget)

    @given(batch=st.integers(min_value=1, max_value=32),
           input_len=st.integers(min_value=32, max_value=320),
           output_len=st.integers(min_value=8, max_value=160),
           delta_s=st.integers(min_value=-48, max_value=48),
           delta_n=st.integers(min_value=-48, max_value=48))
    @settings(max_examples=25, deadline=None)
    @example(batch=30, input_len=287, output_len=9, delta_s=0, delta_n=3)
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
        for n in (1, 7, 64):
            for s in (1, 50, 128):
                for budget in (1, s - 1, s, s + 1, s + n - 1, s + n,
                               s + n + 1, 10 * (s + n)):
                    workload = Workload(1, s, n, "p1")
                    p1 = phase1_end_step(budget, workload)
                    assert type(p1) is int
                    assert p1 == int(np.clip(budget - s, 0, n))

    def test_p2_candidates_match_linspace_and_are_memoised(self):
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

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4096), count=st.integers(1, 9))
    @example(data=None, n=4096, count=9)
    @example(data=None, n=1, count=1)
    def test_p2_candidates_equal_linspace_property(self, opt_cost_model,
                                                   data, n, count):
        # The grid is linspace's float arithmetic in Python floats; NumPy
        # is only the oracle here.  ``data=None`` pins p1 == n.
        p1 = n if data is None else data.draw(st.integers(0, n), label="p1")
        optimizer = SchedulerOptimizer(opt_cost_model,
                                       Workload(1, 64, n, "p2"), SWA,
                                       num_p2_candidates=count)
        expected = sorted({int(p) for p in np.linspace(p1, n, count)})
        candidates = optimizer._p2_candidates(p1)
        assert candidates == expected
        assert all(type(p2) is int for p2 in candidates)

    @settings(max_examples=80, deadline=None)
    @given(prompt=st.integers(1, 300), budget=st.integers(1, 600),
           num_steps=st.integers(1, 200), p1=st.integers(0, 220),
           p2_gap=st.integers(0, 220),
           alpha=st.sampled_from([0.3, 0.7, 1.0]),
           beta=st.sampled_from([0.0, 0.4]))
    def test_plan_epoch_phases_match_where_reference(
            self, prompt, budget, num_steps, p1, p2_gap, alpha, beta):
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


class ReferenceObjective:
    """The scalar per-candidate objective that :meth:`_FastObjective.costs`
    replaced, kept as the reference it must match bit for bit.

    It builds every per-step array from ``split_budget_batch`` and prices
    one candidate at a time with 1-D sums.
    """

    def __init__(self, cost_model, workload, swa, kv_dtype, gpu_budget,
                 phase2_step):
        self.n = workload.output_len
        self.budget = gpu_budget
        s = workload.input_len
        steps = np.arange(self.n)
        seq = s + steps + 1
        num_local, num_global = swa.split_budget_batch(seq)
        self.num_global = num_global.astype(np.float64)
        self.off_phase = (steps >= phase2_step) | (seq > gpu_budget)
        self.non_local0 = np.maximum(0, seq - num_local)
        self.min_cpu0 = np.maximum(0, seq - gpu_budget)
        self.non_local_total = np.maximum(1, seq - num_local)
        self.prefill_cpu = max(0, s - gpu_budget)
        self.compute_total = reduce(operator.add, cost_model.decode_step_times(
            workload.batch_size, s + 1, self.n, swa).tolist(), 0)
        per_token = cost_model.kv_bytes_per_token(workload.batch_size,
                                                  kv_dtype)
        self.transfer_per_token = \
            per_token / cost_model.effective_pcie_bandwidth
        self.cost_model = cost_model
        self.batch_size = workload.batch_size
        self.seq_list = seq.tolist()
        self.local_list = num_local.tolist()

    def cpu_deleted(self, alpha, beta, phase3_step):
        target = np.floor(alpha * self.non_local0 + 0.5).astype(np.int64)
        target = np.minimum(np.maximum(target, self.min_cpu0),
                            self.non_local0)
        cpu = np.where(self.off_phase, target, 0)
        deleted = None
        if beta > 0.0 and phase3_step < self.n:
            deleted = np.zeros(self.n, dtype=np.int64)
            d = 0
            for j in range(phase3_step, self.n):
                non_local = max(0, self.seq_list[j] - d - self.local_list[j])
                tc = max(int(alpha * non_local + 0.5),
                         self.seq_list[j] - d - self.budget)
                tc = min(tc, non_local)
                newly = min(max(0, int(beta * (tc + d) + 0.5) - d), tc)
                d += newly
                cpu[j] = tc - newly
                deleted[j] = d
        return cpu, deleted

    def cost(self, alpha, beta, phase3_step):
        cpu, deleted = self.cpu_deleted(alpha, beta, phase3_step)
        offload = np.empty_like(cpu)
        offload[0] = cpu[0] - self.prefill_cpu
        np.subtract(cpu[1:], cpu[:-1], out=offload[1:])
        offload = np.maximum(0, offload)
        load = self.num_global * (cpu / self.non_local_total)
        moved = float(load.sum() + offload.sum())
        transfer = moved * self.transfer_per_token
        recompute = 0.0
        if deleted is not None and deleted[-1] > 0:
            recompute_tokens = np.rint(
                self.num_global * (deleted / self.non_local_total))
            recompute = float(self.cost_model.recompute_time_batch(
                self.batch_size, recompute_tokens).sum())
        return self.compute_total + transfer + recompute


def reference_solve(optimizer, gpu_budget, seed=None, max_rounds=3,
                    price=None):
    """:meth:`SchedulerOptimizer.solve_incremental` pricing one candidate
    at a time through :class:`ReferenceObjective`:
    ``(config, estimated_time, evaluated_candidates)``.

    ``price(alpha, beta, p2)``, when given, replaces the reference
    objective.  A shape that never leaves Phase I counts one evaluated
    candidate, as the closed-form solve does.
    """
    workload = optimizer.workload
    p1 = phase1_end_step(gpu_budget, workload)
    p2_candidates = optimizer._p2_candidates(p1)
    if price is None:
        price = ReferenceObjective(optimizer.cost_model, workload,
                                   optimizer.swa, optimizer.kv_dtype,
                                   gpu_budget, p1).cost
    costs = {}

    def cost(alpha, beta, p2):
        key = (alpha, beta, p2_candidates[-1] if beta == 0.0 else p2)
        if key not in costs:
            costs[key] = price(*key)
        return costs[key]

    if seed is None:
        best, best_time = None, float("inf")
        for alpha in optimizer.alpha_grid:
            for beta in optimizer.beta_grid:
                for p2 in p2_candidates:
                    if beta == 0.0 and p2 != p2_candidates[-1]:
                        continue
                    elapsed = cost(alpha, beta, p2)
                    if elapsed < best_time:
                        best_time, best = elapsed, (alpha, beta, p2)
    else:
        alpha, beta, fraction = seed
        alpha = min(optimizer.alpha_grid, key=lambda g: abs(g - alpha))
        beta = min(optimizer.beta_grid, key=lambda g: abs(g - beta))
        p2_target = p1 + fraction * (workload.output_len - p1)
        p2 = min(p2_candidates, key=lambda c: abs(c - p2_target))
        best_time = cost(alpha, beta, p2)
        for _ in range(max_rounds):
            improved = False
            for candidate in optimizer.alpha_grid:
                elapsed = cost(candidate, beta, p2)
                if elapsed < best_time:
                    best_time, alpha, improved = elapsed, candidate, True
            for candidate in optimizer.beta_grid:
                elapsed = cost(alpha, candidate, p2)
                if elapsed < best_time:
                    best_time, beta, improved = elapsed, candidate, True
            for candidate in p2_candidates:
                elapsed = cost(alpha, beta, candidate)
                if elapsed < best_time:
                    best_time, p2, improved = elapsed, candidate, True
            if not improved:
                break
        best = (alpha, beta, p2)
    alpha, beta, p2 = best
    config = SchedulerConfig(alpha, beta, p1, max(p1, p2))
    return (config, best_time,
            1 if p1 == workload.output_len else len(costs))


fractions = st.floats(min_value=0.0, max_value=1.0)
cost_models = st.sampled_from(["opt_cost_model", "opt30b_cost_model"])


class TestBatchedObjective:
    """Candidates priced per batch equal the scalar reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(model=cost_models, batch=st.integers(1, 64),
           input_len=st.integers(1, 700), output_len=st.integers(1, 400),
           budget=st.integers(1, 1200), p1_shift=st.integers(-50, 50),
           kv_dtype=st.sampled_from(["fp16", "int8"]),
           sparsity=st.sampled_from([0.5, 0.8, 0.9]),
           candidates=st.lists(st.tuples(fractions, fractions, fractions),
                               min_size=1, max_size=12))
    def test_costs_match_scalar_reference(self, request, model, batch,
                                          input_len, output_len, budget,
                                          p1_shift, kv_dtype, sparsity,
                                          candidates):
        cost_model = request.getfixturevalue(model)
        workload = Workload(batch, input_len, output_len, "t")
        swa = SWAConfig.from_sparsity(sparsity)
        # p1 from the capacity constraint, or anywhere else in 0..n.
        p1 = min(output_len, max(0, phase1_end_step(budget, workload)
                                 + p1_shift))
        optimizer = SchedulerOptimizer(cost_model, workload, swa,
                                       kv_dtype=kv_dtype)
        batched = optimizer._make_objective(budget, p1)
        reference = ReferenceObjective(cost_model, workload, swa, kv_dtype,
                                       budget, p1)
        # Candidates as the solver builds them: p2 in p1..n (n means no
        # Phase III), half of them on a coarse beta grid with zeros.
        rows = [(alpha, round(beta * 5) / 5 if index % 2 else beta,
                 p1 + round(fraction * (output_len - p1)))
                for index, (alpha, beta, fraction) in enumerate(candidates)]
        expected = [reference.cost(*row) for row in rows]
        assert batched.costs(rows) == expected
        # Each row alone prices the same as inside the batch.
        assert [batched.costs([row])[0] for row in rows] == expected

    @settings(max_examples=40, deadline=None)
    @given(model=cost_models, batch=st.integers(1, 64),
           input_len=st.integers(1, 2000), output_len=st.integers(1, 600),
           recompute=st.booleans(),
           seed=st.none() | st.tuples(fractions, fractions, fractions),
           max_rounds=st.integers(0, 3))
    def test_search_matches_scalar_reference(self, request, model, batch,
                                             input_len, output_len,
                                             recompute, seed, max_rounds):
        cost_model = request.getfixturevalue(model)
        workload = Workload(batch, input_len, output_len, "t")
        optimizer = SchedulerOptimizer(cost_model, workload, SWA,
                                       kv_dtype="int8")
        if not recompute:
            optimizer.beta_grid = (0.0,)
        budget = cost_model.kv_budget_tokens(
            workload.batch_size, workload.input_len, "int8")
        solution = optimizer.solve_incremental(seed=seed,
                                               max_rounds=max_rounds,
                                               gpu_budget=budget)
        assert (solution.config, solution.estimated_time,
                solution.evaluated_candidates) \
            == reference_solve(optimizer, budget, seed, max_rounds)

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 127, 128, 129, 1000,
                                        8191, 8192, 8193, 20000])
    def test_row_sums_match_one_dimensional_sums(self, length):
        # costs() relies on NumPy reducing each row of a C-ordered 2-D
        # array in the same pairwise order as that row alone.
        rows = np.random.default_rng(length).pareto(1.5, size=(5, length))
        assert rows.sum(axis=1).tolist() == [row.sum() for row in rows]
        copies = [np.array(row) for row in rows]
        assert rows.sum(axis=1).tolist() == [row.sum() for row in copies]


class TestPhase1OnlySolve:
    """A shape that never leaves Phase I (``p1 == n``) is solved in
    closed form, to exactly what the search picks among its tied costs."""

    @settings(max_examples=60, deadline=None)
    @given(model=cost_models, batch=st.integers(1, 64),
           input_len=st.integers(1, 2000), output_len=st.integers(1, 600),
           room=st.integers(0, 300), recompute=st.booleans(),
           kv_dtype=st.sampled_from(["fp16", "int8"]),
           seed=st.none() | st.tuples(fractions, fractions, fractions),
           max_rounds=st.integers(0, 3))
    def test_closed_form_matches_search(self, request, model, batch,
                                        input_len, output_len, room,
                                        recompute, kv_dtype, seed,
                                        max_rounds):
        cost_model = request.getfixturevalue(model)
        workload = Workload(batch, input_len, output_len, "t")
        optimizer = SchedulerOptimizer(cost_model, workload, SWA,
                                       kv_dtype=kv_dtype)
        if not recompute:
            optimizer.beta_grid = (0.0,)
        budget = input_len + output_len + room
        assert phase1_end_step(budget, workload) == output_len
        solution = optimizer.solve_incremental(seed=seed,
                                               max_rounds=max_rounds,
                                               gpu_budget=budget)
        # The search through the vectorized objective, one candidate at
        # a time.
        objective = optimizer._make_objective(budget, output_len)
        config, estimate, _ = reference_solve(
            optimizer, budget, seed, max_rounds,
            price=lambda *candidate: objective.costs([candidate])[0])
        assert solution.config == config
        assert solution.estimated_time == estimate
        assert type(solution.estimated_time) is float
        assert solution.evaluated_candidates == 1
        assert reference_solve(optimizer, budget, seed, max_rounds) \
            == (config, estimate, 1)

    @pytest.mark.parametrize("kv_dtype", ["fp16", "int8"])
    def test_budget_boundary(self, opt_cost_model, kv_dtype, monkeypatch):
        probe = Workload(8, 128, 1, "t")
        budget = opt_cost_model.kv_budget_tokens(
            probe.batch_size, probe.input_len, kv_dtype)
        fits = Workload(8, 128, budget - 128, "t")
        overflows = Workload(8, 128, budget - 127, "t")
        built = []
        original = SchedulerOptimizer._make_objective

        def counting(optimizer, *args):
            built.append(args)
            return original(optimizer, *args)

        monkeypatch.setattr(SchedulerOptimizer, "_make_objective", counting)
        for seed in (None, (0.6, 0.3, 0.5)):
            closed = SchedulerOptimizer(
                opt_cost_model, fits, SWA,
                kv_dtype=kv_dtype).solve_incremental(seed=seed)
            assert built == []
            assert closed.evaluated_candidates == 1
            assert closed.gpu_budget_tokens == budget
            assert (closed.config.phase2_step, closed.config.phase3_step) \
                == (fits.output_len, fits.output_len)
            searched = SchedulerOptimizer(
                opt_cost_model, overflows, SWA,
                kv_dtype=kv_dtype).solve_incremental(seed=seed)
            assert len(built) == 1
            built.clear()
            assert searched.evaluated_candidates > 1
            assert searched.config.phase2_step == fits.output_len

    def test_alisa_prepare_counts_one_candidate(self):
        system = alisa()
        workload = Workload(8, 128, 64, "w")  # fits on the GPU
        system.prepare(workload)
        assert system.schedule_stats() == dict(
            exact_hits=0, canonical_hits=0, warm_solves=0, full_solves=1,
            candidates_evaluated=1)
        assert system.schedule_solution.config \
            == SchedulerConfig(0.3, 0.0, 64, 64)


class TestPhase3Placement:
    @settings(max_examples=80, deadline=None)
    @given(prompt=st.integers(1, 400), budget=st.integers(1, 800),
           num_steps=st.integers(1, 200), p2=st.integers(0, 200),
           alpha=fractions, beta=fractions,
           sparsity=st.sampled_from([0.5, 0.8, 0.95]))
    def test_matches_plan_step_loop(self, prompt, budget, num_steps, p2,
                                    alpha, beta, sparsity):
        swa = SWAConfig.from_sparsity(sparsity)
        p2 = min(p2, num_steps - 1)
        scheduler = DynamicScheduler(SchedulerConfig(alpha, beta, p2, p2),
                                     swa, budget, prompt)
        scheduler.plan_prefill()
        plans = [scheduler.plan_step(j) for j in range(num_steps)][p2:]
        assert {plan.phase for plan in plans} == {PHASE_RECOMPUTE}
        first, stop = prompt + p2 + 1, prompt + num_steps + 1
        cpu, deleted = phase3_placement(
            sequence_table(swa, stop).local_list(), first, stop, alpha,
            beta, budget)
        assert cpu == [plan.tokens_cpu for plan in plans]
        assert deleted == [plan.tokens_deleted for plan in plans]
        assert all(type(value) is int for value in cpu + deleted)


    @pytest.mark.parametrize("config, budget", [
        (SchedulerConfig(0.7, 0.6, 40, 40), 10_000),  # Phase I only
        (SchedulerConfig(0.7, 0.6, 10, 40), 10_000),  # no Phase III
        (SchedulerConfig(0.7, 0.6, 10, 39), 10_000),  # Phase III: last step
        (SchedulerConfig(0.7, 0.6, 39, 39), 10_000),  # I, then III at last
        (SchedulerConfig(0.5, 0.4, 0, 0), 60),        # Phase III only
        (SchedulerConfig(0.3, 0.0, 40, 40), 150),     # budget forces II
    ])
    def test_plan_epoch_edges_match_plan_step_bit_for_bit(self, config,
                                                          budget):
        prompt, num_steps = 120, 40
        epoch_scheduler = DynamicScheduler(config, SWA, budget, prompt)
        epoch_scheduler.plan_prefill()
        epoch = epoch_scheduler.plan_epoch(num_steps)
        stepwise = DynamicScheduler(config, SWA, budget, prompt)
        stepwise.plan_prefill()
        plans = [stepwise.plan_step(j) for j in range(num_steps)]
        assert epoch.phases == tuple(plan.phase for plan in plans)
        for field in ("tokens_cpu", "tokens_deleted", "load_tokens",
                      "offload_tokens", "recompute_tokens"):
            values = getattr(epoch, field)
            expected = np.array([getattr(plan, field) for plan in plans],
                                dtype=values.dtype)
            assert values.tobytes() == expected.tobytes(), field

def golden_shapes(seed: int, count: int) -> list[tuple[int, int, int]]:
    """A seeded shape sequence: exact repeats, same-bucket neighbours
    (canonical hits) and fresh shapes (warm or full solves)."""
    rng = random.Random(seed)
    shapes: list[tuple[int, int, int]] = []
    for _ in range(count):
        roll = rng.random()
        if shapes and roll < 0.2:
            shape = rng.choice(shapes)
        elif shapes and roll < 0.45:
            b, s, n = rng.choice(shapes)
            shape = (b, max(1, s - rng.randint(0, 40)),
                     max(1, n - rng.randint(0, 40)))
        else:
            shape = (rng.choice((1, 2, 4, 8, 16, 32, 64)),
                     rng.randint(16, 2000), rng.randint(1, 1024))
        shapes.append(shape)
    return shapes


#: ``name -> (system builder, shape seed, number of prepares)``.  opt-30b
#: on an H100 node picks schedules with a Phase III; ``warm_start=False``
#: makes every new bucket a full grid solve.
GOLDEN_SYSTEMS = {
    "warm": (lambda: AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8),
             17, 80),
    "cold": (lambda: AlisaSystem(
        MODEL, V100_16GB_NODE, kv_sparsity=0.8,
        schedule_policy=SchedulePolicy(warm_start=False)), 23, 20),
    "h100": (lambda: AlisaSystem("opt-30b", H100_80GB_NODE, kv_sparsity=0.8),
             31, 50),
    "h100-cold": (lambda: AlisaSystem(
        "opt-30b", H100_80GB_NODE, kv_sparsity=0.8,
        schedule_policy=SchedulePolicy(warm_start=False)), 37, 30),
    "no-recompute": (lambda: AlisaSystem(
        MODEL, V100_16GB_NODE, kv_sparsity=0.8, enable_recomputation=False),
        29, 20),
}

#: ``(alpha, beta, p1, p2, estimated_time, gpu_budget_tokens)`` of every
#: ``prepare`` of a :data:`GOLDEN_SYSTEMS` system, then its final
#: ``schedule_stats()``.  Recorded from the scalar per-candidate solver
#: and compared with ``==``: a faster solver must reproduce every bit.
SOLVER_GOLDEN = {
    "warm": (
        (
            (0.3, 0.0, 0, 749, 108.46809334283193, 75),
            (0.3, 0.0, 0, 748, 107.54254348941484, 76),
            (0.3, 0.0, 0, 716, 99.75712807808884, 78),
            (0.3, 0.0, 0, 823, 135.07034597148444, 92),
            (0.3, 0.0, 0, 749, 108.46809334283193, 75),
            (0.3, 0.0, 0, 748, 107.54254348941484, 76),
            (0.3, 0.0, 0, 748, 107.54254348941484, 76),
            (0.3, 0.0, 0, 431, 139.78284196731647, 1),
            (0.3, 0.0, 0, 744, 102.60746126642212, 81),
            (0.3, 0.0, 0, 718, 98.53274253266883, 80),
            (0.3, 0.0, 278, 837, 21.439267388725263, 584),
            (0.3, 0.0, 887, 887, 13.802305233351113, 2482),
            (0.3, 0.0, 0, 746, 105.59320605989191, 78),
            (0.3, 0.0, 11, 11, 0.19170497649777776, 2338),
            (0.3, 0.0, 438, 438, 6.6418404238222415, 4946),
            (0.3, 0.0, 0, 737, 69.18505446012406, 375),
            (0.3, 0.0, 0, 716, 99.75712807808884, 78),
            (0.3, 0.0, 266, 266, 4.483409364764445, 4784),
            (0.3, 0.0, 0, 698, 92.66765307853868, 83),
            (0.3, 0.0, 0, 823, 135.07034597148444, 92),
            (0.3, 0.0, 0, 559, 40.767809642979685, 420),
            (0.3, 0.0, 0, 747, 105.05465594707412, 79),
            (0.3, 0.0, 111, 111, 1.8705522938311103, 2365),
            (0.3, 0.0, 154, 154, 2.407636696177778, 2421),
            (0.3, 0.0, 0, 994, 181.79114272085323, 76),
            (0.3, 0.0, 0, 698, 92.66765307853868, 83),
            (0.3, 0.0, 994, 994, 16.08521530026668, 4872),
            (0.3, 0.0, 0, 802, 65.40754721433389, 411),
            (0.3, 0.0, 0, 744, 102.60746126642212, 81),
            (0.3, 0.0, 38, 38, 13.305185803480775, 280),
            (0.3, 0.0, 266, 266, 4.483409364764445, 4784),
            (0.3, 0.0, 0, 724, 96.80062250359836, 84),
            (0.3, 0.0, 994, 994, 16.08521530026668, 4872),
            (0.3, 0.0, 0, 823, 135.07034597148444, 92),
            (0.3, 0.0, 0, 984, 94.5079843207121, 205),
            (0.3, 0.0, 0, 748, 107.54254348941484, 76),
            (0.3, 0.0, 544, 544, 8.312360318293333, 4918),
            (0.3, 0.0, 0, 101, 9.967593098585528, 78),
            (0.3, 0.0, 0, 805, 24.53734236714711, 1092),
            (0.3, 0.0, 836, 836, 13.90843763370668, 4834),
            (0.3, 0.0, 941, 941, 16.14925743217778, 1222),
            (0.3, 0.0, 652, 652, 10.528197245155575, 4852),
            (0.3, 0.0, 59, 59, 1.041614718293334, 2333),
            (0.3, 0.0, 0, 866, 51.87820358527736, 474),
            (0.3, 0.0, 0, 747, 105.05465594707412, 79),
            (0.3, 0.0, 474, 474, 8.54652276280889, 4738),
            (0.3, 0.0, 433, 433, 6.755593550506664, 2443),
            (0.3, 0.0, 74, 74, 1.2357773403022225, 2369),
            (0.3, 0.0, 0, 748, 107.54254348941484, 76),
            (0.3, 0.0, 367, 367, 6.588241276017782, 4734),
            (0.3, 0.0, 0, 736, 97.7822067941483, 85),
            (0.3, 0.0, 25, 25, 0.469197193671111, 1126),
            (0.3, 0.0, 858, 858, 13.324457506133333, 2482),
            (0.3, 0.0, 0, 744, 103.1175614523577, 81),
            (0.3, 0.0, 0, 822, 134.8706585076622, 92),
            (0.3, 0.0, 474, 474, 8.54652276280889, 4738),
            (0.3, 0.0, 135, 203, 4.052386164563527, 568),
            (0.3, 0.0, 0, 54, 13.691362923043993, 1),
            (0.3, 0.0, 0, 455, 118.47147231849655, 1),
            (0.3, 0.0, 820, 820, 13.306498059377766, 9736),
            (0.3, 0.0, 0, 0, 4.778753560378918, 997),
            (0.3, 0.0, 538, 538, 8.152431279217788, 9906),
            (0.3, 0.0, 74, 74, 1.2343798306133336, 2370),
            (0.3, 0.0, 16, 16, 0.29034572458666663, 1138),
            (0.3, 0.0, 69, 69, 1.0465367313066656, 2466),
            (0.3, 0.0, 0, 667, 89.27848216538908, 80),
            (0.3, 0.0, 25, 25, 0.43905472056888895, 2334),
            (0.3, 0.0, 0, 581, 22.37872807698529, 1032),
            (0.3, 0.0, 990, 990, 15.988055866026684, 4874),
            (0.3, 0.0, 411, 411, 7.846857011199997, 2311),
            (0.3, 0.0, 311, 311, 4.7212945726577775, 4921),
            (0.3, 0.0, 897, 897, 13.766381238044476, 9842),
            (0.3, 0.0, 0, 316, 10.666227759902199, 1042),
            (0.3, 0.0, 650, 650, 9.911746082133345, 4934),
            (0.3, 0.0, 0, 577, 179.53425011031663, 1),
            (0.3, 0.0, 484, 484, 7.709602533831116, 1225),
            (0.3, 0.0, 0, 823, 135.07034597148444, 92),
            (0.3, 0.0, 0, 659, 18.286074194955862, 1102),
            (0.3, 0.0, 0, 264, 8.397920342425518, 1050),
            (0.3, 0.0, 0, 708, 90.77041317037205, 88),
        ),
        dict(exact_hits=15, canonical_hits=13, warm_solves=51,
             full_solves=1, candidates_evaluated=312),
    ),
    "cold": (
        (
            (0.3, 0.0, 172, 172, 3.5256752355555556, 2258),
            (0.3, 0.0, 172, 172, 3.5256752355555556, 2258),
            (0.3, 0.0, 160, 160, 3.2686583899022206, 2259),
            (0.3, 0.0, 133, 133, 2.7043352689777755, 2260),
            (0.3, 0.0, 176, 176, 2.666966366435559, 9927),
            (0.3, 0.0, 41, 41, 0.7550234100622223, 1134),
            (0.3, 0.0, 0, 736, 66.95298301276965, 198),
            (0.3, 0.0, 73, 73, 1.2264141596444444, 4775),
            (0.3, 0.0, 0, 443, 17.423928002895053, 265),
            (0.3, 0.0, 756, 756, 14.224639772444451, 2342),
            (0.3, 0.0, 644, 644, 12.4965568056889, 2318),
            (0.3, 0.0, 0, 364, 60.41316168947808, 32),
            (0.3, 0.0, 0, 917, 74.93600034410122, 417),
            (0.3, 0.0, 366, 366, 5.554130026951116, 4929),
            (0.3, 0.0, 0, 401, 56.6051318010311, 100),
            (0.3, 0.0, 873, 873, 13.228760159573353, 9929),
            (0.3, 0.0, 0, 443, 17.423928002895053, 265),
            (0.3, 0.0, 581, 678, 14.668079197286378, 2277),
            (0.3, 0.0, 756, 756, 14.224639772444451, 2342),
            (0.3, 0.0, 0, 448, 74.5804998356927, 37),
        ),
        dict(exact_hits=3, canonical_hits=2, warm_solves=0,
             full_solves=15, candidates_evaluated=570),
    ),
    "h100": (
        (
            (0.3, 0.0, 805, 805, 15.365816077296707, 30337),
            (0.3, 0.0, 805, 805, 15.365816077296707, 30337),
            (0.3, 0.0, 805, 805, 15.365816077296707, 30337),
            (0.3, 0.6, 0, 0, 41.28584198951285, 821),
            (0.3, 0.0, 805, 805, 15.365816077296707, 30337),
            (0.3, 0.0, 917, 917, 17.37175568949508, 15193),
            (0.3, 0.0, 191, 191, 3.636098834951641, 15132),
            (0.3, 0.0, 191, 191, 3.636098834951641, 15132),
            (0.3, 0.6, 407, 407, 8.430479836083583, 3749),
            (0.3, 0.0, 153, 153, 2.90626803054806, 15134),
            (0.3, 0.0, 445, 445, 8.712601156928962, 15109),
            (0.3, 0.0, 442, 442, 8.628230562311641, 15112),
            (0.3, 0.4, 60, 227, 81.5216958511161, 444),
            (0.3, 0.0, 805, 805, 15.365816077296707, 30337),
            (0.3, 0.6, 177, 177, 3.3529029917803097, 3802),
            (0.3, 0.6, 0, 0, 95.09246972838764, 399),
            (0.3, 0.0, 793, 793, 15.123915824296107, 30339),
            (0.3, 0.0, 189, 189, 3.592301310777314, 15134),
            (0.3, 0.0, 117, 117, 2.218369329671641, 15135),
            (0.3, 0.0, 439, 439, 8.583872036833435, 15110),
            (0.3, 0.0, 362, 362, 8.12620910958806, 7463),
            (0.3, 0.0, 27, 27, 42.01334852864046, 1759),
            (0.3, 0.0, 191, 191, 3.636098834951641, 15132),
            (0.3, 0.0, 439, 439, 8.583872036833435, 15110),
            (0.3, 0.6, 0, 0, 37.387497234252706, 823),
            (0.3, 0.6, 0, 0, 71.39157307628, 807),
            (0.3, 0.0, 191, 191, 3.636098834951641, 15132),
            (0.3, 0.6, 100, 100, 2.057879429731344, 3738),
            (0.3, 0.0, 203, 203, 3.8407495831307568, 30422),
            (0.3, 0.6, 398, 398, 9.025599472105064, 930),
            (0.3, 0.0, 887, 887, 16.797185359321954, 15194),
            (0.3, 0.0, 439, 439, 8.583872036833435, 15110),
            (0.3, 0.0, 763, 763, 17.50430444819106, 7469),
            (0.3, 0.6, 78, 78, 1.7819484859988062, 3698),
            (0.3, 0.6, 1020, 1020, 20.81685147327046, 3783),
            (0.3, 0.0, 404, 404, 17.295245635031296, 470),
            (0.3, 0.6, 0, 0, 189.5114104536554, 394),
            (0.3, 0.0, 154, 154, 2.9251988774973134, 15134),
            (0.3, 0.0, 434, 434, 8.467884178875225, 15112),
            (0.3, 0.6, 0, 0, 41.28584198951285, 821),
            (0.3, 0.0, 396, 396, 7.823012762822694, 15098),
            (0.3, 0.6, 0, 94, 48.00460482446961, 423),
            (0.3, 0.0, 345, 345, 44.34600862263541, 1784),
            (0.3, 0.6, 102, 401, 68.16737338887393, 447),
            (0.3, 0.6, 390, 390, 8.72920310554746, 932),
            (0.3, 0.6, 66, 66, 1.4977356622710445, 3700),
            (0.3, 0.0, 94, 94, 18.895146031979, 886),
            (0.3, 0.0, 345, 345, 44.34600862263541, 1784),
            (0.3, 0.6, 100, 100, 2.057879429731344, 3738),
            (0.3, 0.6, 0, 0, 87.167618591088, 401),
        ),
        dict(exact_hits=12, canonical_hits=7, warm_solves=30,
             full_solves=1, candidates_evaluated=201),
    ),
    "h100-cold": (
        (
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 221, 221, 4.301868331099705, 7541),
            (0.3, 0.0, 578, 578, 13.810567586464481, 3704),
            (0.3, 0.4, 0, 455, 88.54236602765278, 878),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 886, 886, 19.170174060207767, 7505),
            (0.3, 0.0, 70, 70, 1.5845591691080603, 1840),
            (0.3, 0.0, 854, 854, 20.021902358314037, 1866),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 461, 461, 8.726913276179145, 7604),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.6, 0, 0, 18.168405397749297, 327),
            (0.3, 0.0, 639, 639, 12.642218721127172, 15107),
            (0.3, 0.0, 446, 618, 25.08256155814437, 1792),
            (0.3, 0.0, 417, 417, 7.954062112248359, 7569),
            (0.3, 0.0, 99, 99, 1.873400291419697, 15187),
            (0.3, 0.4, 34, 472, 84.15069482238161, 881),
            (0.3, 0.0, 42, 42, 0.9442808043367165, 1840),
            (0.3, 0.0, 61, 61, 1.1598969620632842, 7556),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 73, 73, 1.391552132661492, 30308),
            (0.3, 0.0, 392, 591, 23.410346087889764, 909),
            (0.3, 0.0, 603, 603, 13.161832639808948, 1872),
            (0.3, 0.4, 0, 455, 88.54236602765278, 878),
            (0.3, 0.0, 18, 18, 0.39743424756537316, 3708),
            (0.3, 0.0, 575, 575, 13.612064559990456, 3707),
            (0.3, 0.0, 45, 45, 0.8567028810125373, 30310),
            (0.3, 0.0, 867, 867, 18.716376696587467, 7505),
            (0.3, 0.0, 575, 575, 13.612064559990456, 3707),
        ),
        dict(exact_hits=8, canonical_hits=2, warm_solves=0,
             full_solves=20, candidates_evaluated=338),
    ),
    "no-recompute": (
        (
            (0.3, 0.0, 592, 592, 11.091515128035557, 2333),
            (0.3, 0.0, 592, 592, 11.091515128035557, 2333),
            (0.3, 0.0, 586, 586, 10.966494180693335, 2334),
            (0.3, 0.0, 0, 0, 40.69298184360892, 251),
            (0.3, 0.0, 0, 0, 40.69298184360892, 251),
            (0.3, 0.0, 0, 0, 36.8149704231456, 255),
            (0.3, 0.0, 350, 350, 5.505032760888893, 4861),
            (0.3, 0.0, 314, 314, 4.915192354133332, 4864),
            (0.3, 0.0, 0, 0, 60.20865123735348, 447),
            (0.3, 0.0, 0, 0, 57.395118910024856, 449),
            (0.3, 0.0, 38, 38, 7.10563004464737, 1110),
            (0.3, 0.0, 0, 0, 153.50781082437487, 77),
            (0.3, 0.0, 0, 0, 55.1952069351961, 450),
            (0.3, 0.0, 698, 698, 11.056743005297777, 2448),
            (0.3, 0.0, 0, 0, 11.755901692530832, 518),
            (0.3, 0.0, 68, 68, 6.1817853252124255, 1113),
            (0.3, 0.0, 0, 0, 36.41944050046182, 254),
            (0.3, 0.0, 0, 0, 27.814902165019582, 256),
            (0.3, 0.0, 592, 592, 11.091515128035557, 2333),
            (0.3, 0.0, 690, 690, 10.869508250737779, 2453),
        ),
        dict(exact_hits=3, canonical_hits=3, warm_solves=13,
             full_solves=1, candidates_evaluated=53),
    ),
}


class TestSolverGoldenPin:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEMS))
    def test_prepare_sequence_is_bit_identical(self, name):
        build, seed, count = GOLDEN_SYSTEMS[name]
        expected_rows, expected_stats = SOLVER_GOLDEN[name]
        system = build()
        rows = []
        for b, s, n in golden_shapes(seed, count):
            system.prepare(Workload(b, s, n, "pin"))
            solution = system.schedule_solution
            config = solution.config
            rows.append((config.offload_ratio, config.recompute_ratio,
                         config.phase2_step, config.phase3_step,
                         solution.estimated_time,
                         solution.gpu_budget_tokens))
        assert len(rows) == len(expected_rows)
        for index, (row, expected) in enumerate(zip(rows, expected_rows)):
            assert row == expected, (index, golden_shapes(seed, count)[index])
        assert system.schedule_stats() == expected_stats
