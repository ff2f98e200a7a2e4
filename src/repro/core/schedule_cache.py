"""Incremental re-solve layer for the ALISA offline scheduler (Section V-A).

The paper solves its offload/recompute schedule *once* per ``(b, s, n)``
shape, offline.  The online serving engine, by contrast, re-``prepare``-s
its simulator every time the batch composition changes — once per decode
epoch — and a full :meth:`~repro.core.optimizer.SchedulerOptimizer.solve`
grid search per epoch dominates serving-simulation wall-clock at large
request counts.  This module makes the re-solve incremental:

* :class:`SchedulePolicy` — knobs for the incremental layer (bucket sizes,
  warm-start behaviour, the ``exact`` escape hatch);
* :class:`ScheduleCache` — a memo of solved schedules with two key spaces:
  an *exact* map keyed on the precise solved shape
  ``(b, s, n, kv_dtype, budget)`` (always byte-identical to re-solving) and
  a *canonical* map keyed on a bucketed shape so nearby workloads share one
  representative solution.  :meth:`ScheduleCache.nearest` picks the
  warm-start seed of a new bucket: it keeps one row of ``(b, s, n)``
  floats per canonical key of each queried context and prices the
  distance to all of them in one NumPy pass;
* :class:`CachedSchedule` — a shape-independent encoding of a solution
  (``alpha``, ``beta``, and ``p2`` as a fraction of the post-``p1`` horizon)
  that can be re-derived for any concrete workload shape.

Public contract
---------------
One :class:`ScheduleCache` instance may safely back any number of
simulators and serving engines concurrently: every key is prefixed with a
*context* tuple built by the owning simulator (model, hardware, KV dtype,
SWA parameters, ablation flags, and — on multi-GPU nodes — the parallelism
mode, degree, and microbatch count, i.e. the shard shape), so entries from
different systems, nodes, or shard shapes can never be served to each
other.  Lookups mutate only the hit counters in :attr:`ScheduleCache.stats`;
``store_*`` never evicts (shapes are few and solutions small).  An exact
hit is byte-identical to re-solving the same shape; canonical and
warm-started paths are within the documented tolerance below.

Optimality tolerance
--------------------
The search objective (Equation 5) is a sum of per-step costs, each
piecewise-linear in the shape parameters ``(s, n)`` with slopes bounded by
the per-token compute/transfer/recompute costs.  Within one canonical
bucket the shape differs from the representative by at most
``input_bucket``/``output_bucket`` tokens, so the objective of the shared
configuration is within a Lipschitz band of the shape's own optimum; the
candidate grid itself is coarse (5 x 4 x 5), which dominates the gap in
practice.  The band assumes the representative chose its schedule over
more than one decode step after ``p1``: over a single step the choice of
``beta`` says nothing about longer horizons, so such a solve is memoized
exactly but never becomes a bucket's representative or a warm-start seed.
``SchedulePolicy.tolerance`` documents the accepted relative
drift; the property-based suite (``tests/test_schedule_cache.py``) checks
the bound against cold full-grid solves across hypothesis-generated
shapes.  Runs that need bit-exact reproduction of the offline protocol set
``SchedulePolicy(exact=True)``, which disables canonical sharing and
warm-starting entirely (memoization stays, and is byte-identical by
construction: a hit returns the solution of a full solve of that very
shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._common import ConfigurationError, validate_fraction, validate_positive
from repro.core.scheduler import SchedulerConfig

if TYPE_CHECKING:  # avoid a core -> workloads -> model -> core import cycle
    from repro.workloads.descriptors import Workload


@dataclass(frozen=True)
class SchedulePolicy:
    """Knobs of the incremental scheduler re-solve.

    ``exact``
        Escape hatch: solve every new shape with the legacy full grid
        search (byte-identical to the pre-cache behaviour).  Memoization of
        exact shape repeats stays on unless ``memoize`` is also cleared.
    ``memoize``
        Reuse solutions for exactly repeated ``(b, s, n, budget)`` shapes.
    ``input_bucket`` / ``output_bucket``
        Canonicalization granularity: workloads whose ``input_len`` /
        ``output_len`` round up to the same multiples share one canonical
        solution (batch size is never bucketed — the GPU KV budget scales
        with it too strongly).
    ``warm_start``
        Seed cold solves of a new canonical bucket from the nearest solved
        bucket and refine by coordinate descent over the candidate grids
        instead of re-running the full grid.
    ``tolerance``
        Documented relative optimality drift accepted from canonical
        sharing and warm-started refinement (see the module docstring).
    ``max_refine_rounds``
        Cap on coordinate-descent sweeps of a warm-started solve.
    """

    exact: bool = False
    memoize: bool = True
    input_bucket: int = 64
    output_bucket: int = 64
    warm_start: bool = True
    tolerance: float = 0.1
    max_refine_rounds: int = 3

    def __post_init__(self) -> None:
        validate_positive(input_bucket=self.input_bucket,
                          output_bucket=self.output_bucket,
                          max_refine_rounds=self.max_refine_rounds)
        validate_fraction(tolerance=self.tolerance)

    def canonical_shape(self, workload: Workload) -> tuple[int, int, int]:
        """Bucketed ``(b, s, n)`` under which nearby shapes share solutions."""

        def _up(value: int, bucket: int) -> int:
            return -(-value // bucket) * bucket

        return (workload.batch_size,
                _up(workload.input_len, self.input_bucket),
                _up(workload.output_len, self.output_bucket))


#: The exact-solve policy used to reproduce the pre-cache serving behaviour
#: (full grid search per epoch, no reuse of any kind).
FULL_RESOLVE_POLICY = SchedulePolicy(exact=True, memoize=False,
                                     warm_start=False)


@dataclass(frozen=True)
class CachedSchedule:
    """A solved schedule, encoded independently of the concrete shape.

    ``phase3_fraction`` stores ``p2`` as a fraction of the post-``p1``
    decoding horizon of the *solved* shape, so the schedule can be
    re-derived for any nearby shape whose ``p1`` differs.
    """

    offload_ratio: float
    recompute_ratio: float
    phase3_fraction: float
    batch_size: int
    input_len: int
    output_len: int
    gpu_budget_tokens: int
    estimated_time: float

    @classmethod
    def from_config(cls, config: SchedulerConfig, workload: Workload,
                    gpu_budget_tokens: int,
                    estimated_time: float) -> "CachedSchedule":
        horizon = max(1, workload.output_len - config.phase2_step)
        fraction = (config.phase3_step - config.phase2_step) / horizon
        return cls(
            offload_ratio=config.offload_ratio,
            recompute_ratio=config.recompute_ratio,
            phase3_fraction=min(1.0, max(0.0, fraction)),
            batch_size=workload.batch_size,
            input_len=workload.input_len,
            output_len=workload.output_len,
            gpu_budget_tokens=gpu_budget_tokens,
            estimated_time=estimated_time,
        )

    def derive_config(self, workload: Workload,
                      phase2_step: int) -> SchedulerConfig:
        """Re-instantiate the schedule for a concrete shape and ``p1``."""
        horizon = max(0, workload.output_len - phase2_step)
        phase3 = phase2_step + round(self.phase3_fraction * horizon)
        phase3 = min(phase2_step + horizon, max(phase2_step, phase3))
        return SchedulerConfig(
            offload_ratio=self.offload_ratio,
            recompute_ratio=self.recompute_ratio,
            phase2_step=phase2_step,
            phase3_step=phase3,
        )

    def distance(self, workload: Workload) -> float:
        """Relative shape distance used to pick warm-start seeds.

        :meth:`ScheduleCache.nearest` computes the same terms, in the same
        order, for all entries of a context at once; this scalar form is
        the reference the tests compare it against.
        """
        def _rel(a: int, b: int) -> float:
            return abs(a - b) / max(a, b, 1)

        return (_rel(self.batch_size, workload.batch_size)
                + _rel(self.input_len, workload.input_len)
                + _rel(self.output_len, workload.output_len))


class _ContextIndex:
    """The canonical entries of one context, for :meth:`ScheduleCache.nearest`.

    Row ``i`` of ``shapes`` holds the ``(b, s, n)`` of ``entries[i]`` as
    floats, in insertion order; an overwritten key keeps its row.
    """

    __slots__ = ("rows", "entries", "shapes")

    def __init__(self) -> None:
        self.rows: dict[tuple, int] = {}
        self.entries: list[CachedSchedule] = []
        self.shapes = np.empty((16, 3))

    def put(self, key: tuple, entry: CachedSchedule) -> None:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = len(self.entries)
            self.entries.append(entry)
            if row == len(self.shapes):
                self.shapes = np.concatenate(
                    (self.shapes, np.empty_like(self.shapes)))
        else:
            self.entries[row] = entry
        self.shapes[row] = (entry.batch_size, entry.input_len,
                            entry.output_len)


@dataclass
class ScheduleCacheStats:
    """Counters describing how re-solves were served."""

    exact_hits: int = 0
    canonical_hits: int = 0
    warm_solves: int = 0
    full_solves: int = 0
    candidates_evaluated: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "exact_hits": self.exact_hits,
            "canonical_hits": self.canonical_hits,
            "warm_solves": self.warm_solves,
            "full_solves": self.full_solves,
            "candidates_evaluated": self.candidates_evaluated,
        }


class ScheduleCache:
    """Memo of solved schedules, shareable across simulators and engines.

    Keys are namespaced by a *context* tuple (model, hardware, KV dtype,
    SWA parameters, ablation flags — built by the owning simulator), so one
    cache instance can safely back several systems at once.
    """

    def __init__(self) -> None:
        self._exact: dict[tuple, object] = {}
        self._canonical: dict[tuple, CachedSchedule] = {}
        # Canonical entries of each context :meth:`nearest` has queried,
        # by context width then context.
        self._by_context: dict[int, dict[tuple, _ContextIndex]] = {}
        self.stats = ScheduleCacheStats()

    def __len__(self) -> int:
        return len(self._exact) + len(self._canonical)

    def clear(self) -> None:
        self._exact.clear()
        self._canonical.clear()
        self._by_context.clear()
        self.stats = ScheduleCacheStats()

    # ------------------------------------------------------------------ #
    # exact shapes
    # ------------------------------------------------------------------ #
    @staticmethod
    def exact_key(context: tuple, workload: Workload,
                  gpu_budget_tokens: int) -> tuple:
        return context + (workload.batch_size, workload.input_len,
                          workload.output_len, gpu_budget_tokens)

    def lookup_exact(self, key: tuple):
        """Return the memoized solution for an exactly repeated shape."""
        solution = self._exact.get(key)
        if solution is not None:
            self.stats.exact_hits += 1
        return solution

    def store_exact(self, key: tuple, solution) -> None:
        self._exact[key] = solution

    # ------------------------------------------------------------------ #
    # canonical (bucketed) shapes
    # ------------------------------------------------------------------ #
    @staticmethod
    def canonical_key(context: tuple, policy: SchedulePolicy,
                      workload: Workload) -> tuple:
        return context + policy.canonical_shape(workload)

    def lookup_canonical(self, key: tuple) -> CachedSchedule | None:
        entry = self._canonical.get(key)
        if entry is not None:
            self.stats.canonical_hits += 1
        return entry

    def store_canonical(self, key: tuple, entry: CachedSchedule) -> None:
        if not isinstance(entry, CachedSchedule):
            raise ConfigurationError(
                "canonical entries must be CachedSchedule instances"
            )
        self._canonical[key] = entry
        for width, contexts in self._by_context.items():
            index = contexts.get(key[:width])
            if index is not None:
                index.put(key, entry)

    def nearest(self, context: tuple,
                workload: Workload) -> CachedSchedule | None:
        """Closest solved canonical entry in the same context, if any.

        Computes :meth:`CachedSchedule.distance` (same terms, same order)
        for every entry whose key starts with ``context`` in one array
        pass, over an index built on the context's first query and kept
        current by :meth:`store_canonical`.  ``argmin`` returns the first
        minimum, so ties keep the first-stored entry.
        """
        width = len(context)
        contexts = self._by_context.setdefault(width, {})
        index = contexts.get(context)
        if index is None:
            index = contexts[context] = _ContextIndex()
            for key, entry in self._canonical.items():
                if key[:width] == context:
                    index.put(key, entry)
        count = len(index.entries)
        if not count:
            return None
        shapes = index.shapes[:count]
        query = np.array((workload.batch_size, workload.input_len,
                          workload.output_len), dtype=np.float64)
        terms = np.abs(shapes - query) / np.maximum(
            np.maximum(shapes, query), 1.0)
        distance = terms[:, 0] + terms[:, 1] + terms[:, 2]
        return index.entries[int(distance.argmin())]
