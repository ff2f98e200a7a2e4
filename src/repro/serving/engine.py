"""Continuous batching of arriving requests over the inference simulators.

The paper evaluates one offline ``(b, s, n)`` batch per run (Section VI);
production serving instead sees requests arrive over time.  This engine
generalizes the Section VI protocol to ORCA/vLLM-style iteration-level
scheduling on top of *any* :class:`~repro.systems.simulator.InferenceSimulator`:
requests are admitted FCFS into the running batch whenever the GPU KV budget
has room, every running request generates one token per iteration, and
requests leave the batch the moment their last token is produced.

Public contract
---------------
:meth:`ContinuousBatchingEngine.serve` consumes a list of
:class:`~repro.workloads.arrivals.Request`, a bounded-memory
:class:`~repro.workloads.arrivals.RequestStream` or a closed-loop session
source — all driven as one :class:`~repro.serving.events.ArrivalSource` —
and returns a
:class:`~repro.serving.trace.ServingTrace` containing exactly one
:class:`~repro.serving.trace.RequestRecord` per input request, with ordered
timestamps ``arrival <= admission <= first_token <= completion``.  Requests
are admitted strictly in ``(arrival_time, request_id)`` order (FCFS — the
queue head blocks admission until it fits; under preemption, per SLO-class
lane).  A request whose KV footprint can never fit raises
:class:`~repro._common.ConfigurationError` at its arrival rather than
deadlocking or silently truncating.  Trace metadata reports the node KV
budget, peak reservation, per-shard budgets/occupancy, epoch/step counts,
PCIe traffic, communication-time share, and (for systems that plan
offline) per-serve scheduler-cache counters.

``record_mode="streaming"`` swaps the retained trace for a
:class:`~repro.serving.sketches.StreamingTrace`: the same summary surface,
O(1) memory, percentiles estimated by P² sketches, and goodput SLOs fixed
at serve time (``ttft_slo_s``/``tpot_slo_s``).  Both modes read every
exact figure from one :class:`~repro.serving.trace.TraceTotals` fold, so
everything except the percentile estimates is identical to the retained
trace whenever both fold the records in the same order.

Event-driven core
-----------------
``serve`` no longer steps a wall clock.  :class:`EngineRun` re-expresses
one serve as a discrete-event state machine — queue a routed arrival
(``offer``), process the next admission/epoch event (``advance``), drain
after the source closes (``close``/``finalize``) — and
:func:`repro.serving.events.drive` runs one or many such runs off a merged
event heap, so idle time costs nothing and several replicas interleave on
true arrival order (see :mod:`repro.serving.events` for the heap
invariants).  The clock-stepped loop it replaced survives as a test-only
reference (``tests/clock_reference.py``), and the event path is pinned
bit-identical to it in ``tests/test_epoch_pricing.py`` and
``tests/test_serving_events.py``.

Sharded KV budgets (multi-GPU)
------------------------------
On a multi-GPU node the engine shards the node KV-token budget one shard
per GPU (shard budgets differ by at most one token and sum exactly to the
node budget).  Tensor parallelism splits every sequence's KV head-wise and
pipeline parallelism splits it layer-wise, so each admitted request
occupies ``ceil(max_seq_len / num_shards)`` tokens on *every* shard in
lockstep; admission requires that per-shard footprint to fit the tightest
shard.  The ceiling makes sharded admission slightly conservative — shards
can never be overfilled by rounding.  With one shard this degenerates to
exactly the single-GPU budget check, so 1-GPU serving traces are
bit-identical to the pre-sharding engine (regression-pinned in
``tests/test_serving_sharded.py``).

Epoch pricing fast path
-----------------------
Decode epochs are priced **vectorized**: one
:meth:`~repro.systems.simulator.InferenceSimulator.epoch_timings` call
prices all steps of a fixed-composition epoch as NumPy arrays, the epoch
boundary (first completion or first admissible arrival) falls out of a
running sum plus a binary search, and priced epochs are memoized by
``(batch, context, steps, shard shape)`` so repeated epoch shapes —
fixed-length traces, rate sweeps, replica groups sharing a workload mix —
skip planning and pricing entirely.  A new shape whose KV stays on the GPU
(:meth:`~repro.systems.simulator.InferenceSimulator.epoch_stays_resident`)
is not planned at all: it moves nothing, so its steps are a slice of the
cost model's step table.  Prefill passes and chunks are
memoized the same way, per ``(batch, input, output)`` shape, as their
priced time, communication time and PCIe byte counts; a hit replays the
bytes onto the serve's link ledger.  This is behaviour-preserving: traces
are bit-identical to pricing every step one at a time, which
``tests/test_epoch_pricing.py`` pins against the test-only per-step pricer
in ``tests/clock_reference.py``.

Modelling choices (all deliberate simplifications at the same granularity as
the paper's own cost model):

* **iteration-granular pricing** — each decode iteration is priced by the
  wrapped simulator's per-step formula on an epoch workload ``(b, s, n)``
  with ``b`` the running batch, ``s`` the longest resident context, and
  ``n`` the steps until the next completion; the simulator is
  re-``prepare``-d whenever an epoch shape that may move KV is priced for
  the first time.  For ALISA this re-prepare is served *incrementally*
  through its :class:`~repro.core.schedule_cache.ScheduleCache` —
  repeated epoch shapes reuse their offline schedule, nearby shapes share
  canonical solutions, and new shapes are warm-started from the nearest
  solved neighbor — instead of re-running the full offline grid search
  per epoch (pass a ``SchedulePolicy(exact=True)`` system to restore that
  behaviour);
* **reservation-based admission** — admitting a request reserves its full
  ``input_len + output_len`` KV footprint against the budget (vLLM's
  conservative no-preemption watermark), so the KV budget is never exceeded
  mid-flight and vLLM-style preemption waves never trigger;
* **inline prefill** — newly admitted requests are prefilled in one batched
  prefill that stalls decoding (ORCA's prioritized prefill iterations; no
  chunked prefill);
* **lockstep shards** — TP/PP shards advance together (collectives
  synchronize every layer or stage), so one clock drives all shards and
  communication time is part of each priced iteration.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate
from time import perf_counter
from typing import NamedTuple

from repro._common import ConfigurationError, validate_positive
from repro.serving.events import (ADMISSION, COMPLETION, EPOCH_BOUNDARY,
                                  PREEMPTION, PREFILL_CHUNK, arrival_source,
                                  check_observers, check_serve,
                                  notify_finish, observer_hooks, serve_runs)
from repro.serving.sketches import StreamingTrace
from repro.serving.trace import RequestRecord, ServingTrace
from repro.systems.memory import MemoryHierarchy, PCIeLink
from repro.systems.simulator import InferenceSimulator
from repro.workloads.arrivals import SLO_CLASSES, Request
from repro.workloads.descriptors import Workload


#: Accepted values of ``ContinuousBatchingEngine(preemption=...)``.
PREEMPTION_MODES = (None, "retain", "recompute")


def _epoch_shape(running: list["_RunningRequest"]) -> tuple[int, int, int]:
    """``(batch, longest context, fewest remaining steps)`` of a batch —
    the decode epoch's ``Workload`` shape, found in one pass."""
    context = 0
    steps = None
    for wrapper in running:
        request = wrapper.request
        generated = wrapper.generated
        if request.input_len + generated > context:
            context = request.input_len + generated
        if steps is None or request.output_len - generated < steps:
            steps = request.output_len - generated
    return len(running), context, steps


class _PricedEpoch(NamedTuple):
    """The engine's memo entry for one priced decode epoch: what serving
    reads of it, as plain Python floats, so a memo hit does no NumPy work.
    ``h2d_bytes``/``d2h_bytes`` hold the per-step PCIe bytes of each
    direction, or ``None`` when the epoch moves no byte in that
    direction."""

    step_times: list[float]
    comm_per_step: float
    h2d_bytes: list[float] | None
    d2h_bytes: list[float] | None


@dataclass(slots=True)
class _RunningRequest:
    """Mutable in-flight state of one admitted request.

    ``prefill_tokens`` is how many prompt tokens the next prefill pass must
    compute for this request: the full ``input_len`` for a fresh admission,
    only the suffix when a session prefix was resident, the whole context so
    far when a ``"recompute"`` preemption dropped the KV, and 0 when a
    ``"retain"`` preemption kept it in host memory (the KV is swapped back
    instead).  ``swap_tokens`` sizes that pending swap-in.

    Under chunked prefill (``prefill_chunk_tokens=N``) ``chunk_remaining``
    is how many of those prefill tokens are still waiting in the run's
    chunk backlog, ``prefill_chunks`` counts the chunk events this request
    participated in, and ``preempting`` marks a request whose admission
    evicted running lower-priority work (its queueing delay is the
    preemption latency the chunk budget bounds).
    """

    request: Request
    admission_time: float
    first_token_time: float | None = None
    generated: int = 0
    prefill_tokens: int = 0
    prefix_hit: bool = False
    preemptions: int = 0
    swap_tokens: int = 0
    chunk_remaining: int = 0
    prefill_chunks: int = 0
    preempting: bool = False

    @property
    def context_length(self) -> int:
        return self.request.input_len + self.generated

    @property
    def remaining(self) -> int:
        return self.request.output_len - self.generated


class _PrefixCache:
    """Resident KV prefixes of in-progress sessions (one per serve/run).

    When a non-final session turn completes, its KV (the whole
    ``input_len + output_len`` context — exactly the next turn's declared
    ``prefix_len``) is *retained* on the GPU instead of freed, keyed by
    ``session_id``.  The next turn of that session then charges only its
    suffix: admission consumes the entry, nets the retained tokens out of
    the new reservation, and prefills ``input_len - prefix_len`` tokens.  A
    stale entry (retained context differs from the turn's declared prefix —
    e.g. a replayed or edited trace) is dropped and counted as a miss.

    Retained prefixes are *evictable*: when an admission would not fit the
    tightest shard, entries are evicted oldest-retention-first (LRU) and
    their tokens freed, so retention never blocks admission that plain
    serving would allow.  An engine serving requests without session fields
    never populates the cache, and every code path below degenerates to
    ``+ 0`` — plain traces are bit-identical to the pre-session engine.
    """

    __slots__ = ("entries", "node_total", "shard_total", "hits", "misses",
                 "evicted", "reused_tokens", "retained", "consumed",
                 "listener")

    def __init__(self) -> None:
        self.entries: dict[int, tuple[int, int]] = {}
        self.node_total = 0
        self.shard_total = 0
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        self.reused_tokens = 0
        self.retained = 0
        self.consumed = 0
        #: Optional ``listener(event, session_id, tokens)`` callback
        #: (``event`` in ``"hit"``/``"miss"``/``"evict"``) — the
        #: observability layer's tap on cache traffic.  ``None`` (the
        #: default) costs one attribute test per cache interaction.
        self.listener = None

    @property
    def touched(self) -> bool:
        """Did any session turn interact with the cache this serve?"""
        return bool(self.entries or self.hits or self.misses or self.evicted)

    def retain(self, session_id: int, node_tokens: int,
               shard_tokens: int) -> None:
        """Keep a completed turn's KV resident for the session's next turn.

        When the session's turns overlapped (turn ``t+1`` was admitted — as
        a miss — before turn ``t`` completed), an unconsumed entry for the
        same session may still be resident.  The new retention supersedes
        it: the old entry's tokens are freed from the ledger and the
        supersession counts as an eviction, so retained entries always
        balance against consumptions, evictions, and residents (the
        conservation law pinned in ``tests/test_sessions.py``).
        """
        previous = self.entries.pop(session_id, None)
        if previous is not None:
            self.node_total -= previous[0]
            self.shard_total -= previous[1]
            self.evicted += 1
            if self.listener is not None:
                self.listener("evict", session_id, previous[0])
        self.entries[session_id] = (node_tokens, shard_tokens)
        self.node_total += node_tokens
        self.shard_total += shard_tokens
        self.retained += 1

    def make_room(self, shard_delta: int, shard_reserved: int,
                  shard_limit: int) -> tuple[int, int]:
        """LRU-evict entries until ``shard_delta`` more tokens fit.

        Returns ``(node_freed, shard_freed)``; frees nothing when the
        admission already fits.
        """
        node_freed = shard_freed = 0
        while (self.entries
               and shard_reserved + shard_delta - shard_freed > shard_limit):
            session_id = next(iter(self.entries))
            tokens, shard_tokens = self.entries.pop(session_id)
            self.node_total -= tokens
            self.shard_total -= shard_tokens
            node_freed += tokens
            shard_freed += shard_tokens
            self.evicted += 1
            if self.listener is not None:
                self.listener("evict", session_id, tokens)
        return node_freed, shard_freed

    def admit(self, request: Request, node_footprint: int,
              shard_footprint: int, shard_reserved: int,
              shard_limit: int) -> tuple[int, int, bool]:
        """Account one admission against the cache.

        Returns ``(node_delta, shard_delta, hit)`` — the reservation deltas
        the caller applies (the request's footprint net of its consumed
        entry and of any pressure evictions) and whether the request's
        declared prefix was resident.
        """
        node_delta, shard_delta = node_footprint, shard_footprint
        hit = False
        session_id = getattr(request, "session_id", None)
        prefix_len = getattr(request, "prefix_len", 0)
        entry = (self.entries.pop(session_id, None)
                 if session_id is not None else None)
        if entry is not None:
            tokens, shard_tokens = entry
            self.node_total -= tokens
            self.shard_total -= shard_tokens
            node_delta -= tokens
            shard_delta -= shard_tokens
            hit = prefix_len > 0 and tokens == prefix_len
            self.consumed += 1
        if prefix_len > 0:
            if hit:
                self.hits += 1
                self.reused_tokens += prefix_len
            else:
                self.misses += 1
            if self.listener is not None:
                self.listener("hit" if hit else "miss", session_id,
                              prefix_len)
        node_freed, shard_freed = self.make_room(shard_delta, shard_reserved,
                                                 shard_limit)
        return node_delta - node_freed, shard_delta - shard_freed, hit

    def flush(self) -> None:
        """Drop every resident entry (a replica failure: the KV is gone).

        Each drop is ledgered as an eviction and fires the listener, so
        cache conservation (``retained == consumed + evicted + resident``)
        survives failures and observers see the flush as evict traffic.
        """
        while self.entries:
            session_id = next(iter(self.entries))
            tokens, shard_tokens = self.entries.pop(session_id)
            self.node_total -= tokens
            self.shard_total -= shard_tokens
            self.evicted += 1
            if self.listener is not None:
                self.listener("evict", session_id, tokens)

    def stats(self) -> dict:
        """The ``metadata["prefix_cache"]`` payload.

        Conservation law: every retained entry is eventually consumed by an
        admission, evicted (under pressure or by a superseding retention),
        or still resident at the end of the serve — so
        ``retained == consumed + evicted + resident`` always holds
        (regression-pinned in ``tests/test_sessions.py``).
        """
        judged = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "evicted": self.evicted,
                "reused_tokens": self.reused_tokens,
                "retained": self.retained,
                "consumed": self.consumed,
                "resident": len(self.entries),
                "hit_rate": self.hits / judged if judged else 0.0}


class RunGauges:
    """Live read-only gauges of one :class:`EngineRun`.

    Handed to observers through
    :meth:`repro.obs.Observer.on_serve_start`; every property reads the
    run's *current* state, so sampling the same object from later
    callbacks (as :class:`repro.obs.MetricsTimeline` does on a simulated
    interval) sees the state at that instant.  Strictly read-only — the
    view never mutates the run.
    """

    __slots__ = ("_run",)

    def __init__(self, run: "EngineRun") -> None:
        self._run = run

    @property
    def replica(self) -> int:
        return self._run.replica

    @property
    def clock(self) -> float:
        """The run's simulated clock (seconds)."""
        return self._run._clock

    @property
    def batch_size(self) -> int:
        """Requests currently in the running batch."""
        return len(self._run._running)

    @property
    def queue_depth(self) -> int:
        """Requests queued at the replica, not yet admitted."""
        return sum(len(lane) for lane in self._run._lanes)

    @property
    def queue_depth_by_class(self) -> dict[str, int]:
        """Queue depth per SLO class (all classes, zeros included)."""
        depths = {name: 0 for name in SLO_CLASSES}
        for lane in self._run._lanes:
            for request in lane:
                depths[request.slo_class] += 1
        return depths

    @property
    def kv_occupancy(self) -> float:
        """Reserved fraction of the tightest shard's KV budget."""
        run = self._run
        if run._shard_limit <= 0:
            return 0.0
        return run._shard_reserved / run._shard_limit

    @property
    def shard_occupancy(self) -> list[float]:
        """Per-shard reserved fraction (shards fill in lockstep today)."""
        run = self._run
        return [run._shard_reserved / budget if budget > 0 else 0.0
                for budget in run._shard_budgets]

    @property
    def prefix_hit_rate(self) -> float:
        """Running prefix-cache hit rate (0.0 before any judgement)."""
        prefix = self._run._prefix
        judged = prefix.hits + prefix.misses
        return prefix.hits / judged if judged else 0.0

    @property
    def num_preemptions(self) -> int:
        """Preemptions so far (cumulative; sample deltas for a rate)."""
        return self._run._num_preemptions


class ContinuousBatchingEngine:
    """Drives an :class:`InferenceSimulator` over an arrival trace.

    Parameters
    ----------
    simulator:
        Any system simulator (ALISA, vLLM, FlexGen, ...); its placement
        policy and cost accounting price every iteration.
    max_batch_size:
        Optional cap on concurrently running requests (``None`` = limited
        only by the KV budget).
    reserve_fraction:
        GPU memory head-room fraction forwarded to
        :meth:`~repro.systems.simulator.InferenceSimulator.gpu_kv_budget_tokens`.
    schedule_cache:
        Optional shared schedule cache injected into simulators that plan
        offline (currently :class:`~repro.core.engine.AlisaSystem`).  Lets
        several engines — e.g. one per arrival rate in a sweep — reuse each
        other's solved epoch shapes.  Ignored by simulators without a
        ``schedule_cache`` attribute.
    preemption:
        ``None`` (default) serves strictly FCFS.  ``"retain"`` or
        ``"recompute"`` enables priority scheduling over the request
        ``slo_class`` tiers: an arriving interactive request may evict
        running batch requests at an epoch boundary, either swapping their
        KV to host memory and back (``"retain"``, priced on the PCIe link)
        or dropping it and re-prefilling the generated context on
        re-admission (``"recompute"``).
    prefix_reuse:
        When True (default), the KV of a non-final session turn stays
        resident so the session's next turn is charged only its suffix (see
        :class:`_PrefixCache`).  ``False`` frees every completed request's
        KV immediately, making session turns behave like unrelated
        requests.
    prefill_chunk_tokens:
        ``None`` (default) prefills each admission batch in one indivisible
        pass (ORCA-style prioritized prefill).  An integer budget instead
        splits every prefill into chunks of at most that many tokens,
        interleaved with decode as ``PREFILL_CHUNK`` events: admission and
        preemption run between chunks, so a higher-priority arrival waits
        at most one chunk's priced time — bounded preemption latency
        independent of prompt length.  Prefix-reuse hits compose (only the
        suffix is chunked) and mid-prefill preemption retains or recomputes
        completed chunks per ``preemption=``.

    The number of KV shards equals the simulator node's ``gpu_count`` (the
    simulator's :class:`~repro.systems.cost.ParallelismSpec` already
    validates that its degree matches).
    """

    def __init__(self, simulator: InferenceSimulator,
                 max_batch_size: int | None = None,
                 reserve_fraction: float = 0.05,
                 schedule_cache=None,
                 preemption: str | None = None,
                 prefix_reuse: bool = True,
                 prefill_chunk_tokens: int | None = None) -> None:
        if max_batch_size is not None:
            validate_positive(max_batch_size=max_batch_size)
        if preemption not in PREEMPTION_MODES:
            raise ConfigurationError(
                f"unknown preemption mode {preemption!r}; known: "
                f"{list(PREEMPTION_MODES)}"
            )
        if prefill_chunk_tokens is not None:
            validate_positive(prefill_chunk_tokens=prefill_chunk_tokens)
        self.simulator = simulator
        self.max_batch_size = max_batch_size
        self.reserve_fraction = reserve_fraction
        self.preemption = preemption
        self.prefix_reuse = prefix_reuse
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.num_shards = simulator.hardware.gpu_count
        if schedule_cache is not None:
            if not hasattr(simulator, "schedule_cache"):
                raise ConfigurationError(
                    f"simulator {simulator.name!r} does not plan offline and "
                    "cannot adopt a schedule cache"
                )
            simulator.schedule_cache = schedule_cache
        # Pricing caches, engine state so they survive across serve() calls
        # (a rate sweep reuses one engine per configuration).  Priced
        # prefills are deterministic per workload shape; priced epochs are
        # deterministic per (b, s, n, shard shape).  ReplicaGroup shares
        # both across replicas whose simulators price identically — see
        # adopt_pricing_caches.
        self._prefill_prices: dict[tuple[int, int, int],
                                   tuple[float, float, float, float]] = {}
        self._epoch_cache: dict[tuple, _PricedEpoch] = {}
        self._epoch_hits = 0
        self._epoch_misses = 0

    def adopt_pricing_caches(self, other: "ContinuousBatchingEngine",
                             share_epochs: bool = True) -> None:
        """Share priced-prefill (and optionally priced-epoch) caches.

        Only valid when both engines' simulators have equal
        :meth:`~repro.systems.simulator.InferenceSimulator.pricing_signature`
        and the engines use the same admission knobs — the caller
        (:class:`~repro.cluster.group.ReplicaGroup`) checks this, and
        passes ``share_epochs=False`` for simulators whose priced epochs
        are not pure functions of the shape
        (:meth:`~repro.systems.simulator.InferenceSimulator.pricing_is_shape_pure`).
        """
        self._prefill_prices = other._prefill_prices
        if share_epochs:
            self._epoch_cache = other._epoch_cache

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def kv_budget_tokens(self, requests: list[Request]) -> int:
        """Total KV tokens available across all concurrent sequences.

        Derived from the simulator's single-sequence budget (KV bytes scale
        linearly with batch size), so systems with compressed KV caches
        (ALISA's INT8) can admit proportionally more concurrent requests.
        """
        if not requests:
            raise ConfigurationError(
                "kv_budget_tokens needs at least one request to size its probe"
            )
        return self.kv_budget_tokens_for_bounds(
            max(r.input_len for r in requests),
            max(r.output_len for r in requests))

    def kv_budget_tokens_for_bounds(self, max_input_len: int,
                                    max_output_len: int) -> int:
        """KV budget probed from length *bounds* instead of a request list.

        The budget depends on the probe's maximum lengths (activation
        bytes scale with the prompt length), so streams and event-driven
        runs — which never materialize their request lists — probe with
        the same bounds a list probe would reach.
        """
        probe = Workload(
            batch_size=1,
            input_len=max_input_len,
            output_len=max_output_len,
            name="serving-probe",
        )
        return self.simulator.gpu_kv_budget_tokens(probe, self.reserve_fraction)

    def shard_budgets(self, node_budget_tokens: int) -> list[int]:
        """Per-shard KV-token budgets (one shard per GPU).

        The node budget is split as evenly as integers allow: shard budgets
        differ by at most one token and always sum exactly to the node
        budget, so no capacity is lost (or invented) by sharding.
        """
        shards = self.num_shards
        base, remainder = divmod(node_budget_tokens, shards)
        return [base + (1 if i < remainder else 0) for i in range(shards)]

    def shard_footprint(self, request: Request) -> int:
        """KV tokens ``request`` occupies on *each* shard once admitted.

        TP shards a sequence's KV head-wise and PP layer-wise; either way
        every shard holds an equal slice, rounded up so admission can never
        overfill a shard.
        """
        return -(-request.max_seq_len // self.num_shards)

    def _fits(self, request: Request, running: list[_RunningRequest],
              shard_reserved_tokens: int, shard_limit_tokens: int,
              prefix: _PrefixCache | None = None) -> bool:
        """Would admitting ``request`` fit the tightest shard right now?

        ``shard_reserved_tokens`` counts running requests *and* retained
        session prefixes; every retained prefix is evictable (and the
        request's own session entry is consumed either way), so the
        feasible case nets the whole cache out.  With an empty cache this
        is exactly the pre-session arithmetic.
        """
        if (self.max_batch_size is not None
                and len(running) >= self.max_batch_size):
            return False
        evictable = prefix.shard_total if prefix is not None else 0
        return (shard_reserved_tokens + self.shard_footprint(request)
                - evictable <= shard_limit_tokens)

    def _admit_request(self, request: Request, prefix: _PrefixCache,
                       shard_reserved: int, shard_limit: int,
                       clock: float) -> tuple[_RunningRequest, int, int]:
        """Admission bookkeeping of one queued request.

        Returns ``(wrapper, node_delta, shard_delta)``; the caller applies
        the deltas to its reservation totals.
        """
        node_delta, shard_delta, hit = prefix.admit(
            request, request.max_seq_len, self.shard_footprint(request),
            shard_reserved, shard_limit)
        prefix_len = getattr(request, "prefix_len", 0)
        wrapper = _RunningRequest(
            request, admission_time=clock,
            prefill_tokens=request.input_len - (prefix_len if hit else 0),
            prefix_hit=hit)
        return wrapper, node_delta, shard_delta

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, requests, record_mode: str = "full",
              ttft_slo_s: float | None = None,
              tpot_slo_s: float | None = None,
              class_slos: dict | None = None,
              observers=None, faults=None, retry=None, shedding=None):
        """Simulate serving ``requests`` and return the serving trace.

        ``requests`` is a list of :class:`Request`, a
        :class:`~repro.workloads.arrivals.RequestStream` (bounded memory:
        the stream is consumed one arrival at a time) or a closed-loop
        session source
        (:meth:`~repro.workloads.sessions.SessionTrace.closed_loop`) — all
        three are driven as one
        :class:`~repro.serving.events.ArrivalSource`; a closed loop is fed
        every completion and its run never blocks (``eager_epochs``).
        ``record_mode="full"`` (default) returns a
        :class:`ServingTrace` with one retained record per request;
        ``"streaming"`` returns a
        :class:`~repro.serving.sketches.StreamingTrace` with the same
        summary surface in O(1) memory — ``ttft_slo_s``/``tpot_slo_s`` fix
        the goodput SLOs the streaming trace will answer for (in full mode
        they are the default, and the retained records answer any other).

        The serve drives one :class:`EngineRun` through
        :func:`~repro.serving.events.serve_runs`, the serve body a
        replica group shares; an empty list drives an idle run.

        ``class_slos`` fixes the per-``slo_class`` goodput SLOs that
        :meth:`~repro.serving.sketches.StreamingTrace.per_class_summary`
        will answer for.  Like the scalar SLOs it only *binds* in
        streaming mode (full mode refolds its retained records for other
        class SLOs), but it is validated in both.

        ``observers`` is an optional list of :class:`repro.obs.Observer`
        instances receiving every simulated-time event (see
        ``docs/observability.md``).  Observation is passive — traces are
        bit-identical with and without observers.

        ``faults`` is an optional :class:`~repro.faults.FaultSchedule`
        describing replica-0 outages on this single-replica serve (see
        :mod:`repro.faults`; multi-replica schedules belong on
        :meth:`~repro.cluster.group.ReplicaGroup.serve`).  ``retry`` is
        the :class:`~repro.faults.RetryPolicy` for interrupted requests
        and ``shedding`` an optional :class:`~repro.faults.LoadShedder`;
        both require ``faults``.  ``faults=None`` serves are bit-identical
        to the pre-fault engine.

        ``trace.metadata["wall_clock_s"]`` records the real time the
        simulation took, so bench regressions can be diagnosed from
        committed traces.
        """
        started = perf_counter()
        observers = check_observers(observers)
        source = arrival_source(requests)
        check_serve(source, faults, retry, shedding)
        trace = self.make_trace(record_mode, ttft_slo_s, tpot_slo_s,
                                class_slos=class_slos)
        feedback = source.on_completion
        run = self.start_run(trace, *(source.length_bounds or (None, None)),
                             observer=feedback,
                             eager_epochs=feedback is not None,
                             observers=observers,
                             fault_mode=faults is not None)
        serve_runs(source, [run], lambda request: 0, trace,
                   observers=observers, faults=faults, retry=retry,
                   shedding=shedding)
        trace.metadata["wall_clock_s"] = perf_counter() - started
        notify_finish(observers, trace, class_slos)
        return trace

    def make_trace(self, record_mode: str, ttft_slo_s: float | None = None,
                   tpot_slo_s: float | None = None,
                   class_slos: dict | None = None):
        """Empty trace of the requested ``record_mode``, base metadata set.

        A replica group does not build one per replica: its runs write
        into :class:`~repro.cluster.trace.ReplicaTrace` views over
        :meth:`_trace_metadata`, and only the cluster trace folds records.
        """
        trace_class = ServingTrace if record_mode == "full" else StreamingTrace
        return trace_class(system=self.simulator.name,
                           model=self.simulator.config.name,
                           metadata=self._trace_metadata(record_mode),
                           ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s,
                           class_slos=class_slos)

    def _trace_metadata(self, record_mode: str) -> dict:
        """Base metadata of a trace of ``record_mode`` (validated)."""
        if record_mode not in ("full", "streaming"):
            raise ConfigurationError(
                f"unknown record_mode {record_mode!r}; known: ['full', "
                f"'streaming']"
            )
        parallelism = self.simulator.parallelism
        return {"hardware": self.simulator.hardware.name,
                "kv_dtype": self.simulator.kv_dtype,
                "parallelism": {"mode": parallelism.mode,
                                "degree": parallelism.degree,
                                "label": parallelism.label},
                "record_mode": record_mode}

    def start_run(self, trace, max_input_len: int | None = None,
                  max_output_len: int | None = None,
                  observer=None, eager_epochs: bool = False,
                  observers: tuple = (), replica: int = 0,
                  fault_mode: bool = False) -> "EngineRun":
        """Begin one event-driven serve over this engine.

        The run writes into ``trace``: its ``observe`` takes each completed
        record and :meth:`EngineRun.finalize` fills its ``metadata`` (a
        :meth:`make_trace` trace, or a replica group's
        :class:`~repro.cluster.trace.ReplicaTrace` view).

        ``max_input_len``/``max_output_len`` bound the lengths of every
        request the run will be offered — they size the KV-budget probe
        exactly like :meth:`kv_budget_tokens` does for a list.  ``None``
        builds an idle run that may never be offered a request (a replica a
        routing policy starved; it finalizes to the empty-trace metadata).
        ``observer`` is called with each completed record after the trace
        observes it: a closed-loop source's ``on_completion`` feedback.
        ``eager_epochs`` must be True for runs driven by a closed-loop
        source: the run then prices epochs without waiting for its next
        queue head (which may depend on its own completions).
        ``observers`` are the serve's
        observability hooks (see :mod:`repro.obs`) and ``replica`` the
        index they see this run as.  Drive the run (alone or merged
        with others) through :func:`repro.serving.events.drive`, then call
        :meth:`EngineRun.finalize`.  ``fault_mode`` builds a run that a
        :class:`~repro.faults.FaultCoordinator` may fail and recover:
        late, out-of-order retry offers are accepted and the run exposes
        the coordinator's :meth:`EngineRun.fail`/:meth:`EngineRun.recover`
        surface.
        """
        if max_input_len is None or max_output_len is None:
            budget = 0
        else:
            budget = self.kv_budget_tokens_for_bounds(max_input_len,
                                                      max_output_len)
        return EngineRun(self, trace, budget, observer=observer,
                         eager_epochs=eager_epochs, observers=observers,
                         replica=replica, fault_mode=fault_mode)

    # ------------------------------------------------------------------ #
    def _prefill_time(self, admitted: list[_RunningRequest],
                      memory: MemoryHierarchy) -> tuple[float, float]:
        """Batched prefill of the newly admitted requests.

        Returns ``(wall_clock_time, communication_time)`` — the latter is
        the interconnect share of the prefill pass (0 on a single GPU).
        The pass is sized by each request's ``prefill_tokens`` (the full
        prompt, a session turn's suffix, or a recomputed context), so a
        prefix hit shortens it; a batch of pure swap-ins (``"retain"``
        resumes, 0 tokens each) skips it entirely.  Priced through
        :meth:`_price_prefill`'s per-shape memo.
        """
        input_len = max(r.prefill_tokens for r in admitted)
        if input_len == 0:
            return 0.0, 0.0
        return self._price_prefill(
            len(admitted), input_len,
            max(r.request.output_len for r in admitted), memory)

    def _chunk_time(self, parts: list[tuple[_RunningRequest, int]],
                    memory: MemoryHierarchy) -> tuple[float, float]:
        """Price one prefill chunk: ``parts`` are ``(wrapper, tokens)``.

        A chunk is priced exactly like a prefill pass of its own shape —
        batch of the participating requests, input length of the longest
        slice — through the same per-shape memo, so a sweep's repeated
        chunk shapes skip ``prepare`` just like whole prefills do.
        Returns ``(wall_clock_time, communication_time)``.
        """
        return self._price_prefill(
            len(parts), max(tokens for _, tokens in parts),
            max(wrapper.request.output_len for wrapper, _ in parts), memory)

    def _price_prefill(self, batch_size: int, input_len: int,
                       output_len: int,
                       memory: MemoryHierarchy) -> tuple[float, float]:
        """Price one prefill pass of shape ``(batch, input, output)``.

        Pricing is deterministic per shape, so each shape is priced once —
        ``prepare(decode=False)`` + ``plan_prefill`` + ``prefill_timing``
        against a fresh link with the serve link's bandwidth and latency —
        into ``(time, comm, h2d_bytes, d2h_bytes)``.  ``decode=False``
        tells the simulator that only the prompt is placed: ALISA places
        it from its GPU budget without solving a decode schedule.  The
        memo lives on the engine across admission events *and* serve()
        calls: repeated shapes (every admission in a fixed-length trace,
        every rate of a sweep) skip the simulator's ``prepare`` and the
        pricing itself.  Every pass then adds the two byte counts onto
        ``memory.link``, the same additions ``prefill_timing`` makes, so
        the link ledger is unchanged.
        Returns ``(wall_clock_time, communication_time)``.
        """
        key = (batch_size, input_len, output_len)
        priced = self._prefill_prices.get(key)
        if priced is None:
            workload = Workload(batch_size=batch_size, input_len=input_len,
                                output_len=output_len, name="serving-prefill")
            simulator = self.simulator
            simulator.prepare(workload, decode=False)
            plan = simulator.plan_prefill(workload)
            link = PCIeLink(memory.link.bandwidth_bytes_per_s,
                            memory.link.latency_s)
            time = simulator.prefill_timing(plan, workload,
                                            replace(memory, link=link))
            comm = simulator.parallel_comm_time(workload, query_len=input_len)
            priced = (time, comm, link.bytes_host_to_device,
                      link.bytes_device_to_host)
            self._prefill_prices[key] = priced
        time, comm, h2d_bytes, d2h_bytes = priced
        link = memory.link
        link.bytes_host_to_device += h2d_bytes
        link.bytes_device_to_host += d2h_bytes
        return time, comm

    def _price_epoch_fast(self, batch_size: int, context: int,
                          num_steps: int, cut_arrival: float | None,
                          clock: float, memory: MemoryHierarchy,
                          ) -> tuple[float, int, float, float]:
        """Vectorized epoch pricing with per-shape memoization.

        Prices the epoch ``Workload(batch_size, context, num_steps)``
        (see :meth:`_price_epoch`) once per
        ``(batch, context, steps, shard shape)`` and memoizes what serving
        reads of it, so repeated epoch shapes (the common case in
        fixed-length traces and rate sweeps) skip planning *and* pricing.
        The epoch boundary falls out of a running sum over the step times
        plus a binary search for ``cut_arrival`` (the earliest admissible
        arrival, ``None`` when no arrival can end the epoch) — no per-step
        pricing loop.  The taken steps' PCIe bytes are replayed onto
        ``memory.link`` by sequential float adds over the memo's byte
        lists, so a memo hit is plain Python and the ledger is
        bit-identical to per-step recording.
        Returns ``(end_clock, steps, first_clock, comm_per_step)``.
        """
        key = (batch_size, context, num_steps,
               self.simulator.parallelism.label)
        priced = self._epoch_cache.get(key)
        if priced is None:
            self._epoch_misses += 1
            priced = self._price_epoch(batch_size, context, num_steps,
                                       memory.link)
            self._epoch_cache[key] = priced
        else:
            self._epoch_hits += 1

        # clocks[k] is the clock after k steps (sequential float adds, as
        # the step loop makes them).
        clocks = list(accumulate(priced.step_times, initial=clock))
        steps = num_steps
        if cut_arrival is not None:
            # First step whose post-step clock reaches the cut arrival; the
            # final step always completes requests first, so only earlier
            # steps can end the epoch by admission.
            steps = bisect_left(clocks, cut_arrival, 1, num_steps)
        # Replay the steps' PCIe traffic onto the serve-level link ledger
        # with left-to-right float adds, the exact adds (in the same order)
        # of per-step recording.  Not sum(): it compensates on Python 3.12+
        # and would move fractional totals.  A direction that moves no
        # bytes in the whole epoch is skipped: adding 0.0 to the
        # non-negative ledger is an identity.
        link = memory.link
        if priced.h2d_bytes is not None:
            link.bytes_host_to_device = reduce(
                operator.add, priced.h2d_bytes[:steps],
                link.bytes_host_to_device)
        if priced.d2h_bytes is not None:
            link.bytes_device_to_host = reduce(
                operator.add, priced.d2h_bytes[:steps],
                link.bytes_device_to_host)
        return clocks[steps], steps, clocks[1], priced.comm_per_step

    def _price_epoch(self, batch_size: int, context: int, num_steps: int,
                     link: PCIeLink) -> _PricedEpoch:
        """Price every step of one decode epoch (a memo miss).

        An epoch whose KV stays on the GPU
        (:meth:`~repro.systems.simulator.InferenceSimulator.epoch_stays_resident`)
        costs only its compute, read as a slice of the cost model's step
        table, plus the per-step communication time — no ``prepare``, no
        ``plan_prefill`` and no ``epoch_timings``, bit-identical to them
        (pinned by ``tests/test_epoch_pricing.py``).  Any other epoch is
        planned and priced in full: the simulator's ``prepare`` (for ALISA
        the offline schedule search), ``plan_prefill`` to re-place the
        already-resident context (its prefill was charged at admission),
        then ``epoch_timings`` against ``link``'s bandwidth and latency.
        """
        simulator = self.simulator
        workload = Workload(batch_size=batch_size, input_len=context,
                            output_len=num_steps, name="serving-decode")
        if simulator.epoch_stays_resident(workload):
            step_times = simulator.cost_model.decode_step_times(
                batch_size, context + 1, num_steps,
                simulator.step_table_split)
            return _PricedEpoch(step_times.tolist(),
                                simulator.parallel_comm_time(workload),
                                None, None)
        simulator.prepare(workload)
        simulator.plan_prefill(workload)
        timings = simulator.epoch_timings(workload, link)
        return _PricedEpoch(
            timings.total_times.tolist(), float(timings.comm_times[0]),
            timings.h2d_bytes.tolist() if timings.h2d_any else None,
            timings.d2h_bytes.tolist() if timings.d2h_any else None)

    def _finish_epoch(self, running: list[_RunningRequest],
                      sink, steps: int, first_clock: float,
                      end_clock: float,
                      prefix: _PrefixCache | None = None,
                      ) -> list[_RunningRequest]:
        """Apply an epoch's effects to the batch and record completions.

        All running requests decrement uniformly, so the finishers are
        exactly the requests whose remaining output equalled the steps
        taken, and first tokens land at the epoch's first cumulative clock
        — one pass advances the batch and splits it into finishers and
        survivors.  A finishing non-final session turn hands its KV to the
        prefix cache instead of freeing it (when ``prefix_reuse`` is on).
        ``sink`` is anything with ``observe(record)``: a
        :class:`~repro.serving.trace.ServingTrace`, a
        :class:`~repro.serving.sketches.StreamingTrace`, or an
        :class:`EngineRun` handing records to its trace (a replica
        group's :class:`~repro.cluster.trace.ReplicaTrace` view among
        them), closed-loop feedback and observers.  Returns the
        finishers, in batch order, so the caller can release their
        reservations.
        """
        finished = []
        survivors = []
        for wrapper in running:
            wrapper.generated += steps
            if wrapper.first_token_time is None:
                wrapper.first_token_time = first_clock
            if wrapper.generated >= wrapper.request.output_len:
                finished.append(wrapper)
            else:
                survivors.append(wrapper)
        for done in finished:
            request = done.request
            if (prefix is not None and self.prefix_reuse
                    and getattr(request, "final_turn", True) is False):
                prefix.retain(request.session_id, request.max_seq_len,
                              self.shard_footprint(request))
            sink.observe(RequestRecord(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                admission_time=done.admission_time,
                first_token_time=done.first_token_time,
                completion_time=end_clock,
                input_len=request.input_len,
                output_len=request.output_len,
                slo_class=request.slo_class,
                prefix_len=getattr(request, "prefix_len", 0),
                prefix_hit=done.prefix_hit,
                preemptions=done.preemptions,
                preempting=done.preempting,
                prefill_chunks=done.prefill_chunks,
            ))
        if finished:
            running[:] = survivors
        return finished


class EngineRun:
    """One serve over one engine, as a discrete-event state machine.

    Re-expresses a clock-stepped serving loop (kept as a test reference in
    ``tests/clock_reference.py``) event by event so that
    :func:`repro.serving.events.drive` can interleave many runs on a merged
    heap.  The life cycle is: ``offer(request)`` for every routed arrival
    (in ``(arrival_time, request_id)`` order), ``advance()`` whenever the
    driver pops this run's scheduled event, ``close()`` once the arrival
    source is exhausted, and ``finalize()`` after the loop drains — which
    writes the serve metadata and returns the trace.

    State-machine invariants (they are what keep the event path
    bit-identical to the clock loop):

    * at most one scheduled event, and it is immutable once priced —
      arrivals only append behind the FCFS lane heads the pricing used;
    * a decode epoch is priced only when a lane head is known (a lane
      non-empty or run closed); otherwise the run *blocks* and consumes
      no work until ``offer``/``close`` unblocks it;
    * an idle run with a queued head wakes exactly at its earliest lane
      head's ``max(clock, arrival_time)`` (the clock loop's idle jump);
    * admission, prefill, and epoch pricing reuse the engine's own
      methods — the two paths share every formula;
    * the reservation counters are kept incrementally (the clock loop
      re-sums them after every epoch): after every event they equal the
      footprints of the running batch plus the resident session prefixes
      (checked by ``tests/test_engine_invariants.py``).
    """

    def __init__(self, engine: ContinuousBatchingEngine, trace,
                 budget_tokens: int, observer=None,
                 eager_epochs: bool = False, observers: tuple = (),
                 replica: int = 0, fault_mode: bool = False) -> None:
        self.engine = engine
        self.trace = trace
        self.replica = replica
        self._observer = observer
        #: Observability hooks (see repro.obs).  Every hook site below is
        #: guarded by ``if self._obs`` or, on the per-request and
        #: per-epoch paths, by one falsy check of that callback's bound
        #: hooks (inherited no-ops left out), so an observer-free run
        #: executes the exact pre-observability instruction stream —
        #: bit-identical golden journals, zero overhead when disabled.
        self._obs = obs = tuple(observers) if observers else ()
        self._on_arrival = observer_hooks(obs, "on_arrival")
        self._on_admission = observer_hooks(obs, "on_admission")
        self._on_prefill = observer_hooks(obs, "on_prefill")
        self._on_prefill_chunk = observer_hooks(obs, "on_prefill_chunk")
        self._on_epoch = observer_hooks(obs, "on_epoch")
        self._on_completion = observer_hooks(obs, "on_completion")
        self._on_prefix = observer_hooks(obs, "on_prefix")
        self._budget = budget_tokens
        self._shard_budgets = engine.shard_budgets(budget_tokens)
        self._shard_limit = min(self._shard_budgets)
        self._memory = MemoryHierarchy.from_hardware(engine.simulator.hardware)
        #: The queue: FCFS lanes, highest first — one per SLO class (in
        #: ``SLO_CLASSES`` order) under preemption, else one shared lane.
        #: ``_preempted`` parks preempted wrappers; their requests sit back
        #: at their lane heads until re-admitted.
        lanes = len(SLO_CLASSES) if engine.preemption is not None else 1
        self._lanes: list[deque[Request]] = [deque() for _ in range(lanes)]
        self._lane_of = {name: min(rank, lanes - 1)
                         for rank, name in enumerate(SLO_CLASSES)}
        self._running: list[_RunningRequest] = []
        self._prefix = _PrefixCache()
        self._preempted: dict[int, _RunningRequest] = {}
        self._num_preemptions = 0
        self._swap_bytes = 0.0
        self._recompute_tokens = 0
        #: Chunked prefill state (``engine.prefill_chunk_tokens`` set):
        #: admitted requests whose prefill is still being chunked, in
        #: admission order.  Decode epochs are scheduled only once the
        #: backlog drains, so chunking preserves the inline-prefill
        #: semantics that every admitted request finishes prefill before
        #: the batch decodes.
        self._chunking = engine.prefill_chunk_tokens is not None
        self._prefill_backlog: deque[_RunningRequest] = deque()
        self._num_chunks = 0
        self._chunked_tokens = 0
        self._max_chunk_s = 0.0
        #: Closed-loop mode: never block awaiting the next queue head
        #: (the head may depend on this run's own completions — blocking
        #: would deadlock); epochs priced with an empty queue get no
        #: arrival cut.
        self._eager = eager_epochs
        #: Fault-injection mode (see repro.faults): the run may be failed
        #: and recovered mid-serve, and must accept the retry offers that
        #: implies — after close(), and out of (arrival_time, request_id)
        #: order.  A request offered after its ``arrival_time`` (a retry,
        #: or an arrival parked through a total outage) is admissible only
        #: from its dispatch instant: ``_dispatched_at`` maps its id to
        #: that instant until it is admitted, and admission and the epoch
        #: cut read it through
        #: :meth:`_ready_time` (the record keeps the original arrival, so
        #: latency still counts from it).  ``_arrival_floor`` is the latest
        #: dispatch instant seen; an idle run never wakes before it.
        self._fault_mode = fault_mode
        self._down = False
        self._num_failures = 0
        self._drained_bytes = 0.0
        self._arrival_floor = 0.0
        self._dispatched_at: dict[int, float] = {}
        self._record_filter = None
        self._clock = 0.0
        self._reserved = 0
        self._shard_reserved = 0
        self._peak_reserved = 0
        self._peak_shard_reserved = 0
        self._num_epochs = 0
        self._num_steps = 0
        self._comm_time = 0.0
        self._offered = 0
        self._closed = False
        self._finalized = False
        #: The scheduled event: ``(ADMISSION, time)`` or
        #: ``(kind, end_clock, steps, first_clock, comm_per_step)``.
        self._event: tuple | None = None
        self._last_key: tuple[float, int] | None = None
        # Per-run deltas of the engine/simulator-lifetime counters.
        self._solver_before = engine.simulator.schedule_stats()
        self._epoch_hits_before = engine._epoch_hits
        self._epoch_misses_before = engine._epoch_misses
        if self._on_prefix:
            self._prefix.listener = self._prefix_event
        if self._obs:
            gauges = RunGauges(self)
            for ob in self._obs:
                ob.on_serve_start(self.replica, gauges)

    def _prefix_event(self, event: str, session_id, tokens: int) -> None:
        """Fan the prefix cache's hit/miss/evict traffic out to observers."""
        for hook in self._on_prefix:
            hook(self.replica, self._clock, event, session_id, tokens)

    # ------------------------------------------------------------------ #
    # record sink (the trace, then closed-loop feedback and observers)
    # ------------------------------------------------------------------ #
    def observe(self, record: RequestRecord) -> None:
        if self._record_filter is not None:
            record = self._record_filter(record)
        self.trace.observe(record)
        if self._observer is not None:
            self._observer(record)
        if self._on_completion:
            for hook in self._on_completion:
                hook(self.replica, record)

    # ------------------------------------------------------------------ #
    # driver interface (see repro.serving.events.ReplicaRun)
    # ------------------------------------------------------------------ #
    def check_admissible(self, request: Request) -> None:
        """Raise if ``request`` can never fit this run's shard budgets."""
        footprint = self.engine.shard_footprint(request)
        if footprint > self._shard_limit:
            raise ConfigurationError(
                f"request {request.request_id} needs {footprint} KV "
                f"tokens on each of {self.engine.num_shards} shard(s) but "
                f"the tightest shard budget is {self._shard_limit} (node "
                f"budget {self._budget}); it can never be admitted"
            )

    def offer(self, request: Request,
              now: float | None = None) -> tuple[float, str] | None:
        """Queue one routed arrival; return a newly scheduled event.

        ``now`` (fault mode only) is the simulated instant the arrival was
        dispatched to this run — for a retry that is later than the
        request's original ``arrival_time``, and the run must not admit it
        before then.
        """
        if self._down:
            raise ConfigurationError(
                "cannot offer a request to a failed replica — health-aware "
                "routing must exclude it"
            )
        if self._closed and not self._fault_mode:
            raise ConfigurationError(
                "cannot offer a request to a closed run"
            )
        key = (request.arrival_time, request.request_id)
        if (self._last_key is not None and key < self._last_key
                and not self._fault_mode):
            raise ConfigurationError(
                f"requests must be offered in (arrival_time, request_id) "
                f"order; got {key} after {self._last_key}"
            )
        self._last_key = key
        if now is not None:
            if now > self._arrival_floor:
                self._arrival_floor = now
            if now > request.arrival_time:
                self._dispatched_at[request.request_id] = now
        self.check_admissible(request)
        self._lanes[self._lane_of[request.slo_class]].append(request)
        self._offered += 1
        if self._on_arrival:
            for hook in self._on_arrival:
                hook(self.replica, request.arrival_time, request)
        if self._event is None:
            # A queued arrival can only unblock an idle or head-starved
            # run; an already-scheduled event is never affected (it was
            # priced against the queue head, and this request is behind it).
            return self._schedule()
        return None

    def advance(self) -> tuple[float, str] | None:
        """Process the scheduled event; return the next one (if any)."""
        if self._event is None:
            raise ConfigurationError("run has no scheduled event to advance")
        event, self._event = self._event, None
        if event[0] == ADMISSION:
            self._clock = max(self._clock, event[1])
        elif event[0] == PREFILL_CHUNK:
            _, end, parts, _, comm = event
            self._apply_chunk(end, parts, comm)
        else:
            kind, end, steps, first, comm_per_step = event
            self._apply_epoch(kind, end, steps, first, comm_per_step)
        return self._cycle()

    def close(self) -> tuple[float, str] | None:
        """No further arrivals: unblock a head-starved run, mark closed."""
        if self._closed:
            return None
        self._closed = True
        if self._event is None and self._running:
            # The run was blocked awaiting its next queue head; it now
            # knows no head is coming and can price its remaining epochs.
            return self._schedule()
        return None

    @property
    def finished(self) -> bool:
        return (self._closed and self._event is None
                and not self._has_pending and not self._running)

    # ------------------------------------------------------------------ #
    # fault surface (driven by repro.faults.FaultCoordinator)
    # ------------------------------------------------------------------ #
    def gauges(self) -> RunGauges:
        """Live gauge view of this run (the load shedder reads these)."""
        return RunGauges(self)

    def set_record_filter(self, record_filter) -> None:
        """Install a record transform applied before every sink sees it
        (the coordinator's retry-count annotation)."""
        self._record_filter = record_filter

    def stage_resumption(self, wrapper: _RunningRequest) -> None:
        """Park a migrated wrapper (drain-retained KV) for its re-offer.

        The request is offered right after; admission then takes the
        preemption-resume path — full footprint re-reserved, the retained
        host KV swap-in priced on *this* replica's link, the remaining
        prefill (if it was interrupted mid-chunk) re-chunked here.
        """
        self._preempted[wrapper.request.request_id] = wrapper

    def fail(self, time: float, mode: str) -> list:
        """Take this replica down at ``time``; return its interrupted work.

        Returns ``(ready_time, request, wrapper)`` triples — ``wrapper`` is
        ``None`` when the request must re-prefill from scratch on its next
        replica, or a migrated :class:`_RunningRequest` whose retained KV
        travels with it.

        ``"crash"`` loses everything instantly: queued, running, and
        preempted requests are interrupted at the fail instant with no
        wrapper (the node's device *and* host KV images are gone), and any
        epoch in flight is cancelled — its already-ledgered PCIe traffic
        stays on the link ledger (documented imprecision: the transfer was
        issued before the crash).  ``"drain"`` stops admissions but
        migrates work: each running request's resident KV
        (``context_length`` minus any un-prefilled chunk backlog) is
        serialized device-to-host on this replica's link, so its
        ``ready_time`` is its transfer's end; already-preempted wrappers
        migrate for free (their KV is in host memory already) and queued
        requests leave at the fail instant.  Both modes flush the prefix
        cache — a recovered replica rejoins cold.
        """
        engine = self.engine
        if not self._fault_mode:
            raise ConfigurationError(
                "fail() on a run not started with fault_mode=True"
            )
        if self._down:
            raise ConfigurationError(
                f"replica {self.replica} failed while already down"
            )
        self._down = True
        self._num_failures += 1
        self._clock = max(self._clock, time)
        self._event = None  # the in-flight event died with the replica
        fail_clock = self._clock
        interrupted: list[tuple[float, Request, _RunningRequest | None]] = []
        queued: list[Request] = []
        for lane in self._lanes:
            queued.extend(lane)
            lane.clear()
        for request in queued:
            # A preempted request sits in the queue with its wrapper parked
            # in _preempted; under drain the wrapper's host-resident KV
            # migrates without a new transfer, under crash it is lost.
            wrapper = self._preempted.pop(request.request_id, None)
            if mode == "crash":
                wrapper = None
            interrupted.append((fail_clock, request, wrapper))
        ready = fail_clock
        for wrapper in self._running:
            if mode == "drain":
                resident = wrapper.context_length - wrapper.chunk_remaining
                if resident > 0:
                    num_bytes = engine.simulator.cost_model.kv_bytes(
                        1, resident, engine.simulator.kv_dtype)
                    ready += self._memory.link.device_to_host(num_bytes)
                    self._drained_bytes += num_bytes
                wrapper.swap_tokens = resident
                wrapper.prefill_tokens = wrapper.chunk_remaining
                wrapper.chunk_remaining = 0
                interrupted.append((ready, wrapper.request, wrapper))
            else:
                interrupted.append((fail_clock, wrapper.request, None))
        self._running.clear()
        self._preempted.clear()
        self._prefill_backlog.clear()
        self._prefix.flush()
        self._reserved = 0
        self._shard_reserved = 0
        self._clock = ready
        return interrupted

    def recover(self, time: float) -> tuple[float, str] | None:
        """Bring the replica back up (cold) and reschedule if work waits."""
        if not self._down:
            raise ConfigurationError(
                f"replica {self.replica} recovered while not down"
            )
        self._down = False
        self._clock = max(self._clock, time)
        return self._schedule()

    # ------------------------------------------------------------------ #
    # internals: the clock loop's iteration, split at its wait points
    # ------------------------------------------------------------------ #
    @property
    def _has_pending(self) -> bool:
        return any(self._lanes)

    def _ready_time(self, request: Request) -> float:
        """When ``request`` may be admitted here: its arrival, or its
        later dispatch instant when it was offered late (fault mode)."""
        return self._dispatched_at.get(request.request_id,
                                       request.arrival_time)

    def _next_arrival(self) -> float:
        """Earliest queued arrival (any lane); some lane must be non-empty."""
        return min(lane[0].arrival_time for lane in self._lanes if lane)

    def _cycle(self) -> tuple[float, str] | None:
        """One admission round at the current clock, then (re)schedule."""
        engine = self.engine
        admitted = self._admit_priority()
        if self._reserved > self._peak_reserved:
            self._peak_reserved = self._reserved
        if self._shard_reserved > self._peak_shard_reserved:
            self._peak_shard_reserved = self._shard_reserved
        if admitted:
            if self._chunking:
                # Chunked prefill: nothing is priced here — the admitted
                # requests join the chunk backlog and _schedule_chunk
                # prices budget-sized slices, interleaving the next
                # admission round between them.
                for wrapper in admitted:
                    if wrapper.prefill_tokens > 0:
                        wrapper.chunk_remaining = wrapper.prefill_tokens
                        self._prefill_backlog.append(wrapper)
            else:
                prefill, prefill_comm = engine._prefill_time(admitted,
                                                             self._memory)
                prefill_start = self._clock
                self._clock += prefill
                self._comm_time += prefill_comm
                if self._on_prefill and prefill > 0.0:
                    batch = [wrapper.request for wrapper in admitted]
                    for hook in self._on_prefill:
                        hook(self.replica, prefill_start, self._clock, batch)
        return self._schedule()

    def _admit_priority(self) -> list[_RunningRequest]:
        """The admission round: the head of the highest ready lane first.

        A candidate (ready per :meth:`_ready_time`) that does not fit blocks
        itself *and* every lower lane (strict priority), unless it is
        entitled to evict enough lower-lane running requests to fit.  With
        one lane nothing is ever entitled, and this is FCFS: the queue
        head blocks until it fits.
        """
        engine = self.engine
        lanes, running = self._lanes, self._running
        late = self._dispatched_at
        preemptions = self._num_preemptions
        admitted: list[_RunningRequest] = []
        while True:
            for lane in lanes:
                if lane and (self._ready_time(lane[0]) if late
                             else lane[0].arrival_time) <= self._clock:
                    break
            else:
                break
            candidate = lane[0]
            if engine._fits(candidate, running, self._shard_reserved,
                            self._shard_limit, self._prefix):
                admitted.append(self._admit_one(lane.popleft()))
            elif lane is not lanes[-1] and self._can_preempt(candidate):
                self._preempt_for(candidate)
                wrapper = self._admit_one(lane.popleft())
                # Its queueing delay is the preemption latency the chunk
                # budget bounds (ServingTrace.p99_preemption_latency).
                wrapper.preempting = True
                admitted.append(wrapper)
            else:
                break
        if admitted and self._num_preemptions != preemptions:
            # A preemption in this round may have evicted a request admitted
            # moments earlier; it must not be prefilled as admitted.  Only
            # this round's preemptions can evict what this round admitted.
            still_running = {id(r) for r in running}
            admitted = [r for r in admitted if id(r) in still_running]
        return admitted

    def _admit_one(self, request: Request) -> _RunningRequest:
        """Admit one request (or resume its preempted wrapper)."""
        engine = self.engine
        if self._dispatched_at:
            self._dispatched_at.pop(request.request_id, None)
        wrapper = self._preempted.pop(request.request_id, None)
        if wrapper is not None:
            # Re-admission of preempted work: the full footprint is
            # re-reserved (evicting retained prefixes if it must), the
            # prefix cache is otherwise untouched, and a retained KV image
            # is swapped back over the PCIe link.
            footprint = engine.shard_footprint(request)
            node_freed, shard_freed = self._prefix.make_room(
                footprint, self._shard_reserved, self._shard_limit)
            self._reserved += request.max_seq_len - node_freed
            self._shard_reserved += footprint - shard_freed
            if wrapper.swap_tokens:
                num_bytes = engine.simulator.cost_model.kv_bytes(
                    1, wrapper.swap_tokens, engine.simulator.kv_dtype)
                self._clock += self._memory.link.host_to_device(num_bytes)
                self._swap_bytes += num_bytes
                wrapper.swap_tokens = 0
            self._running.append(wrapper)
            if self._on_admission:
                for hook in self._on_admission:
                    hook(self.replica, self._clock, request,
                         prefix_hit=wrapper.prefix_hit, resumed=True)
            return wrapper
        wrapper, node_delta, shard_delta = engine._admit_request(
            request, self._prefix, self._shard_reserved, self._shard_limit,
            self._clock)
        self._reserved += node_delta
        self._shard_reserved += shard_delta
        self._running.append(wrapper)
        if self._on_admission:
            for hook in self._on_admission:
                hook(self.replica, self._clock, request,
                     prefix_hit=wrapper.prefix_hit, resumed=False)
        return wrapper

    def _can_preempt(self, candidate: Request) -> bool:
        """Could evicting every lower-lane running request fit
        ``candidate``?  (The actual eviction stops as soon as it fits.)
        Callers skip it in O(1) for the lowest lane (the only lane without
        preemption), which has no lower-lane victims."""
        engine = self.engine
        lane_of = self._lane_of
        candidate_lane = lane_of[candidate.slo_class]
        victims = [r for r in self._running
                   if lane_of[r.request.slo_class] > candidate_lane]
        if not victims:
            return False
        if (engine.max_batch_size is not None
                and len(self._running) - len(victims) + 1
                > engine.max_batch_size):
            return False
        freed = sum(engine.shard_footprint(v.request) for v in victims)
        return (self._shard_reserved - freed
                + engine.shard_footprint(candidate)
                - self._prefix.shard_total <= self._shard_limit)

    def _preempt_for(self, candidate: Request) -> None:
        """Evict lower-lane running requests until ``candidate`` fits.

        Victims are evicted latest-admitted-first (LIFO — the least sunk
        work is sacrificed) and their requests re-enqueued at the head of
        their lane, which keeps that lane (arrival, id)-sorted because
        earlier-admitted requests have earlier keys.
        """
        engine = self.engine
        lane_of = self._lane_of
        candidate_lane = lane_of[candidate.slo_class]
        running = self._running
        for index in range(len(running) - 1, -1, -1):
            victim = running[index]
            if lane_of[victim.request.slo_class] <= candidate_lane:
                continue
            self._evict(victim, index)
            if engine._fits(candidate, running, self._shard_reserved,
                            self._shard_limit, self._prefix):
                return

    def _evict(self, victim: _RunningRequest, index: int) -> None:
        engine = self.engine
        request = victim.request
        evict_start = self._clock
        del self._running[index]
        self._reserved -= request.max_seq_len
        self._shard_reserved -= engine.shard_footprint(request)
        victim.preemptions += 1
        self._num_preemptions += 1
        # A mid-prefill victim (chunked prefill) leaves the chunk backlog;
        # only the KV its completed chunks actually computed is resident —
        # that is what "retain" swaps out and what "recompute" wastes.
        # With chunking off (or prefill done) chunk_remaining is 0 and
        # ``resident`` is exactly the full context, the PR 7 arithmetic.
        if victim.chunk_remaining > 0:
            try:
                self._prefill_backlog.remove(victim)
            except ValueError:
                pass  # evicted before its admission round backlogged it
        resident = victim.context_length - victim.chunk_remaining
        if engine.preemption == "retain":
            # Swap the context computed so far out to host memory now; the
            # matching swap-in is priced at re-admission, and any chunks
            # that never ran are re-prefilled there too.
            num_bytes = engine.simulator.cost_model.kv_bytes(
                1, resident, engine.simulator.kv_dtype)
            self._clock += self._memory.link.device_to_host(num_bytes)
            self._swap_bytes += num_bytes
            victim.swap_tokens = resident
            victim.prefill_tokens = victim.chunk_remaining
        else:  # "recompute": drop the KV, re-prefill the context on resume
            victim.swap_tokens = 0
            victim.prefill_tokens = victim.context_length
            self._recompute_tokens += resident
        victim.chunk_remaining = 0
        self._preempted[request.request_id] = victim
        self._lanes[self._lane_of[request.slo_class]].appendleft(request)
        if self._obs:
            for ob in self._obs:
                ob.on_preemption(self.replica, evict_start, self._clock,
                                 request, engine.preemption, resident)

    def _schedule(self) -> tuple[float, str] | None:
        """Compute the run's next event from its state (None = wait)."""
        if not self._running:
            if self._has_pending:
                # Idle with a queued head: wake at its arrival instant (but
                # never before a retry's re-dispatch — the floor is 0.0
                # outside fault mode).
                time = max(self._clock, self._next_arrival())
                if self._arrival_floor > time:
                    time = self._arrival_floor
                self._event = (ADMISSION, time)
                return (time, ADMISSION)
            return None  # awaiting offers, or finished once closed
        if self._chunking and self._prefill_backlog:
            # Chunks take priority over decode (prioritized prefill) and
            # never wait on the next queue head: a chunk is a fixed-
            # duration event, and the admission round between chunks is
            # what bounds a preemptor's wait.
            return self._schedule_chunk()
        if not self._has_pending and not self._closed and not self._eager:
            return None  # blocked: the epoch cut needs the next queue head
        return self._schedule_epoch()

    def _cut_arrival(self) -> tuple[float | None, bool]:
        """The earliest arrival that can end the next epoch, if any.

        Returns ``(ready_time, needs_preemption)``, where a head's ready
        time is when it may be admitted (:meth:`_ready_time`).  The batch
        is fixed for the whole epoch, so each lane head's feasibility is
        too.  A head that fits or can preempt cuts the epoch at its ready
        time — one already ready (``offer`` scheduled this epoch without an
        admission round) cuts it after one step.  A *ready* head that can
        do neither blocks every lower lane, as it does in admission; one
        not yet ready is skipped.
        """
        engine, lanes, late = self.engine, self._lanes, self._dispatched_at
        cut, needs_preemption = None, False
        for lane in lanes:
            if not lane:
                continue
            head = lane[0]
            ready = self._ready_time(head) if late else head.arrival_time
            fits = engine._fits(head, self._running, self._shard_reserved,
                                self._shard_limit, self._prefix)
            if fits or (lane is not lanes[-1] and self._can_preempt(head)):
                if cut is None or ready < cut:
                    cut, needs_preemption = ready, not fits
            elif ready <= self._clock:
                break
        return cut, needs_preemption

    def _schedule_chunk(self) -> tuple[float, str]:
        """Price the next prefill chunk off the backlog head.

        The chunk takes tokens FCFS from the backlog until the budget is
        spent — it may finish one request's prefill and start the next's
        in the same pass (the batched-chunk shape prices both together).
        """
        engine = self.engine
        budget = engine.prefill_chunk_tokens
        parts: list[tuple[_RunningRequest, int]] = []
        for wrapper in self._prefill_backlog:
            if budget <= 0:
                break
            take = min(wrapper.chunk_remaining, budget)
            parts.append((wrapper, take))
            budget -= take
        time, comm = engine._chunk_time(parts, self._memory)
        if time > self._max_chunk_s:
            self._max_chunk_s = time
        end = self._clock + time
        self._event = (PREFILL_CHUNK, end, parts, time, comm)
        return (end, PREFILL_CHUNK)

    def _apply_chunk(self, end: float,
                     parts: list[tuple[_RunningRequest, int]],
                     comm: float) -> None:
        chunk_start = self._clock
        self._clock = end
        self._comm_time += comm
        self._num_chunks += 1
        for wrapper, tokens in parts:
            wrapper.chunk_remaining -= tokens
            wrapper.prefill_chunks += 1
            self._chunked_tokens += tokens
        backlog = self._prefill_backlog
        while backlog and backlog[0].chunk_remaining <= 0:
            backlog.popleft()
        if self._on_prefill_chunk:
            chunk_parts = [(wrapper.request, tokens)
                           for wrapper, tokens in parts]
            for hook in self._on_prefill_chunk:
                hook(self.replica, chunk_start, end, chunk_parts)

    def _schedule_epoch(self) -> tuple[float, str]:
        engine = self.engine
        batch_size, context, num_steps = _epoch_shape(self._running)
        self._num_epochs += 1
        cut_arrival, needs_preemption = self._cut_arrival()
        end, steps, first, comm_per_step = engine._price_epoch_fast(
            batch_size, context, num_steps, cut_arrival, self._clock,
            self._memory)
        # The final step of a full epoch completes its shortest requests; a
        # shorter epoch was cut by an arrival — one that will preempt, or
        # one that simply fits.
        if steps == num_steps:
            kind = COMPLETION
        elif needs_preemption:
            kind = PREEMPTION
        else:
            kind = EPOCH_BOUNDARY
        self._event = (kind, end, steps, first, comm_per_step)
        return (end, kind)

    def _apply_epoch(self, kind: str, end: float, steps: int, first: float,
                     comm_per_step: float) -> None:
        engine = self.engine
        epoch_start = self._clock
        self._clock = end
        self._num_steps += steps
        self._comm_time += steps * comm_per_step
        if self._on_epoch:
            # Before _finish_epoch: the batch here is the epoch's actual
            # composition (completions leave via observe → on_completion).
            batch = [r.request for r in self._running]
            for hook in self._on_epoch:
                hook(self.replica, epoch_start, end, kind, steps, first,
                     batch)
        prefix = self._prefix
        node_retained, shard_retained = prefix.node_total, prefix.shard_total
        finished = engine._finish_epoch(self._running, self, steps, first,
                                        end, prefix)
        if finished:
            # Reservations are kept incrementally: finishers release their
            # footprints and retained session prefixes come back through
            # the cache's totals.  Every term is an integer, so the counters
            # stay exactly sum(footprints of running) + resident prefixes.
            for done in finished:
                self._reserved -= done.request.max_seq_len
                self._shard_reserved -= engine.shard_footprint(done.request)
            self._reserved += prefix.node_total - node_retained
            self._shard_reserved += prefix.shard_total - shard_retained

    # ------------------------------------------------------------------ #
    def finalize(self):
        """Write the serve metadata and return the trace.

        Includes the empty-trace shape for a run that was never offered a
        request (a replica the routing policy starved), and always the
        ``epoch_cache`` hit/miss counters of this run.
        """
        if not self.finished:
            raise ConfigurationError(
                "finalize() before the event loop drained this run"
            )
        if self._finalized:
            return self.trace
        self._finalized = True
        if self._obs:
            for ob in self._obs:
                ob.on_serve_end(self.replica, self._clock)
        engine = self.engine
        trace = self.trace
        if self._fault_mode:
            trace.metadata["faults"] = {
                "num_failures": self._num_failures,
                "drained_bytes": self._drained_bytes,
            }
        if self._offered == 0:
            trace.metadata.update(
                kv_budget_tokens=0, peak_reserved_tokens=0, num_epochs=0,
                num_decode_steps=0, pcie_bytes=0.0, shards=[],
                comm_time_s=0.0, comm_time_share=0.0)
            return trace
        trace.metadata.update(
            kv_budget_tokens=self._budget,
            peak_reserved_tokens=self._peak_reserved,
            num_epochs=self._num_epochs,
            num_decode_steps=self._num_steps,
            pcie_bytes=self._memory.link.total_bytes,
            shards=[
                {"shard": index, "budget_tokens": shard_budget,
                 "peak_reserved_tokens": self._peak_shard_reserved,
                 "peak_occupancy": (self._peak_shard_reserved / shard_budget
                                    if shard_budget > 0 else 0.0)}
                for index, shard_budget in enumerate(self._shard_budgets)
            ],
            comm_time_s=self._comm_time,
            comm_time_share=(self._comm_time / self._clock
                             if self._clock > 0 else 0.0),
        )
        if self._prefix.touched:
            trace.metadata["prefix_cache"] = self._prefix.stats()
        if engine.preemption is not None:
            trace.metadata["preemption"] = {
                "mode": engine.preemption,
                "count": self._num_preemptions,
                "swap_bytes": self._swap_bytes,
                "recompute_tokens": self._recompute_tokens,
            }
        if engine.prefill_chunk_tokens is not None:
            trace.metadata["prefill_chunking"] = {
                "chunk_tokens": engine.prefill_chunk_tokens,
                "num_chunks": self._num_chunks,
                "chunked_tokens": self._chunked_tokens,
                "max_chunk_s": self._max_chunk_s,
            }
        trace.metadata["epoch_cache"] = {
            "hits": engine._epoch_hits - self._epoch_hits_before,
            "misses": engine._epoch_misses - self._epoch_misses_before,
        }
        solver_after = engine.simulator.schedule_stats()
        if solver_after:
            trace.metadata["scheduler"] = {
                key: value - self._solver_before.get(key, 0)
                for key, value in solver_after.items()
            }
        return trace
