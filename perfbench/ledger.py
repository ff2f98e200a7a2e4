"""Per-layer wall-clock ledger, recorded from outside the program.

The ledger patches timing wrappers onto the functions at each layer
boundary of the serving simulator (class attributes and module globals,
so every call site picks them up) and books each call's *self* time to
its layer: the call's duration minus the part covered by nested calls
into other wrapped functions.  Self times therefore sum to the traced
wall-clock time, and a layer that slows shows up as its own line even
when the total moves little.

Only the benchmark installs the wrappers; :meth:`Ledger.uninstall`
restores the originals, so untraced measurements run the unmodified
code.
"""

from __future__ import annotations

import functools
from time import perf_counter

#: Layers in report order, with what each one covers.
LAYERS = {
    "source": "arrival generation (RequestStream draws, sweep traces)",
    "driver": "merged event-heap loop bodies and fault coordination",
    "routing": "router decisions and the service-time estimates they read",
    "run": "per-replica event state machine (offer/advance/close)",
    "admission": "admission rounds, epoch-cut feasibility, budget probes",
    "prefill": "prefill and chunk pricing (plan-cache hits)",
    "epoch": "decode-epoch pricing (epoch-cache lookups and fills)",
    "planning": "simulator prepare/plan_prefill on a pricing-cache miss",
    "epoch_apply": "applying an epoch: records, reservation recount",
    "sinks": "record sinks, streaming sketches and observer hooks",
    "summaries": "trace merge, summary, goodput and per-class tables",
    "build": "constructing simulators, engines and replica groups",
    "other": "everything else inside a measured call",
}


class Ledger:
    """Self time and call counts per layer, plus cache-miss tallies."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: ``prepare`` calls keyed by the layer that triggered them — each
        #: is one pricing-cache miss of that layer.
        self.misses: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, fn, miss_tag: bool = False,
             root: bool = False):
        """``fn`` with its self time booked to ``layer``.

        Only calls made inside a :meth:`measure` are booked (``root``
        marks the wrapper that opens one), so the benchmark's own output
        checks, which call the same methods, stay off the ledger.
        """
        stack = self._stack
        self_s, calls, misses = self.self_s, self.calls, self.misses

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if parent is None or parent[0] != layer:
                    calls[layer] += 1
                if parent is not None:
                    parent[1] += elapsed
                    if miss_tag:
                        misses[parent[0]] = misses.get(parent[0], 0) + 1

        return timed

    def measure(self, fn, *args, **kwargs):
        """Call ``fn`` with everything not claimed by a layer booked to
        ``other``."""
        return self.wrap("other", fn, root=True)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    def _patch(self, owner, name: str, layer: str,
               miss_tag: bool = False) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(
                self.wrap(layer, original.__func__, miss_tag))
        else:
            patched = self.wrap(layer, original, miss_tag)
        setattr(owner, name, patched)

    def _patch_own(self, classes, names, layer: str,
                   miss_tag: bool = False) -> None:
        """Patch each of ``names`` on every class that defines it itself,
        so overrides and their ``super()`` calls are all covered."""
        for cls in classes:
            for name in names:
                if name in cls.__dict__:
                    self._patch(cls, name, layer, miss_tag)

    def install(self) -> None:
        """Patch the layer boundaries of the serving stack."""
        import repro.baselines  # noqa: F401  (defines the simulator classes)
        import repro.core.engine  # noqa: F401
        from repro.cluster import group as group_module
        from repro.cluster.group import ReplicaGroup
        from repro.cluster.router import Router
        from repro.cluster.trace import ClusterTrace, StreamingClusterTrace
        from repro.experiments import serving as sweep_module
        from repro.faults import FaultCoordinator
        from repro.obs import MetricsTimeline, Observer, SpanTracer
        from repro.serving import engine as engine_module
        from repro.serving import events as events_module
        from repro.serving.engine import ContinuousBatchingEngine, EngineRun
        from repro.serving.sketches import StreamingTrace
        from repro.serving.trace import ServingTrace
        from repro.systems.simulator import InferenceSimulator
        from repro.workloads.arrivals import RequestStream

        for module in (group_module, engine_module, events_module):
            if "drive" in module.__dict__:
                self._patch(module, "drive", "driver")
        self._patch_own([FaultCoordinator],
                        [name for name in FaultCoordinator.__dict__
                         if callable(FaultCoordinator.__dict__[name])
                         and not name.startswith("__")], "driver")
        self._patch_own([Router], ["assign"], "routing")
        self._patch_own([ReplicaGroup], ["estimate_service_time"], "routing")
        self._patch_own([EngineRun], ["offer", "advance", "close"], "run")
        self._patch_own([EngineRun], ["_admit_fifo", "_admit_priority",
                                      "_cut_arrival", "check_admissible"],
                        "admission")
        self._patch_own([ContinuousBatchingEngine],
                        ["kv_budget_tokens", "kv_budget_tokens_for_bounds"],
                        "admission")
        self._patch_own([ContinuousBatchingEngine],
                        ["_prefill_time", "_chunk_time"], "prefill")
        self._patch_own([ContinuousBatchingEngine],
                        ["_price_epoch_fast", "_price_epoch_stepwise"],
                        "epoch")
        simulators = _subclasses(InferenceSimulator)
        self._patch_own(simulators, ["prepare"], "planning", miss_tag=True)
        self._patch_own(simulators, ["plan_prefill"], "planning")
        self._patch_own([EngineRun], ["_apply_epoch", "_apply_chunk"],
                        "epoch_apply")
        traces = [ServingTrace, ClusterTrace, StreamingTrace,
                  StreamingClusterTrace]
        self._patch_own(traces, ["observe"], "sinks")
        observers = [Observer, SpanTracer, MetricsTimeline]
        self._patch_own(observers,
                        [name for name in Observer.__dict__
                         if name.startswith("on_")], "sinks")
        self._patch_own(observers, ["finish"], "sinks")
        self._patch_own(traces, ["merge", "summary", "goodput",
                                 "per_class_summary"], "summaries")
        self._patch_own([ReplicaGroup], ["__init__"], "build")
        self._patch_own([ContinuousBatchingEngine], ["__init__"], "build")
        self._patch(sweep_module, "_build_simulator", "build")
        self._patch(sweep_module, "_rate_requests", "source")
        stream_iter = RequestStream.__iter__
        next_wrap = self.wrap

        def timed_iter(stream):
            iterator = stream_iter(stream)
            return _TimedIterator(next_wrap("source", iterator.__next__))

        self._patches.append((RequestStream, "__iter__", stream_iter))
        RequestStream.__iter__ = timed_iter

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _subclasses(cls) -> list[type]:
    """``cls`` and every class derived from it."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class _TimedIterator:
    """An iterator whose ``__next__`` is a ledger-timed call."""

    def __init__(self, timed_next) -> None:
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()
