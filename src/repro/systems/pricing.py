"""One sharing scope of the serving layer's pricing memos.

Serving prices the same shapes over and over: prefill passes, decode
epochs, decode steps, prefill times and the router's service estimates.
A :class:`PricingStore` owns every memo of one scope, each under the key
that fixes its values:

* per :attr:`~repro.systems.cost.LLMCostModel.identity`: decode-step
  tables with their list views, prefill times and router service
  estimates, which depend on the cost model alone;
* per ``(simulator.pricing_signature(), max_batch_size)``: the engine's
  priced prefills, plus its priced epochs when
  :meth:`~repro.systems.simulator.InferenceSimulator.pricing_is_shape_pure`
  holds.  Epochs that depend on solver history (ALISA's default schedule
  search) keep one memo per engine.

Equal keys in one store share one memo; nothing is shared across stores.
A lone engine makes its own store, a replica group makes one or takes
the one that ``serving_rate_sweep`` makes for the whole call.  No store
is module-level, so every sweep starts cold.  Engines and cost models
keep direct references to the dicts :meth:`attach` hands them, so a
memo hit stays a plain ``dict.get``.
"""

class PricingStore:
    """The pricing memos of one sharing scope (see the module docstring)."""

    def __init__(self) -> None:
        #: kind -> identity -> memo, in the order attach() hands them out
        self._cost_memos: dict[str, dict[tuple, dict]] = {
            kind: {} for kind in ("step_tables", "step_lists",
                                  "prefill_times", "service_estimates")}
        #: (pricing signature, max batch) -> (priced prefills, priced epochs)
        self._engine_memos: dict[tuple, tuple[dict, dict]] = {}
        self._engines: list = []
        #: Priced-prefill memo hits; the engines count them inline.
        self.prefill_hits = 0

    def attach(self, engine) -> dict:
        """Point ``engine`` and its cost model at this store's memos.

        Memos the engine or cost model read before are dropped, except a
        per-engine epoch memo, which holds solver-history prices.  Returns
        the router's service-estimate memo of the engine's cost model.
        """
        simulator = engine.simulator
        cost = simulator.cost_model
        cost._step_tables, cost._step_lists, cost._prefill_times, estimates \
            = (memos.setdefault(cost.identity, {})
               for memos in self._cost_memos.values())
        engine._prefill_prices, epochs = self._engine_memos.setdefault(
            (simulator.pricing_signature(), engine.max_batch_size), ({}, {}))
        if simulator.pricing_is_shape_pure():
            engine._epoch_cache = epochs
        engine.pricing = self
        self._engines.append(engine)
        return estimates

    def stats(self) -> dict[str, dict[str, int]]:
        """Hits, misses and entries of every memo kind in this store.

        Each prefill or epoch miss adds one entry, so prefill misses are
        the prefill entries; epoch hits and misses are the engines'
        lifetime counters, the ones behind ``metadata["epoch_cache"]``.
        """
        engines = self._engines
        prefills = sum(len(memo) for memo, _ in self._engine_memos.values())
        epochs = {id(engine._epoch_cache): len(engine._epoch_cache)
                  for engine in engines}
        stats = {kind: {"entries": sum(map(len, memos.values()))}
                 for kind, memos in self._cost_memos.items()}
        stats["prefill"] = {"hits": self.prefill_hits, "misses": prefills,
                            "entries": prefills}
        stats["epoch"] = {
            "hits": sum(engine._epoch_hits for engine in engines),
            "misses": sum(engine._epoch_misses for engine in engines),
            "entries": sum(epochs.values())}
        return stats
