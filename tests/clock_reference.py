"""Clock-stepped reference implementations, for bit-identity tests.

The serving engine prices decode epochs vectorized
(:meth:`~repro.systems.simulator.InferenceSimulator.epoch_timings`) and
serves through the discrete-event core (:class:`repro.serving.engine.EngineRun`).
This module keeps the straightforward implementations those paths
re-express:

* :func:`serve_stepped` — the clock-stepped serving loop: admit FCFS at
  the current clock, prefill, decode one fixed-composition epoch, repeat;
* :func:`price_epoch_stepwise` — per-step epoch pricing
  (``plan_decode_step`` + ``step_timing`` once per step), with the same
  signature and return value as the engine's ``_price_epoch_fast``;
* :func:`decode_stepped` — the per-step decode body of the offline
  :meth:`~repro.systems.simulator.InferenceSimulator.run`, with the same
  signature as its ``_run_decode_fast``.

Tests serve or run the same workload through the library and through
these, and require equal records, metadata and step timings.
:func:`serve_stepped` drives the engine's own admission (``_fits``,
``_admit_request``), prefill pricing (``_prefill_time``) and epoch
bookkeeping (``_finish_epoch``), so what it pins is the event loop and
the epoch pricer.  It is test code only: nothing under ``src/`` imports
it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from repro._common import ConfigurationError
from repro.serving.engine import _epoch_shape, _PrefixCache
from repro.systems.memory import MemoryHierarchy
from repro.workloads.descriptors import Workload


def serve_stepped(engine, requests):
    """Serve the list ``requests`` on ``engine`` with the clock loop.

    Returns a full-mode trace carrying the same records and serve
    metadata as ``engine.serve(requests)`` (except the ``epoch_cache``
    counters, since every epoch is priced step by step, and
    ``wall_clock_s``).
    """
    trace = engine.make_trace("full")
    solver_before = engine.simulator.schedule_stats()
    budget = engine.kv_budget_tokens(requests)
    shard_budgets = engine.shard_budgets(budget)
    shard_limit = min(shard_budgets)
    for request in requests:
        footprint = engine.shard_footprint(request)
        if footprint > shard_limit:
            raise ConfigurationError(
                f"request {request.request_id} needs {footprint} KV "
                f"tokens on each of {engine.num_shards} shard(s) but the "
                f"tightest shard budget is {shard_limit} (node budget "
                f"{budget}); it can never be admitted"
            )

    pending = deque(sorted(requests,
                           key=lambda r: (r.arrival_time, r.request_id)))
    running = []
    prefix = _PrefixCache()
    memory = MemoryHierarchy.from_hardware(engine.simulator.hardware)
    clock = 0.0
    reserved = 0          # node-level KV tokens across all shards
    shard_reserved = 0    # per-shard tokens (shards fill in lockstep)
    peak_reserved = 0
    peak_shard_reserved = 0
    num_epochs = 0
    num_steps = 0
    comm_time = 0.0

    while pending or running:
        # FCFS admission: the queue head blocks until it fits, so
        # requests always enter the batch in arrival order.
        admitted = []
        while (pending and pending[0].arrival_time <= clock
               and engine._fits(pending[0], running, shard_reserved,
                                shard_limit, prefix)):
            request = pending.popleft()
            wrapper, node_delta, shard_delta = engine._admit_request(
                request, prefix, shard_reserved, shard_limit, clock)
            running.append(wrapper)
            reserved += node_delta
            shard_reserved += shard_delta
            admitted.append(wrapper)
        peak_reserved = max(peak_reserved, reserved)
        peak_shard_reserved = max(peak_shard_reserved, shard_reserved)

        if not running:
            clock = max(clock, pending[0].arrival_time)
            continue

        if admitted:
            prefill, prefill_comm = engine._prefill_time(admitted, memory)
            clock += prefill
            comm_time += prefill_comm

        num_epochs += 1
        clock, steps, epoch_comm = _decode_epoch(
            engine, running, pending, shard_reserved, shard_limit, clock,
            memory, trace, prefix)
        num_steps += steps
        comm_time += epoch_comm
        reserved = (sum(r.request.max_seq_len for r in running)
                    + prefix.node_total)
        shard_reserved = (sum(engine.shard_footprint(r.request)
                              for r in running) + prefix.shard_total)

    trace.metadata.update(
        kv_budget_tokens=budget, peak_reserved_tokens=peak_reserved,
        num_epochs=num_epochs, num_decode_steps=num_steps,
        pcie_bytes=memory.link.total_bytes,
        shards=[
            {"shard": index, "budget_tokens": shard_budget,
             "peak_reserved_tokens": peak_shard_reserved,
             "peak_occupancy": (peak_shard_reserved / shard_budget
                                if shard_budget > 0 else 0.0)}
            for index, shard_budget in enumerate(shard_budgets)
        ],
        comm_time_s=comm_time,
        comm_time_share=comm_time / clock if clock > 0 else 0.0,
    )
    if prefix.touched:
        trace.metadata["prefix_cache"] = prefix.stats()
    solver_after = engine.simulator.schedule_stats()
    if solver_after:
        trace.metadata["scheduler"] = {
            key: value - solver_before.get(key, 0)
            for key, value in solver_after.items()
        }
    return trace


def _decode_epoch(engine, running, pending, shard_reserved, shard_limit,
                  clock, memory, sink, prefix):
    """Decode with fixed batch composition until a completion or an
    admissible arrival ends the epoch.

    Returns ``(clock, steps, communication_time)``.
    """
    batch_size, context, num_steps = _epoch_shape(running)
    # The batch composition is fixed for the whole epoch, so the FCFS
    # head's admissibility is too: the epoch can only be cut by the
    # head's arrival, and only if it would fit.
    cut_arrival = None
    if pending and engine._fits(pending[0], running, shard_reserved,
                                shard_limit, prefix):
        cut_arrival = pending[0].arrival_time
    clock, steps, first_clock, comm_per_step = price_epoch_stepwise(
        engine, batch_size, context, num_steps, cut_arrival, clock, memory)
    engine._finish_epoch(running, sink, steps, first_clock, clock, prefix)
    return clock, steps, steps * comm_per_step


def price_epoch_stepwise(engine, batch_size: int, context: int,
                         num_steps: int, cut_arrival: float | None,
                         clock: float, memory: MemoryHierarchy,
                         ) -> tuple[float, int, float, float]:
    """Price an epoch one step at a time, stopping at ``cut_arrival``.

    Returns ``(end_clock, steps, first_clock, comm_per_step)``, exactly as
    ``engine._price_epoch_fast`` does; the steps' PCIe traffic is recorded
    on ``memory.link`` as each step is priced.
    """
    simulator = engine.simulator
    workload = Workload(batch_size=batch_size, input_len=context,
                        output_len=num_steps, name="serving-decode")
    simulator.prepare(workload)
    simulator.plan_prefill(workload)
    comm_per_step = simulator.parallel_comm_time(workload)
    steps = 0
    first_clock = None
    for step in range(workload.output_len):
        plan = simulator.plan_decode_step(step, workload)
        timing = simulator.step_timing(plan, step, workload, memory)
        clock += timing.total_time
        steps += 1
        if first_clock is None:
            first_clock = clock
        if steps == workload.output_len:
            break  # the final step completes requests; epoch over
        if cut_arrival is not None and cut_arrival <= clock:
            break
    return clock, steps, first_clock, comm_per_step


def decode_stepped(simulator, workload: Workload, memory: MemoryHierarchy,
                   trace) -> None:
    """Per-step decode loop of the offline ``run()``.

    Plans, prices and applies memory for one step at a time; install it
    as ``simulator._run_decode_fast`` (bound with ``functools.partial``)
    to run the reference through the simulator's own ``run()``.
    """
    for step in range(workload.output_len):
        plan = simulator.plan_decode_step(step, workload)
        timing = simulator.step_timing(plan, step, workload, memory)
        simulator._apply_memory(plan, workload, memory)
        trace.add_step(replace(
            timing,
            gpu_used_bytes=memory.gpu.used_bytes,
            cpu_used_bytes=memory.cpu.used_bytes,
        ))
