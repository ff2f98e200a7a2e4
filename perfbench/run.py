"""Host-cost benchmark of the serving simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Imports ``repro`` from ``src/`` next to this directory and exits with
status 2, printing no result, when that source tree is missing.

A run draws several input sets (variants) from ``--seed``, builds one
replica group per variant and runs its first, cache-filling serve (the
set-up), then rotates through the variants — a serve on the variant's
warm group, then a sweep — until ``--seconds`` have passed and at least
``MIN_ROTATIONS`` rotations are done.  Every call is timed against the
machine-speed reference (see ``reference.py``).  ``--trace 0`` reports:

* ``host_us_per_request`` — host microseconds per simulated request of a
  warm serve (median per variant, mean over variants);
* ``sweep_rows_per_s`` — ``serving_rate_sweep`` rows per second, every
  sweep building its systems from scratch as the experiment CLI does
  (median per variant, mean over variants);
* ``setup_s`` — median set-up time over the variants.

``--trace 1`` instead runs a fixed amount of work under the per-layer
ledger (see ``ledger.py``) and reports each layer's self time per
simulated request, pricing-cache hit rates, and the ledger's overhead
against untraced serves.

Every serve and sweep is checked (see ``bench_workloads.py``); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
from time import perf_counter

# Single-threaded numeric libraries: the simulator's arrays are tiny, and
# thread pools only add run-to-run jitter.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from reference import CalibratedTimer  # noqa: E402  (imports numpy)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROTATIONS = 3


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, check, *args) -> None:
        from bench_workloads import CheckFailed

        self.attempted += 1
        try:
            check(*args)
        except CheckFailed as error:
            self.failed += 1
            print(f"check failed: {error}", file=sys.stderr)


def _setup(workload, variant):
    """A fresh replica group after its first (cache-filling) serve."""
    group = workload.make_group()
    return group, workload.serve(group, variant)


def _call(fn, *args):
    return fn(*args)


def _set_up_all(workload, timer: CalibratedTimer, tally: Tally,
                call=_call):
    """One warm group per variant, and the set-up time of each.

    ``call(fn, *args)`` makes each measured call (the ledger passes its
    ``measure``)."""
    groups, seconds = [], []
    for variant in workload.variants:
        (group, trace), elapsed = timer.time(call, _setup, workload, variant)
        groups.append(group)
        seconds.append(elapsed)
        tally.check(workload.check_serve, variant, trace)
    return groups, seconds


def _rotate(workload, groups, timer: CalibratedTimer, tally: Tally,
            serve_s: list, sweep_s: list, call=_call) -> int:
    """Serve then sweep each variant once, appending calibrated times;
    return the number of requests simulated."""
    simulated = 0
    for index, (variant, group) in enumerate(zip(workload.variants, groups)):
        trace, elapsed = timer.time(call, workload.serve, group, variant)
        serve_s[index].append(elapsed)
        tally.check(workload.check_serve, variant, trace)
        result, elapsed = timer.time(call, workload.sweep, variant)
        sweep_s[index].append(elapsed)
        tally.check(workload.check_sweep, variant, result)
        simulated += variant.num_requests + sum(row["num_requests"]
                                                for row in result.rows)
    return simulated


def measure(workload, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: ``{name: (value, unit)}``."""
    timer = CalibratedTimer()
    groups, setup = _set_up_all(workload, timer, tally)
    tally.check(workload.check_once)
    serve_s = [[] for _ in workload.variants]
    sweep_s = [[] for _ in workload.variants]
    deadline = perf_counter() + seconds
    rotations = 0
    while rotations < MIN_ROTATIONS or perf_counter() < deadline:
        _rotate(workload, groups, timer, tally, serve_s, sweep_s)
        rotations += 1
    host_us = [statistics.median(times) / variant.num_requests * 1e6
               for variant, times in zip(workload.variants, serve_s)]
    rows_per_s = [workload.sweep_rows / statistics.median(times)
                  for times in sweep_s]
    return {
        "host_us_per_request": (statistics.fmean(host_us), "us"),
        "sweep_rows_per_s": (statistics.fmean(rows_per_s), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure_layers(workload, tally: Tally) -> dict:
    """Per-layer metrics over a fixed amount of traced work: the set-ups
    and one rotation, under the ledger."""
    from ledger import LAYERS, Ledger

    variants = workload.variants
    timer = CalibratedTimer()
    groups, _ = _set_up_all(workload, timer, tally)
    untraced = [[] for _ in variants]
    _rotate(workload, groups, timer, tally, untraced, [[] for _ in variants])

    ledger = Ledger()
    ledger.install()
    first = len(timer.scales)
    try:
        groups, _ = _set_up_all(workload, timer, tally, ledger.measure)
        traced = [[] for _ in variants]
        requests = sum(variant.num_requests for variant in variants)
        requests += _rotate(workload, groups, timer, tally, traced,
                            [[] for _ in variants], ledger.measure)
    finally:
        ledger.uninstall()

    # Calibrate the ledger by the machine speed seen around the traced
    # calls.
    scale = statistics.median(timer.scales[first:])
    metrics = {f"{layer}_us_per_req":
               (ledger.self_s[layer] * scale / requests * 1e6, "us")
               for layer in LAYERS}
    for layer in ("epoch", "prefill"):
        calls = ledger.calls[layer]
        misses = ledger.misses.get(layer, 0)
        metrics[f"{layer}_cache_hit_rate"] = (
            (calls - misses) / calls if calls else 0.0, "ratio")
        metrics[f"{layer}_calls_per_req"] = (calls / requests, "count")
    metrics["tracing_overhead"] = (
        statistics.fmean(t[0] / u[0] for t, u in zip(traced, untraced)),
        "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        metrics = measure_layers(workload, tally)
    else:
        metrics = measure(workload, args.seconds, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
