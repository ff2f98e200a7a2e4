"""Bit-level fingerprint of the serving layer's observable outputs.

Serves a fixed matrix of small configurations and compares everything a
serve produces — the event journal, every record, the metadata (minus
``wall_clock_s``) and the summary — plus the rows and column order of
nine ``serving_rate_sweep`` configurations and the priced decode epochs
of every simulator against a committed fixture::

    PYTHONPATH=src python tools/fingerprint.py --check
    PYTHONPATH=src python tools/fingerprint.py --regenerate

The fixture stores values, not hashes: floats as their ``repr``, so a
mismatch prints the case and the field that moved with both values.
There is no tolerance — a refactor of the serving core must reproduce
every value exactly.

The serve matrix crosses system (vLLM, FlexGen, ALISA), serve layer
(engine, ``2x(none)`` group with round-robin and with JSQ routing),
source kind (sorted list, ``RequestStream``, closed-loop sessions) and
faults (none, ``crash``, ``drain``; retry and shedding on, never with the
closed-loop source, which rejects faults).  Each cell runs four engine
variants, a half fraction of preemption (none / ``retain``) x chunked
prefill (off / 128 tokens) x record mode (full / streaming) in which
every pair of values appears.

The epoch section prices ``epoch_timings`` for every system of the epoch
pricing tests x ``none``/``tp-2``/``pp-2`` x fp16/int8 KV over a fixed
list of short shapes, plus the two shapes around each system's GPU KV
budget (``s + n == budget`` and ``budget + 1``).  Each combination gets
a fresh system whose shapes are prepared in a fixed order, because
ALISA's warm-started schedules depend on what it solved before; ALISA's
chosen schedule and its estimate are recorded with the epoch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.baselines import (  # noqa: E402
    AccelerateSystem,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    GPUOnlySystem,
    VLLMSystem,
)
from repro.cluster import ReplicaGroup  # noqa: E402
from repro.core.engine import AlisaSystem  # noqa: E402
from repro.core.scheduler import SchedulerConfig  # noqa: E402
from repro.experiments.serving import serving_rate_sweep  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultEvent,
    FaultSchedule,
    LoadShedder,
    RetryPolicy,
)
from repro.hardware.presets import V100_16GB_NODE, multi_gpu  # noqa: E402
from repro.obs import Observer, SpanTracer  # noqa: E402
from repro.serving import ContinuousBatchingEngine  # noqa: E402
from repro.systems.cost import ParallelismSpec  # noqa: E402
from repro.systems.simulator import EpochTimings  # noqa: E402
from repro.workloads.arrivals import (  # noqa: E402
    RequestStream,
    generate_requests,
)
from repro.workloads.descriptors import Workload  # noqa: E402
from repro.workloads.sessions import sessions  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "serving_fingerprint.json"
MODEL = "opt-6.7b"
NUM_REQUESTS = 20
CLASS_SLOS = {"interactive": (2.0, 0.1), "batch": (20.0, 0.5)}

SYSTEMS = {
    "vllm": lambda node, parallelism: VLLMSystem(
        MODEL, node, parallelism=parallelism),
    "flexgen": lambda node, parallelism: FlexGenSystem(
        MODEL, node, parallelism=parallelism),
    "alisa": lambda node, parallelism: AlisaSystem(
        MODEL, node, kv_sparsity=0.8, parallelism=parallelism),
}
LAYERS = ("engine", "group-round-robin", "group-jsq")
SOURCES = ("list", "stream", "sessions")
FAULTS = ("none", "crash", "drain")
#: ``(preemption, prefill_chunk_tokens, record_mode)``: a half fraction of
#: the 2x2x2 design, so every pair of the three factors' values is served.
VARIANTS = (
    (None, None, "full"),
    ("retain", None, "streaming"),
    (None, 128, "streaming"),
    ("retain", 128, "full"),
)


class _Journal(Observer):
    """Collects the driver's ``(time, kind, replica)`` event stream."""

    def __init__(self) -> None:
        self.events: list = []

    def on_event(self, time, kind, replica):
        self.events.append((time, kind, replica))


def _list_source() -> list:
    """Bursty ShareGPT-length arrivals with every third one interactive,
    so ``retain`` preemption has batch work to evict."""
    requests = generate_requests(NUM_REQUESTS, 4.0, pattern="bursty",
                                 seed=3, max_len=512)
    return [dataclasses.replace(
        request, slo_class="interactive" if index % 3 == 0 else "batch")
        for index, request in enumerate(requests)]


def _source(kind: str):
    if kind == "list":
        return _list_source()
    if kind == "stream":
        return RequestStream(NUM_REQUESTS, rate=4.0, pattern="bursty",
                             seed=5, max_len=512)
    return sessions(6, rate=1.5, seed=7, mean_turns=3.0, mean_think_s=1.0,
                    interactive_fraction=0.5).closed_loop()


def _faults(kind: str, layer: str) -> dict:
    if kind == "none":
        return {}
    events = [FaultEvent(0, 1.0, 2.0, mode=kind)]
    if layer != "engine":
        events.append(FaultEvent(1, 2.5, 3.5, mode=kind))
    return {"faults": FaultSchedule(events),
            "retry": RetryPolicy(max_retries=2, backoff_s=0.05),
            "shedding": LoadShedder()}


def _serve(system: str, layer: str, source: str, faults: str,
           preemption, chunk, record_mode: str):
    engine_kwargs = {"preemption": preemption,
                     "prefill_chunk_tokens": chunk}
    if preemption is not None:
        # Preemption only fires under contention.
        engine_kwargs["max_batch_size"] = 4
    serve_kwargs = dict(record_mode=record_mode, class_slos=CLASS_SLOS,
                        **_faults(faults, layer))
    if layer == "engine":
        journal = _Journal()
        engine = ContinuousBatchingEngine(
            SYSTEMS[system](V100_16GB_NODE, None), **engine_kwargs)
        trace = engine.serve(_source(source), observers=[journal],
                             **serve_kwargs)
        return journal.events, trace
    events: list = []
    group = ReplicaGroup.from_layout(
        SYSTEMS[system], "2x(none)", V100_16GB_NODE,
        policy=layer.removeprefix("group-"), seed=3, **engine_kwargs)
    trace = group.serve(_source(source), event_journal=events,
                        **serve_kwargs)
    return events, trace


def _serve_case(*args) -> dict:
    try:
        events, trace = _serve(*args)
    except Exception as error:  # an error is an observable outcome too
        return {"error": f"{type(error).__name__}: {error}"}
    case = {
        "journal": [f"{time!r} {kind} {index}"
                    for time, kind, index in events],
        "metadata": trace.metadata,
        "summary": trace.summary(),
    }
    records = getattr(trace, "records", None)
    if records is not None:
        fields = [field.name for field in dataclasses.fields(records[0])] \
            if records else []
        case["record_fields"] = fields
        case["records"] = [[getattr(record, name) for name in fields]
                           for record in records]
    return case


class _FirstTurns:
    """A session workload cut to its first ``count`` turns at every rate."""

    def __init__(self, spec, count: int) -> None:
        self.spec = spec
        self.count = count

    def with_rate(self, rate: float) -> "_FirstTurns":
        return _FirstTurns(self.spec.with_rate(rate), self.count)

    def requests(self) -> list:
        return self.spec.requests()[:self.count]


def _sweeps() -> dict:
    """The ``serving_rate_sweep`` configurations of the host-cost
    benchmark's three workloads (``perfbench/bench_workloads.py``, all on
    the cluster axis), on one seed; a bursty JSQ sweep over ``1x(none)``
    and ``2x(none)``, whose equal-signature engines in different groups
    price the same shapes; and five on the parallelism axis:
    span-traced SLO classes over ``none``/``tp-2``/``pp-2``, sessions
    with ``retain`` preemption and chunked prefill in streaming mode,
    a crash outage with retries and shedding, closed-loop sessions with
    SLO classes, and streaming sessions with SLO classes."""
    seed = 100
    retry = RetryPolicy(max_retries=4, backoff_s=0.05)
    outages = FaultSchedule([
        FaultEvent(1, 0.20 * 6.0, 0.35 * 6.0, mode="crash"),
        FaultEvent(0, 0.60 * 6.0, 0.70 * 6.0, mode="crash"),
    ])
    configs = {
        "stream": dict(
            rates=(8.0, 16.0), num_requests=40, input_len=128,
            output_len=64, seed=seed, record_mode="streaming",
            cluster=("2x(none)",), routing="round-robin"),
        "sessions": dict(
            rates=(2.0, 4.0), seed=seed, cluster=("2x(none)",),
            routing=("jsq", "session-affinity"), slo_classes=CLASS_SLOS,
            workload=_FirstTurns(sessions(40, seed=seed,
                                          interactive_fraction=0.5), 24),
            preemption="retain", prefill_chunk_tokens=256),
        "faults": dict(
            rates=(4.0, 8.0), num_requests=48, pattern="bursty",
            input_len=None, output_len=None, seed=seed,
            cluster=("2x(none)",), routing="jsq", faults=outages,
            retry=retry, slo_classes=CLASS_SLOS,
            observers=lambda: [SpanTracer()]),
        "mixed-replicas": dict(
            rates=(8.0, 64.0), num_requests=24, pattern="bursty",
            input_len=None, output_len=None, seed=3,
            cluster=("1x(none)", "2x(none)"), require_equal_gpus=False,
            routing="jsq"),
        "parallelism-spans": dict(
            rates=(4.0, 16.0), num_requests=16, pattern="bursty",
            input_len=None, output_len=None, seed=seed,
            parallelism=("none", "tp-2", "pp-2"), slo_classes=CLASS_SLOS,
            observers=lambda: [SpanTracer()]),
        "parallelism-sessions": dict(
            rates=(4.0,), seed=seed, parallelism=("none", "tp-2"),
            workload=sessions(24, seed=seed, interactive_fraction=0.5),
            preemption="retain", prefill_chunk_tokens=128,
            record_mode="streaming"),
        "parallelism-faults": dict(
            rates=(8.0,), num_requests=24, pattern="bursty", seed=seed,
            parallelism=("none", "tp-2"),
            faults=FaultSchedule([FaultEvent(0, 0.5, 1.5, mode="crash")]),
            retry=RetryPolicy(max_retries=2, backoff_s=0.05),
            shedding=LoadShedder()),
        "parallelism-closed-loop": dict(
            rates=(2.0,), seed=seed, parallelism=("none", "tp-2"),
            workload=sessions(16, seed=seed, interactive_fraction=0.5),
            closed_loop=True, slo_classes=CLASS_SLOS),
        "parallelism-streaming-classes": dict(
            rates=(4.0, 16.0), seed=seed, parallelism=("none", "tp-2"),
            workload=sessions(16, seed=seed, interactive_fraction=0.5),
            record_mode="streaming", slo_classes=CLASS_SLOS),
    }
    sweeps = {}
    for name, kwargs in configs.items():
        rows = serving_rate_sweep(model=MODEL, **kwargs).rows
        # Column order is part of a row: ``diff`` walks dict keys sorted.
        sweeps[f"sweep/{name}"] = {"columns": list(rows[0]), "rows": rows}
    return sweeps


#: The systems of the epoch pricing tests (``SYSTEM_BUILDERS`` in
#: ``tests/test_epoch_pricing.py``), built the same way.
EPOCH_SYSTEMS = {
    "gpu-only": lambda hw, **kw: GPUOnlySystem(MODEL, hw, **kw),
    "accelerate": lambda hw, **kw: AccelerateSystem(MODEL, hw, **kw),
    "deepspeed-zero": lambda hw, **kw: DeepSpeedZeroSystem(MODEL, hw, **kw),
    "flexgen": lambda hw, **kw: FlexGenSystem(MODEL, hw, **kw),
    "vllm": lambda hw, **kw: VLLMSystem(MODEL, hw, **kw),
    "alisa": lambda hw, **kw: AlisaSystem(MODEL, hw, kv_sparsity=0.8, **kw),
    "alisa-static": lambda hw, **kw: AlisaSystem(
        MODEL, hw, kv_sparsity=0.8, use_dynamic_scheduling=False, **kw),
    "alisa-recompute": lambda hw, **kw: AlisaSystem(
        MODEL, hw, kv_sparsity=0.8,
        scheduler_config=SchedulerConfig(0.7, 0.4, 0, 5), **kw),
}
EPOCH_SHARDS = {
    "none": (1, None),
    "tp-2": (2, ParallelismSpec("tp", 2)),
    "pp-2": (2, ParallelismSpec("pp", 2)),
}
#: ``(batch, input_len, output_len)``, priced in this order: two epochs
#: that fit on the GPU, then, at batch 64 on one V100, one that overflows
#: it during decode and one whose prompt already overflows it.
EPOCH_SHAPES = ((1, 16, 8), (8, 300, 12), (64, 60, 20), (64, 200, 6))
#: Batch size and decode steps of the two shapes around the GPU budget.
BUDGET_BATCH, BUDGET_STEPS = 32, 8


def budget_shapes(system) -> list[tuple[int, int, int]]:
    """``(b, s, n)`` with ``s + n`` equal to the system's GPU KV budget,
    then the same with one more decode step: the longest epoch that fits
    on the GPU and the shortest that does not, for the longest prompt
    that leaves at least :data:`BUDGET_STEPS` steps of room."""
    def room(prompt: int) -> int:
        return system.gpu_kv_budget_tokens(BUDGET_BATCH, prompt) - prompt

    # The budget never grows with the prompt, so the room falls by at
    # least one token per prompt token: bisect for the longest prompt.
    low, high = 1, room(1) + 1
    while high - low > 1:
        middle = (low + high) // 2
        if room(middle) >= BUDGET_STEPS:
            low = middle
        else:
            high = middle
    steps = room(low)
    return [(BUDGET_BATCH, low, steps), (BUDGET_BATCH, low, steps + 1)]


def runs(values) -> list[str]:
    """One string per run of equal consecutive values: the value's
    :func:`canonical` form, then ``*count`` when it repeats."""
    result: list = []
    for text in map(str, map(canonical, values)):
        if result and result[-1][0] == text:
            result[-1][1] += 1
        else:
            result.append([text, 1])
    return [text + (f"*{count}" if count > 1 else "")
            for text, count in result]


def _epoch_timings(system, shape: tuple[int, int, int]) -> dict:
    """Every field of the shape's priced epoch (the sequence lengths are
    the shape's), with ALISA's schedule when it solved one.  Per-step
    values are stored as :func:`runs`: most stay constant for a phase."""
    workload = Workload(*shape, "fingerprint")
    system.prepare(workload)
    system.plan_prefill(workload)
    timings = system.epoch_timings(workload)
    case = {}
    for name in EpochTimings.FIELDS:
        if name == "sequence_lengths":
            continue
        value = getattr(timings, name)
        if name == "phases":
            value = runs(value)
        elif isinstance(value, np.ndarray):
            value = runs(value.tolist())
        case[name] = value
    solution = getattr(system, "schedule_solution", None)
    if solution is not None:
        case["schedule"] = {"config": solution.config,
                            "estimated_time": solution.estimated_time,
                            "gpu_budget_tokens": solution.gpu_budget_tokens}
    return case


def _epochs() -> dict:
    """Priced decode epochs of every system x shard shape x KV dtype."""
    result = {}
    for system in EPOCH_SYSTEMS:
        for shard, (gpu_count, parallelism) in EPOCH_SHARDS.items():
            hardware = multi_gpu(V100_16GB_NODE, gpu_count)
            kwargs = {} if parallelism is None \
                else {"parallelism": parallelism}
            for kv_dtype in ("fp16", "int8"):
                simulator = EPOCH_SYSTEMS[system](hardware, kv_dtype=kv_dtype,
                                                  **kwargs)
                shapes = list(EPOCH_SHAPES) + budget_shapes(simulator)
                result[f"epoch_timings/{system}/{shard}/{kv_dtype}"] = {
                    "x".join(map(str, shape)): _epoch_timings(simulator,
                                                              shape)
                    for shape in shapes}
    return result


def cases() -> dict:
    """Every fingerprinted case, keyed by a readable name."""
    result = {}
    for system in SYSTEMS:
        for layer in LAYERS:
            for source in SOURCES:
                for faults in FAULTS:
                    if source == "sessions" and faults != "none":
                        continue
                    for preemption, chunk, mode in VARIANTS:
                        name = "/".join((
                            system, layer, source, f"faults-{faults}",
                            f"preemption-{preemption or 'none'}",
                            f"chunk-{chunk or 'off'}", mode))
                        result[name] = _serve_case(
                            system, layer, source, faults, preemption,
                            chunk, mode)
    result.update(_sweeps())
    result.update(_epochs())
    return canonical(result)


def canonical(value):
    """JSON-safe copy of ``value`` with every float as its ``repr``."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()
                if key != "wall_clock_s"}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if dataclasses.is_dataclass(value):
        return canonical(dataclasses.asdict(value))
    raise TypeError(f"cannot fingerprint {type(value).__name__}: {value!r}")


def diff(expected, actual, path: str = "") -> list[str]:
    """Every path at which ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}/{key}" if path else key
            if key not in actual:
                found.append(f"{where}: missing")
            elif key not in expected:
                found.append(f"{where}: unexpected")
            else:
                found.extend(diff(expected[key], actual[key], where))
        return found
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        found = []
        for index, (old, new) in enumerate(zip(expected, actual)):
            found.extend(diff(old, new, f"{path}[{index}]"))
        return found
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def name_record_fields(fixture: dict, line: str) -> str:
    """Replace ``records[i][j]`` in a diff line by the field's name."""
    case, _, rest = line.partition("/records[")
    fields = fixture.get(case, {}).get("record_fields")
    if not rest or not fields:
        return line
    row, _, rest = rest.partition("][")
    column, _, rest = rest.partition("]")
    if not column.isdigit() or int(column) >= len(fields):
        return line
    return f"{case}/records[{row}].{fields[int(column)]}{rest}"


def dumps(value, indent: str = "") -> str:
    """JSON with one line per leaf list (a record row or a journal
    event), so the fixture diffs line by line but stays compact."""
    inner = indent + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(key)}: {dumps(item, inner)}"
                 for key, item in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list) and any(isinstance(item, (dict, list))
                                       for item in value):
        items = [inner + dumps(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def field_name(line: str) -> str:
    """The field a diff line names: the last path step, without indices
    (``case/records[3].ttft: ...`` -> ``ttft``)."""
    step = line.partition(": ")[0].rpartition("/")[2]
    return step.rpartition("].")[2].partition("[")[0]


def check() -> list[str]:
    """Differences between a fresh run and the committed fixture."""
    fixture = json.loads(FIXTURE.read_text())
    return [name_record_fields(fixture, line)
            for line in diff(fixture, cases())]


#: Top-level sections of the fingerprint, in report order: every key that
#: does not start with one of the others is a serve case.
SECTIONS = ("serve cases", "sweep", "epoch_timings")


def section(line: str) -> str:
    """The top-level section a diff line falls in."""
    head = line.partition("/")[0]
    return head if head in SECTIONS[1:] else SECTIONS[0]


def report(differences: list[str], limit: int = 40) -> list[str]:
    """The first ``limit`` differences, a count of the rest, then every
    difference tallied by top-level section (all sections, in
    :data:`SECTIONS` order) and by field name (most frequent first)."""
    if not differences:
        return []
    shown, rest = differences[:limit], differences[limit:]
    lines = list(shown)
    if rest:
        lines.append(f"... {len(rest)} more")
    sections = Counter(section(line) for line in differences)
    lines.append("by section: " + ", ".join(
        f"{name} {sections[name]}" for name in SECTIONS))
    fields = Counter(field_name(line) for line in differences)
    lines.append("by field: " + ", ".join(
        f"{name} {count}" for name, count in fields.most_common()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="compare a fresh run against the fixture")
    action.add_argument("--regenerate", action="store_true",
                        help="rewrite the fixture from a fresh run")
    args = parser.parse_args(argv)
    if args.regenerate:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(dumps(cases()) + "\n")
        print(f"wrote {FIXTURE.relative_to(ROOT)}")
        return 0
    differences = check()
    if differences:
        print(f"fingerprint differs from {FIXTURE.relative_to(ROOT)}:")
        for line in report(differences):
            print(f"  {line}")
        return 1
    print("fingerprint matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
