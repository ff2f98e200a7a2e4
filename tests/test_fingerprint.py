"""Tests for tools/fingerprint.py (the committed serving fingerprint).

The check serves the whole fingerprint matrix and compares every journal
event, record field, metadata value, sweep row and priced decode epoch
with the committed fixture exactly — a change of one float anywhere fails it and names the
field.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
sys.modules["fingerprint"] = fingerprint
spec.loader.exec_module(fingerprint)


def test_serving_matches_committed_fingerprint():
    differences = fingerprint.check()
    assert differences == [], "\n".join(fingerprint.report(differences))


def test_diff_names_the_field_that_moved():
    fixture = {"case": {"record_fields": ["request_id", "completion_time"],
                        "records": [[0, "1.5"], [1, "2.5"]],
                        "metadata": {"num_epochs": 3}}}
    moved = {"case": {"record_fields": ["request_id", "completion_time"],
                      "records": [[0, "1.5"], [1, "2.5000000000000004"]],
                      "metadata": {"num_epochs": 4}}}
    lines = [fingerprint.name_record_fields(fixture, line)
             for line in fingerprint.diff(fixture, moved)]
    assert lines == [
        "case/metadata/num_epochs: expected 3, got 4",
        "case/records[1].completion_time: expected '2.5', "
        "got '2.5000000000000004'",
    ]


def test_canonical_drops_wall_clock_and_keeps_float_reprs():
    value = {"wall_clock_s": 0.25, "nested": {"wall_clock_s": 1.0,
                                              "x": 0.1 + 0.2}}
    assert fingerprint.canonical(value) == {
        "nested": {"x": "0.30000000000000004"}}


def test_check_counts_what_it_cuts_off(tmp_path, monkeypatch, capsys):
    # Move one field in every case that has it: more differences than
    # --check lists, so the rest are counted, and all of them are
    # tallied by section and by field name.
    fixture = json.loads(fingerprint.FIXTURE.read_text())
    mutated = copy.deepcopy(fixture)
    moved = 0
    for case in mutated.values():
        scheduler = case.get("metadata", {}).get("scheduler")
        if scheduler is not None:
            scheduler["warm_solves"] += 1
            moved += 1
    assert moved > 40
    (tmp_path / "fixture.json").write_text(json.dumps(mutated))
    monkeypatch.setattr(fingerprint, "ROOT", tmp_path)
    monkeypatch.setattr(fingerprint, "FIXTURE", tmp_path / "fixture.json")
    monkeypatch.setattr(fingerprint, "cases", lambda: fixture)
    assert fingerprint.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fingerprint differs from fixture.json:"
    assert len(lines) == 1 + 40 + 3
    assert all("/metadata/scheduler/warm_solves: expected " in line
               for line in lines[1:41])
    assert lines[-3:] == [
        f"  ... {moved - 40} more",
        f"  by section: serve cases {moved}, sweep 0, epoch_timings 0",
        f"  by field: warm_solves {moved}",
    ]

    monkeypatch.setattr(fingerprint, "cases", lambda: mutated)
    assert fingerprint.main(["--check"]) == 0
    assert capsys.readouterr().out == "fingerprint matches\n"


def test_report_tallies_field_names():
    lines = ["a/records[3].ttft: expected '1.0', got '2.0'",
             "b/records[0].ttft: expected '1.0', got '2.0'",
             "b/journal[7]: expected 'x', got 'y'",
             "sweep/s/rows[1]/solver_exact_hits: expected 1, got 2",
             "c/metadata/p/50.0: missing"]
    tally = ["by section: serve cases 4, sweep 1, epoch_timings 0",
             "by field: ttft 2, journal 1, solver_exact_hits 1, 50.0 1"]
    assert fingerprint.report(lines, limit=5) == lines + tally
    assert fingerprint.report(lines, limit=1) \
        == lines[:1] + ["... 4 more"] + tally
    assert fingerprint.report(lines, limit=0) == ["... 5 more"] + tally
    assert fingerprint.report([]) == []


def test_report_tallies_every_section():
    lines = ["epoch_timings/alisa/none/fp16/1x16x8/total_times: "
             "expected ['1.0'], got ['2.0']",
             "sweep/faults/rows[5]/throughput: expected '1.0', got '2.0'",
             "sweep/faults/rows[5]/solver_warm_solves: expected 1, got 0",
             "alisa/engine/list/faults-none/preemption-none/chunk-off/full"
             "/metadata/scheduler/warm_solves: expected 2, got 1"]
    assert [fingerprint.section(line) for line in lines] \
        == ["epoch_timings", "sweep", "sweep", "serve cases"]
    assert fingerprint.report(lines, limit=0)[1:] == [
        "by section: serve cases 1, sweep 2, epoch_timings 1",
        "by field: total_times 1, throughput 1, solver_warm_solves 1, "
        "warm_solves 1"]


def test_runs_keep_every_bit():
    assert fingerprint.runs([0.0, 0.0, -0.0, 1.5, 3, 3, "a"]) \
        == ["0.0*2", "-0.0", "1.5", "3*2", "a"]
    assert fingerprint.runs([]) == []


def test_epoch_section_builds_the_epoch_pricing_systems():
    from repro.hardware.presets import V100_16GB_NODE, multi_gpu
    from test_epoch_pricing import SHARD_SHAPES, SYSTEM_BUILDERS, build_system

    assert list(fingerprint.EPOCH_SYSTEMS) == list(SYSTEM_BUILDERS)
    assert list(fingerprint.EPOCH_SHARDS) == list(SHARD_SHAPES)
    for name, build in fingerprint.EPOCH_SYSTEMS.items():
        for shard, (gpu_count, parallelism) in \
                fingerprint.EPOCH_SHARDS.items():
            kwargs = {} if parallelism is None \
                else {"parallelism": parallelism}
            ours = build(multi_gpu(V100_16GB_NODE, gpu_count),
                         kv_dtype="int8", **kwargs)
            theirs = build_system(name, shard, kv_dtype="int8")
            assert ours.pricing_signature() == theirs.pricing_signature()


def test_budget_shapes_straddle_the_gpu_budget():
    from repro.workloads.descriptors import Workload
    from test_epoch_pricing import SHARD_SHAPES, build_system

    for shard in SHARD_SHAPES:
        for kv_dtype in ("fp16", "int8"):
            system = build_system("alisa", shard, kv_dtype=kv_dtype)
            fits, overflows = fingerprint.budget_shapes(system)
            batch, prompt, steps = fits
            budget = system.gpu_kv_budget_tokens(
                Workload(batch, prompt, steps, "budget"))
            assert prompt + steps == budget
            assert steps >= fingerprint.BUDGET_STEPS
            assert overflows == (batch, prompt, steps + 1)
            # The longest prompt: one more token leaves too little room.
            assert system.gpu_kv_budget_tokens(
                Workload(batch, prompt + 1, 1, "budget")) - (prompt + 1) \
                < fingerprint.BUDGET_STEPS
