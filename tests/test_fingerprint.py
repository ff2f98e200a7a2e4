"""Tests for tools/fingerprint.py (the committed serving fingerprint).

The check serves the whole fingerprint matrix and compares every journal
event, record field, metadata value and sweep row with the committed
fixture exactly — a change of one float anywhere fails it and names the
field.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
sys.modules["fingerprint"] = fingerprint
spec.loader.exec_module(fingerprint)


def test_serving_matches_committed_fingerprint():
    differences = fingerprint.check()
    assert differences == [], "\n".join(differences)


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
