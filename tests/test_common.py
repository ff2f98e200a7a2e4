"""Unit tests for repro._common utilities."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

from repro._common import (
    ConfigurationError,
    chunked,
    dtype_bytes,
    left_sum,
    log_softmax,
    round_half_up,
    rng,
    softmax,
    unique_preserving_order,
    validate_fraction,
    validate_positive,
)


class TestSoftmax:
    def test_sums_to_one(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        assert np.isclose(out.sum(), 1.0)

    def test_monotonic_in_logits(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        assert out[0] < out[1] < out[2]

    def test_stable_for_large_logits(self):
        out = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(out))
        assert np.isclose(out.sum(), 1.0)

    def test_axis_argument(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        out = softmax(x, axis=0)
        assert np.allclose(out.sum(axis=0), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.5, -1.0, 2.0])
        assert np.allclose(log_softmax(x), np.log(softmax(x)))


class TestDtypeBytes:
    @pytest.mark.parametrize("name,expected", [("fp32", 4), ("fp16", 2),
                                               ("int8", 1), ("int4", 0.5)])
    def test_known_dtypes(self, name, expected):
        assert dtype_bytes(name) == expected

    def test_unknown_dtype_raises(self):
        with pytest.raises(ConfigurationError):
            dtype_bytes("bf17")


class TestRounding:
    @pytest.mark.parametrize("value,expected", [(0.4, 0), (0.5, 1), (1.5, 2),
                                                (2.49, 2), (10.5, 11)])
    def test_round_half_up(self, value, expected):
        assert round_half_up(value) == expected


class TestValidators:
    def test_validate_positive_accepts_positive(self):
        validate_positive(a=1, b=0.5)

    @pytest.mark.parametrize("value", [0, -1, None])
    def test_validate_positive_rejects(self, value):
        with pytest.raises(ConfigurationError):
            validate_positive(x=value)

    def test_validate_fraction_accepts_bounds(self):
        validate_fraction(a=0.0, b=1.0, c=0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.1, None])
    def test_validate_fraction_rejects(self, value):
        with pytest.raises(ConfigurationError):
            validate_fraction(x=value)


class TestCollections:
    def test_unique_preserving_order(self):
        assert unique_preserving_order([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_chunked_splits_evenly(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_chunked_last_partial(self):
        assert chunked([1, 2, 3], 2) == [[1, 2], [3]]

    def test_chunked_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            chunked([1], 0)

    def test_rng_is_deterministic(self):
        assert rng(7).integers(0, 100, 5).tolist() == rng(7).integers(0, 100, 5).tolist()


SRC = Path(__file__).resolve().parent.parent / "src"

#: Every builtin ``sum(`` call in ``src``, as ``(file, enclosing scope)``
#: and how many such calls the scope makes.  Each adds ints only; a float
#: reduction goes through ``left_sum`` instead.
INT_SUMS = {
    ("repro/cluster/group.py", "ReplicaGroup.total_gpus"): 1,
    ("repro/cluster/group.py", "ReplicaGroup.serve"): 1,
    ("repro/cluster/trace.py", "describe_replicas"): 1,
    ("repro/cluster/trace.py", "_ReplicaView.tokens_imbalance"): 2,
    ("repro/model/attention.py", "MultiHeadAttention.num_parameters"): 1,
    ("repro/model/transformer.py", "TransformerModel.num_parameters"): 1,
    ("repro/serving/engine.py", "RunGauges.queue_depth"): 1,
    ("repro/serving/engine.py", "EngineRun._can_preempt"): 1,
    ("repro/systems/pricing.py", "PricingStore.stats"): 5,
    ("repro/workloads/sessions.py", "ClosedLoopSessions.__init__"): 1,
}


def sum_calls() -> dict:
    """``(file, scope) -> count`` of builtin ``sum(`` calls in ``src``."""
    found: dict = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                key = (path, ".".join(scope))
                found[key] = found.get(key, 0) + 1
            visit(child, path, scope)

    for file in sorted(SRC.rglob("*.py")):
        visit(ast.parse(file.read_text()), file.relative_to(SRC).as_posix(),
              [])
    return found


class TestLeftSum:
    @staticmethod
    def bits(value):
        return struct.pack("d", value)

    def test_adds_left_to_right(self):
        values = [1e16, 1.0, -1e16, 1.0]
        # Compensated summation (math.fsum, 3.12's sum) gives 2.0.
        assert left_sum(values) == ((1e16 + 1.0) - 1e16) + 1.0 == 1.0
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert self.bits(left_sum([0.1, 0.2], 0.3)) \
            == self.bits((0.3 + 0.1) + 0.2)

    def test_start_and_empty(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
        assert left_sum((), 2.5) == 2.5
        assert left_sum(iter([1, 2, 3])) == 6
        assert type(left_sum([1, 2])) is int

    def test_matches_plain_adds_on_random_floats(self):
        generator = rng(3)
        for _ in range(200):
            values = (generator.standard_normal(generator.integers(0, 30))
                      * 10.0 ** generator.integers(-8, 8)).tolist()
            total = 0
            for value in values:
                total = total + value
            assert self.bits(left_sum(values)) == self.bits(total)

    def test_only_listed_int_sums_in_src(self):
        # A new float sum() would add compensated on Python 3.12+ and
        # move the last digit between supported Pythons: use left_sum,
        # or list a sum of ints here.
        assert sum_calls() == INT_SUMS
