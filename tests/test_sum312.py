"""One result on every supported Python: the bit-identity gates under 3.12's
``sum()``.

``tests/sum312/sitecustomize.py`` gives the interpreter the compensated
float ``sum()`` of Python 3.12+.  These tests check that shim against hand
cases where 3.11 and 3.12 differ (and against the real builtin when the
suite runs on 3.12+), then run ``tools/fingerprint.py --check`` and the
solver golden pins in a subprocess with the shim on ``PYTHONPATH``: a
float reduction that relies on ``sum()`` adding left to right fails here
on any Python, not only in the 3.12 CI cell.
"""

import builtins
import importlib.util
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SHIM_DIR = ROOT / "tests" / "sum312"
#: Interpreters whose builtin ``sum()`` was compared with the shim: the
#: first two add left to right, the last two as the shim does.
MATCHED = ((3, 10), (3, 11), (3, 12), (3, 13))
#: False when the whole suite runs under the shim.
REAL_SUM = isinstance(builtins.sum, type(len))


@pytest.fixture(scope="module")
def sum312():
    """The shim's ``sum``, loaded without leaving ``builtins.sum``
    replaced in this process."""
    spec = importlib.util.spec_from_file_location(
        "sum312_shim", SHIM_DIR / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    builtin = builtins.sum
    try:
        spec.loader.exec_module(module)
    finally:
        builtins.sum = builtin
    return module.sum


def bits(value):
    return struct.pack("d", value) if isinstance(value, float) else value


@pytest.mark.parametrize("values,start,py312,py311", [
    ([0.1] * 10, 0, 1.0, 0.9999999999999999),
    ([1e100, 1.0, -1e100], 0, 1.0, 0.0),
    ([1e16, 1.0, 1.0], 0, 1.0000000000000002e16, 1e16),
    ([0.1, 0.2, 0.3], 0.0, 0.6, 0.6000000000000001),
    # Ints met on the float path are added without compensation.
    ([1e16, 1, 1], 0, 1e16, 1e16),
    ([2 ** 63, 1], 0, 2 ** 63 + 1, 2 ** 63 + 1),
    ([], -0.0, -0.0, -0.0),
])
def test_shim_matches_python_312_on_hand_cases(sum312, values, start,
                                               py312, py311):
    assert bits(sum312(values, start)) == bits(py312)
    if REAL_SUM and sys.version_info[:2] in MATCHED:
        builtin = py312 if sys.version_info >= (3, 12) else py311
        assert bits(sum(values, start)) == bits(builtin)


def test_shim_rejects_strings_like_the_builtin(sum312):
    with pytest.raises(TypeError, match="can't sum strings"):
        sum312(["a"], "")


@pytest.mark.skipif(not REAL_SUM or sys.version_info[:2] not in MATCHED[2:],
                    reason="needs the real 3.12/3.13 sum() to compare against")
def test_shim_matches_the_builtin_on_random_lists(sum312):
    rng = random.Random(0)
    pool = [0.1, 1e16, -1e16, 1e-16, -0.0, 2 ** 53 + 1, 2 ** 63, True, 3]
    for _ in range(2_000):
        values = [rng.choice(pool) if rng.random() < 0.3
                  else rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-8, 8)
                  for _ in range(rng.randint(0, 12))]
        start = rng.choice([0, 0.0, 2 ** 63])
        assert bits(sum312(values, start)) == bits(sum(values, start))


def run_with_shim(*args: str) -> subprocess.CompletedProcess:
    path = [str(SHIM_DIR), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_shim_is_installed_in_a_subprocess():
    result = run_with_shim("-c", "print(repr(sum([0.1] * 10)))")
    assert result.stdout.strip() == "1.0", result.stderr


def test_fingerprint_matches_under_python_312_sum():
    result = run_with_shim("tools/fingerprint.py", "--check")
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr
    assert "fingerprint matches" in result.stdout


def test_solver_golden_pins_hold_under_python_312_sum():
    result = run_with_shim(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "tests/test_schedule_cache.py",
        "-k", "SolverGoldenPin or BatchedObjective or Phase1OnlySolve")
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr
