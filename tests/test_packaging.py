"""The package metadata in ``pyproject.toml``.

``setup.py`` defers every field to ``pyproject.toml``, which holds only
the ``[project]`` table: tool configuration stays in ``pytest.ini`` and
``ruff.toml``.
"""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_holds_only_project_metadata():
    metadata = tomllib.loads(PYPROJECT.read_text())
    assert list(metadata) == ["project"]
    assert metadata["project"] == {
        "name": "repro",
        "version": repro.__version__,
        "requires-python": ">=3.10",
        "dependencies": ["numpy"],
    }
