"""The layer boundaries perfbench's ledger wraps stay where it finds them.

``perfbench/ledger.py`` books each layer's time by patching the functions
at its boundaries by name, and it skips a name that no class defines
itself.  So a boundary renamed or moved in ``src`` would not fail the
benchmark: its time would silently land in the enclosing layer.  This
test pins every wrapped name that resolves, each on the class (or module)
that must define it in its own ``__dict__``.
"""

from pathlib import Path

import pytest

from repro.cluster.group import ReplicaGroup
from repro.cluster.router import Router
from repro.cluster.trace import ClusterTrace
from repro.experiments import serving as sweep_module
from repro.serving import events as events_module
from repro.serving.engine import ContinuousBatchingEngine, EngineRun
from repro.serving.sketches import StreamingTrace
from repro.serving.trace import ServingTrace

LEDGER = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.py"

#: ``(owner, names)`` for every wrapped boundary that resolves today.
BOUNDARIES = (
    (EngineRun, ("offer", "advance", "close", "_admit_priority",
                 "_cut_arrival", "check_admissible", "_apply_epoch",
                 "_apply_chunk")),
    (ContinuousBatchingEngine, ("kv_budget_tokens",
                                "kv_budget_tokens_for_bounds",
                                "_prefill_time", "_chunk_time",
                                "_price_epoch_fast", "__init__")),
    (Router, ("assign",)),
    (ReplicaGroup, ("estimate_service_time", "__init__")),
    (ServingTrace, ("observe", "summary", "goodput", "per_class_summary")),
    (ClusterTrace, ("observe",)),
    (StreamingTrace, ("observe",)),
    (events_module, ("drive",)),
    (sweep_module, ("_build_simulator", "_rate_requests")),
)

CASES = [(owner, name) for owner, names in BOUNDARIES for name in names]


@pytest.mark.parametrize(
    "owner,name", CASES,
    ids=[f"{owner.__name__}.{name}" for owner, name in CASES])
def test_boundary_defined_on_its_owner(owner, name):
    assert name in vars(owner), (
        f"{owner.__name__}.{name} is wrapped by perfbench/ledger.py; rename "
        "it there too, or its time moves into another layer")


@pytest.mark.parametrize("name", sorted({name for _, name in CASES}))
def test_boundary_named_in_ledger(name):
    # The pinned list follows the ledger: a name it stops wrapping must
    # leave this test too.
    assert f'"{name}"' in LEDGER.read_text()
