"""System-level substrates: memory devices, PCIe link, cost model, pricing
memos, traces."""

from repro.systems.cost import (
    AttentionBreakdown,
    LLMCostModel,
    OpCost,
    ParallelismSpec,
)
from repro.systems.memory import MemoryDevice, MemoryHierarchy, PCIeLink
from repro.systems.pricing import PricingStore
from repro.systems.trace import InferenceTrace, StepTiming

__all__ = [
    "AttentionBreakdown",
    "InferenceTrace",
    "LLMCostModel",
    "MemoryDevice",
    "MemoryHierarchy",
    "OpCost",
    "ParallelismSpec",
    "PCIeLink",
    "PricingStore",
    "StepTiming",
]
