"""One KV-capacity rule: ``LLMCostModel.kv_budget_tokens`` sizes every
KV budget.

The rule must equal a frozen copy of the arithmetic it replaced (the
offline scheduler's capacity constraint and the simulators' admission
budget, both at the old 5% head-room), for every simulator, shard shape,
KV dtype and weight placement, and ALISA's solved schedule must carry
the same budget its simulator reports for that shape.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._common import dtype_bytes
from repro.core.optimizer import SchedulerOptimizer
from repro.core.schedule_cache import SchedulePolicy
from repro.core.swa import SWAConfig
from repro.workloads.descriptors import Workload
from test_epoch_pricing import SHARD_SHAPES, SYSTEM_BUILDERS, build_system


def frozen_capacity(cost, batch_size, input_len, weights_on_gpu):
    """Node GPU bytes left for KV tensors, as the old
    ``kv_budget_bytes`` computed them at ``reserve_fraction=0.05``."""
    gpu_count = cost.hardware.gpu_count
    capacity = cost.hardware.gpu.memory_bytes * gpu_count * (1.0 - 0.05)
    if weights_on_gpu:
        capacity -= cost.weight_bytes()
    hidden = cost.config.hidden_size
    activations = 4.0 * batch_size * input_len * hidden * cost.bytes_per_element
    return capacity - gpu_count * activations


def frozen_per_token(cost, batch_size, kv_dtype):
    return (2.0 * dtype_bytes(kv_dtype) * cost.config.num_layers
            * cost.config.hidden_size * batch_size)


def frozen_simulator_budget(cost, batch_size, input_len, kv_dtype,
                            weights_on_gpu):
    """The old ``InferenceSimulator._kv_budget_tokens``."""
    capacity = frozen_capacity(cost, batch_size, input_len, weights_on_gpu)
    per_token = frozen_per_token(cost, batch_size, kv_dtype)
    return max(1, int(capacity // per_token)) if capacity > 0 else 1


def frozen_optimizer_budget(cost, batch_size, input_len, kv_dtype,
                            weights_on_gpu):
    """The old ``repro.core.optimizer.gpu_kv_budget_tokens``."""
    capacity = max(0.0, frozen_capacity(cost, batch_size, input_len,
                                        weights_on_gpu))
    per_token = frozen_per_token(cost, batch_size, kv_dtype)
    return max(1, int(capacity // per_token))


@settings(max_examples=150, deadline=None)
@given(
    system=st.sampled_from(sorted(SYSTEM_BUILDERS)),
    shard=st.sampled_from(sorted(SHARD_SHAPES)),
    kv_dtype=st.sampled_from(["fp16", "int8"]),
    weights_on_gpu=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=128),
    input_len=st.integers(min_value=1, max_value=8192),
)
# Weights and activations alone overflow one V100: the budget is 1.
@example(system="vllm", shard="none", kv_dtype="fp16", weights_on_gpu=True,
         batch_size=128, input_len=8192)
# Capacity positive but below one token of KV.
@example(system="flexgen", shard="none", kv_dtype="fp16",
         weights_on_gpu=True, batch_size=10, input_len=7949)
def test_rule_equals_the_frozen_arithmetic(system, shard, kv_dtype,
                                           weights_on_gpu, batch_size,
                                           input_len):
    simulator = build_system(system, shard, kv_dtype=kv_dtype,
                             weights_on_gpu=weights_on_gpu)
    cost = simulator.cost_model
    budget = cost.kv_budget_tokens(batch_size, input_len, kv_dtype,
                                   weights_on_gpu)
    assert budget == frozen_simulator_budget(
        cost, batch_size, input_len, kv_dtype, weights_on_gpu)
    assert budget == frozen_optimizer_budget(
        cost, batch_size, input_len, kv_dtype, weights_on_gpu)
    assert simulator.gpu_kv_budget_tokens(batch_size, input_len) == budget


def test_examples_reach_a_budget_of_one(opt_cost_model):
    # The explicit examples above reach a non-positive capacity and a
    # positive one below a token's bytes; both give a budget of 1.
    assert frozen_capacity(opt_cost_model, 128, 8192, True) <= 0
    capacity = frozen_capacity(opt_cost_model, 10, 7949, True)
    assert 0 < capacity < frozen_per_token(opt_cost_model, 10, "fp16")
    assert opt_cost_model.kv_budget_tokens(10, 7949, "fp16") == 1


@pytest.mark.parametrize("exact", [False, True], ids=["default", "exact"])
@settings(max_examples=10, deadline=None)
@given(
    shard=st.sampled_from(sorted(SHARD_SHAPES)),
    kv_dtype=st.sampled_from(["fp16", "int8"]),
    weights_on_gpu=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=64),
    input_len=st.integers(min_value=1, max_value=1024),
    output_len=st.integers(min_value=1, max_value=24),
)
def test_alisa_solution_carries_the_simulator_budget(
        exact, shard, kv_dtype, weights_on_gpu, batch_size, input_len,
        output_len):
    system = build_system("alisa", shard, kv_dtype=kv_dtype,
                          weights_on_gpu=weights_on_gpu,
                          schedule_policy=SchedulePolicy(exact=exact))
    system.prepare(Workload(batch_size, input_len, output_len, "budget"))
    assert (system.schedule_solution.gpu_budget_tokens
            == system.gpu_kv_budget_tokens(batch_size, input_len))


def test_bare_solve_falls_back_to_the_rule(opt_cost_model):
    workload = Workload(32, 512, 16, "bare")
    optimizer = SchedulerOptimizer(opt_cost_model, workload,
                                   SWAConfig.from_sparsity(0.8),
                                   kv_dtype="int8")
    expected = opt_cost_model.kv_budget_tokens(32, 512, "int8")
    assert optimizer.solve().gpu_budget_tokens == expected
    assert optimizer.solve_incremental().gpu_budget_tokens == expected
