"""Tests for the system side: scheduler, optimizer, memory, cost, simulators."""

import pytest

from repro._common import ConfigurationError, OutOfMemoryError
from repro.baselines import (
    BASELINE_SYSTEMS,
    AccelerateSystem,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    GPUOnlySystem,
    VLLMSystem,
)
from repro.core.engine import AlisaSystem
from repro.core.optimizer import (
    CostParameters,
    SchedulerOptimizer,
    gpu_kv_budget_tokens,
    phase1_end_step,
)
from repro.core.scheduler import (
    PHASE_GPU,
    PHASE_GPU_CPU,
    PHASE_RECOMPUTE,
    DynamicScheduler,
    SchedulerConfig,
)
from repro.core.swa import SWAConfig
from repro.hardware.presets import (
    H100_80GB_NODE,
    V100_16GB_NODE,
    get_hardware,
    hardware_for_model,
)
from repro.systems.memory import MemoryDevice, MemoryHierarchy, PCIeLink
from repro.workloads.descriptors import Workload


class TestMemoryDevice:
    def test_allocate_and_free(self):
        device = MemoryDevice("gpu", 1000)
        device.allocate("weights", 600)
        assert device.used_bytes == 600
        device.free("weights")
        assert device.used_bytes == 0

    def test_oom_raised(self):
        device = MemoryDevice("gpu", 100)
        with pytest.raises(OutOfMemoryError):
            device.allocate("kv", 101)

    def test_peak_tracking(self):
        device = MemoryDevice("gpu", 100)
        device.allocate("a", 80)
        device.free("a", 50)
        assert device.peak_bytes == 80
        assert device.used_bytes == 30

    def test_resize_shrinks_and_grows(self):
        device = MemoryDevice("gpu", 100)
        device.resize("kv", 40)
        device.resize("kv", 10)
        assert device.usage("kv") == 10
        device.resize("kv", 0)
        assert "kv" not in device.allocations()

    def test_resize_respects_capacity(self):
        device = MemoryDevice("gpu", 100)
        device.allocate("weights", 90)
        with pytest.raises(OutOfMemoryError):
            device.resize("kv", 20)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryDevice("gpu", 10).allocate("x", -1)


class TestPCIeLink:
    def test_transfer_time_linear_in_bytes(self):
        link = PCIeLink(20e9, latency_s=0.0)
        assert link.transfer_time(20e9) == pytest.approx(1.0)

    def test_zero_bytes_costs_nothing(self):
        assert PCIeLink(20e9).transfer_time(0) == 0.0

    def test_traffic_accounting(self):
        link = PCIeLink(1e9)
        link.host_to_device(10)
        link.device_to_host(5)
        assert link.total_bytes == 15

    def test_hierarchy_from_hardware(self):
        hierarchy = MemoryHierarchy.from_hardware(V100_16GB_NODE)
        assert hierarchy.gpu.capacity_bytes == V100_16GB_NODE.gpu.memory_bytes
        assert hierarchy.link.bandwidth_bytes_per_s == V100_16GB_NODE.pcie_bandwidth


class TestHardwarePresets:
    def test_lookup_by_name(self):
        assert get_hardware("h100-80gb-node").gpu.name == "H100-80GB"

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            get_hardware("tpu-v5")

    @pytest.mark.parametrize("model,expected", [
        ("opt-6.7b", "v100-16gb-node"),
        ("opt-13b", "v100-32gb-node"),
        ("opt-30b", "h100-80gb-node"),
        ("llama-33b", "h100-80gb-node"),
    ])
    def test_model_to_node_mapping(self, model, expected):
        assert hardware_for_model(model).name == expected

    def test_pcie_override(self):
        node = V100_16GB_NODE.with_pcie_bandwidth(40e9)
        assert node.pcie_bandwidth == 40e9
        assert V100_16GB_NODE.pcie_bandwidth == 20e9


class TestCostModel:
    def test_decode_time_grows_with_kv_len(self, opt_cost_model):
        assert (opt_cost_model.decode_step_time(8, 2048)
                > opt_cost_model.decode_step_time(8, 128))

    def test_sparse_attention_not_slower_without_overhead(self, opt_cost_model):
        dense = opt_cost_model.attention_time(64, 1024)
        sparse = opt_cost_model.attention_time(64, 1024, kept_kv=128)
        assert sparse <= dense

    def test_breakdown_contains_swa_ops_only_when_requested(self, opt_cost_model):
        dense_ops = set(opt_cost_model.attention_breakdown(8, 256).as_dict())
        swa_ops = set(opt_cost_model.attention_breakdown(8, 256, kept_kv=64,
                                                         local_window=32).as_dict())
        assert "local_attention_sum" not in dense_ops
        assert {"local_attention_sum", "sparse_kv_gather"} <= swa_ops

    def test_kv_bytes_match_paper_formula(self, opt_cost_model):
        config = opt_cost_model.config
        expected = 4 * config.num_layers * config.hidden_size * 8
        assert opt_cost_model.kv_bytes_per_token(8) == pytest.approx(expected)

    def test_weight_bytes_scale(self, opt_cost_model):
        assert 10e9 < opt_cost_model.weight_bytes() < 20e9  # ~13 GB at FP16

    def test_recompute_zero_tokens_free(self, opt_cost_model):
        assert opt_cost_model.recompute_time(8, 0) == 0.0

    def test_prefill_quadratic_growth(self, opt_cost_model):
        short = opt_cost_model.prefill_time(8, 128)
        long = opt_cost_model.prefill_time(8, 512)
        assert long > 3.9 * short

    def test_cpu_attention_time_positive(self, opt_cost_model):
        assert opt_cost_model.cpu_attention_time(8, 100) > 0
        assert opt_cost_model.cpu_attention_time(8, 0) == 0.0

    def test_pcie_time_matches_bandwidth(self, opt_cost_model):
        assert opt_cost_model.pcie_time(20e9) == pytest.approx(1.0)


class TestScheduler:
    def _scheduler(self, budget=200, alpha=0.5, beta=0.4, p1=50, p2=100,
                   prompt=128):
        config = SchedulerConfig(offload_ratio=alpha, recompute_ratio=beta,
                                 phase2_step=p1, phase3_step=p2)
        return DynamicScheduler(config, SWAConfig.from_sparsity(0.8),
                                gpu_budget_tokens=budget, prompt_len=prompt)

    def test_phase_progression(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        phases = [scheduler.plan_step(j).phase for j in range(120)]
        assert phases[0] == PHASE_GPU
        assert PHASE_GPU_CPU in phases
        assert phases[-1] == PHASE_RECOMPUTE
        # Phases never go backwards.
        order = {PHASE_GPU: 0, PHASE_GPU_CPU: 1, PHASE_RECOMPUTE: 2}
        ranks = [order[p] for p in phases]
        assert ranks == sorted(ranks)

    def test_placement_covers_sequence(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        for j in range(150):
            plan = scheduler.plan_step(j)
            assert (plan.tokens_gpu + plan.tokens_cpu + plan.tokens_deleted
                    == plan.sequence_length)

    def test_gpu_capacity_enforced_in_phase2(self):
        scheduler = self._scheduler(budget=150, alpha=0.1, beta=0.0, p1=10,
                                    p2=400, prompt=128)
        scheduler.plan_prefill()
        for j in range(200):
            plan = scheduler.plan_step(j)
            assert plan.tokens_gpu <= 150 + 1

    def test_recompute_only_in_phase3(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        for j in range(120):
            plan = scheduler.plan_step(j)
            if plan.phase != PHASE_RECOMPUTE:
                assert plan.recompute_tokens == 0.0

    def test_prefill_required_before_steps(self):
        scheduler = self._scheduler()
        with pytest.raises(ConfigurationError):
            scheduler.plan_step(0)

    def test_prefill_only_once(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        with pytest.raises(ConfigurationError):
            scheduler.plan_prefill()

    def test_invalid_phase_order_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(offload_ratio=0.5, recompute_ratio=0.5,
                            phase2_step=100, phase3_step=50)

    def test_kept_tokens_track_swa_budget(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        plan = None
        for j in range(11):
            plan = scheduler.plan_step(j)
        assert plan.kept_tokens <= 0.25 * plan.sequence_length + 2

    def test_out_of_order_steps_rejected(self):
        scheduler = self._scheduler()
        scheduler.plan_prefill()
        with pytest.raises(ConfigurationError):
            scheduler.plan_step(5)


class TestOptimizer:
    def test_cost_parameters_transfer_time(self):
        params = CostParameters(hidden_size=4096, num_layers=32, batch_size=8,
                                input_len=128, output_len=512,
                                caching_ratio=0.2, pcie_bandwidth=20e9)
        per_token = params.kv_bytes_per_token
        assert params.transfer_time(10) == pytest.approx(10 * per_token / 20e9)

    def test_budget_tokens_smaller_for_larger_batch(self, opt_cost_model):
        small = gpu_kv_budget_tokens(opt_cost_model,
                                     Workload(4, 128, 512, "a"))
        large = gpu_kv_budget_tokens(opt_cost_model,
                                     Workload(64, 128, 512, "b"))
        assert large < small

    def test_phase1_end_step_clipped(self):
        assert phase1_end_step(100, Workload(1, 128, 512, "w")) == 0
        assert phase1_end_step(10_000, Workload(1, 128, 512, "w")) == 512

    def test_solution_is_feasible(self, opt_cost_model):
        workload = Workload(32, 128, 128, "opt")
        optimizer = SchedulerOptimizer(opt_cost_model, workload,
                                       SWAConfig.from_sparsity(0.8))
        solution = optimizer.solve()
        assert solution.estimated_time > 0
        assert solution.evaluated_candidates > 0
        assert 0 <= solution.config.phase2_step <= solution.config.phase3_step


class TestSimulators:
    @pytest.mark.parametrize("name", sorted(BASELINE_SYSTEMS))
    def test_baselines_produce_traces(self, name, small_workload):
        system = BASELINE_SYSTEMS[name]("opt-6.7b", V100_16GB_NODE)
        trace = system.run(small_workload)
        assert trace.system == name
        if not trace.oom:
            assert trace.throughput > 0
            assert len(trace.steps) == small_workload.output_len

    def test_gpu_only_ooms_on_large_batch(self):
        workload = Workload(64, 512, 512, "big")
        trace = GPUOnlySystem("opt-6.7b", V100_16GB_NODE).run(workload)
        assert trace.oom

    def test_accelerate_keeps_kv_on_cpu(self, small_workload):
        trace = AccelerateSystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        assert trace.steps[-1].cpu_kv_bytes > 0
        assert trace.steps[-1].gpu_kv_bytes == 0

    def test_deepspeed_streams_weights(self, small_workload):
        trace = DeepSpeedZeroSystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        slow = trace.steps[0].transfer_time
        fast = GPUOnlySystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        assert slow > fast.steps[0].transfer_time

    def test_flexgen_explicit_fraction_splits_kv(self, small_workload):
        trace = FlexGenSystem("opt-6.7b", V100_16GB_NODE,
                              cpu_fraction=0.5).run(small_workload)
        last = trace.steps[-1]
        assert last.cpu_kv_bytes == pytest.approx(last.gpu_kv_bytes, rel=0.05)

    def test_vllm_single_wave_matches_gpu_only_speed(self, small_workload):
        vllm = VLLMSystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        gpu = GPUOnlySystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        assert vllm.throughput == pytest.approx(gpu.throughput, rel=0.05)

    def test_vllm_waves_for_large_batch(self):
        workload = Workload(64, 128, 256, "big")
        system = VLLMSystem("opt-6.7b", V100_16GB_NODE)
        trace = system.run(workload)
        assert trace.metadata.get("waves", 1) > 1
        assert not trace.oom

    def test_alisa_faster_than_flexgen_at_large_batch(self):
        workload = Workload(32, 128, 128, "large")
        flexgen = FlexGenSystem("opt-6.7b", V100_16GB_NODE).run(workload)
        alisa = AlisaSystem("opt-6.7b", V100_16GB_NODE,
                            kv_sparsity=0.8).run(workload)
        assert alisa.throughput > flexgen.throughput

    def test_alisa_compression_reduces_kv_footprint(self):
        workload = Workload(32, 128, 64, "w")
        compressed = AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8,
                                 use_compression=True).run(workload)
        uncompressed = AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8,
                                   use_compression=False).run(workload)
        assert (compressed.steps[-1].gpu_kv_bytes + compressed.steps[-1].cpu_kv_bytes
                < uncompressed.steps[-1].gpu_kv_bytes
                + uncompressed.steps[-1].cpu_kv_bytes)

    def test_alisa_phases_progress_on_h100(self):
        workload = Workload(64, 128, 256, "fig12")
        trace = AlisaSystem("opt-30b", H100_80GB_NODE, kv_sparsity=0.8,
                            use_compression=False).run(workload)
        assert PHASE_GPU in trace.time_by_phase()
        assert not trace.oom

    def test_trace_summary_keys(self, small_workload):
        trace = FlexGenSystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        summary = trace.summary()
        for key in ("system", "throughput_tokens_per_s", "peak_gpu_gb",
                    "time_compute_s", "time_transfer_s"):
            assert key in summary

    def test_trace_time_components_sum(self, small_workload):
        trace = FlexGenSystem("opt-6.7b", V100_16GB_NODE).run(small_workload)
        components = trace.time_by_component()
        assert sum(components.values()) == pytest.approx(trace.total_time)


class TestCostAccountingRegressions:
    """Pin the prefill-quantization and static-offload cost accounting."""

    #: Static-ablation workload whose KV cache overflows the V100-16GB GPU
    #: (max_seq_len exceeds the KV budget), forcing prefill-time offloading.
    OFFLOAD_WORKLOAD = Workload(16, 256, 256, "offload")

    @pytest.mark.parametrize("use_dynamic_scheduling", [False, True])
    def test_prefill_pays_quantization_when_offloading(self,
                                                       use_dynamic_scheduling):
        # kv_dtype is pinned to fp16 on both sides so the *only* difference
        # is the (de)quantization overhead, not the transfer volume.
        workload = (self.OFFLOAD_WORKLOAD if not use_dynamic_scheduling
                    else Workload(16, 512, 32, "offload-dyn"))
        compressed = AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8,
                                 use_dynamic_scheduling=use_dynamic_scheduling,
                                 use_compression=True, kv_dtype="fp16")
        plain = AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8,
                            use_dynamic_scheduling=use_dynamic_scheduling,
                            use_compression=False)
        assert compressed.gpu_kv_budget_tokens(workload) < workload.max_seq_len
        compressed_trace = compressed.run(workload)
        plain_trace = plain.run(workload)
        assert not compressed_trace.oom and not plain_trace.oom
        assert compressed_trace.prefill_time > plain_trace.prefill_time

    def test_static_ablation_offloads_per_step_delta(self):
        workload = self.OFFLOAD_WORKLOAD
        system = AlisaSystem("opt-6.7b", V100_16GB_NODE, kv_sparsity=0.8,
                             use_dynamic_scheduling=False,
                             use_compression=False)
        budget = system.gpu_kv_budget_tokens(workload)
        fraction = 1.0 - budget / workload.max_seq_len
        assert fraction > 0
        trace = system.run(workload)
        assert not trace.oom
        per_token = system.kv_token_bytes(workload)
        # Each decode step grows the CPU share by exactly `fraction` tokens;
        # only that delta crosses PCIe.
        for step in trace.steps:
            assert step.bytes_offloaded == pytest.approx(fraction * per_token)
        # Plan-level invariant: every step's offload equals the growth of
        # the CPU-resident share over the preceding plan, regardless of
        # where in the sequence the step sits, so cumulative offloads
        # reconstruct the resident share exactly.
        system.prepare(workload)
        previous = system.plan_prefill(workload)
        for step in range(4):
            plan = system.plan_decode_step(step, workload)
            assert plan.offload_kv_tokens == pytest.approx(
                plan.kv_cpu_tokens - previous.kv_cpu_tokens)
            previous = plan
