"""Multi-GPU sharded serving: presets, TP/PP cost terms, per-shard admission.

The 1-GPU regression pin holds the sharded engine to the exact numbers the
pre-sharding engine produced (golden values captured from the seed revision
of this repository), so single-GPU serving can never drift as the multi-GPU
path evolves.
"""

from dataclasses import replace

import pytest

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem
from repro.core.engine import AlisaSystem
from repro.core.schedule_cache import ScheduleCache
from repro.experiments import run_experiment
from repro.experiments.serving import max_sustained_rate
from repro.hardware.presets import (
    NVLINK,
    PCIE_P2P,
    V100_16GB_NODE,
    V100_16GB_X2_NODE,
    V100_16GB_X4_NODE,
    HardwareSpec,
    get_hardware,
    get_interconnect,
    multi_gpu,
)
from repro.model.config import get_config
from repro.serving import ContinuousBatchingEngine
from repro.systems.cost import LLMCostModel, ParallelismSpec
from repro.workloads.arrivals import Request, generate_requests

MODEL = "opt-6.7b"


class TestMultiGPUPresets:
    def test_multi_gpu_keeps_per_gpu_resources(self):
        node = multi_gpu(V100_16GB_NODE, 4)
        assert node.gpu_count == 4
        assert node.gpu == V100_16GB_NODE.gpu
        assert node.pcie_bandwidth == V100_16GB_NODE.pcie_bandwidth
        assert node.node_gpu_memory_bytes == 4 * V100_16GB_NODE.gpu.memory_bytes
        assert node.node_pcie_bandwidth == 4 * V100_16GB_NODE.pcie_bandwidth

    def test_multi_gpu_degree_one_is_the_base_node(self):
        assert multi_gpu(V100_16GB_NODE, 1) is V100_16GB_NODE

    def test_x2_x4_presets_registered(self):
        assert get_hardware("v100-16gb-node-x2-nvlink") is V100_16GB_X2_NODE
        assert get_hardware("v100-16gb-node-x4-nvlink") is V100_16GB_X4_NODE
        assert V100_16GB_X4_NODE.interconnect is NVLINK

    def test_multi_gpu_requires_interconnect(self):
        with pytest.raises(ConfigurationError):
            HardwareSpec("bad", V100_16GB_NODE.gpu, V100_16GB_NODE.cpu,
                         20e9, gpu_count=2, interconnect=None)

    def test_interconnect_lookup(self):
        assert get_interconnect("nvlink") is NVLINK
        assert get_interconnect("pcie-p2p") is PCIE_P2P
        with pytest.raises(ConfigurationError):
            get_interconnect("carrier-pigeon")


class TestParallelismSpec:
    def test_parse_round_trips_labels(self):
        for label, mode, degree in (("none", "none", 1), ("tp-2", "tp", 2),
                                    ("pp-4", "pp", 4), ("tp4", "tp", 4)):
            spec = ParallelismSpec.parse(label)
            assert (spec.mode, spec.degree) == (mode, degree)
        assert ParallelismSpec.parse("tp-2").label == "tp-2"
        assert ParallelismSpec.parse("1gpu").label == "none"
        assert ParallelismSpec.parse("tp-1") == ParallelismSpec()

    def test_parse_rejects_garbage(self):
        for bad in ("dp-2", "tp-", "tensor", ""):
            with pytest.raises(ConfigurationError):
                ParallelismSpec.parse(bad)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelismSpec(mode="none", degree=2)
        with pytest.raises(ConfigurationError):
            ParallelismSpec(mode="tp", degree=1)
        with pytest.raises(ConfigurationError):
            ParallelismSpec(mode="ep", degree=2)


class TestParallelCostTerms:
    CONFIG = get_config(MODEL)

    def _model(self, mode, degree, **kwargs):
        hardware = multi_gpu(V100_16GB_NODE, degree)
        return LLMCostModel(self.CONFIG, hardware,
                            parallelism=ParallelismSpec(mode, degree, **kwargs))

    def test_degree_one_is_bit_identical(self):
        base = LLMCostModel(self.CONFIG, V100_16GB_NODE)
        explicit = LLMCostModel(self.CONFIG, V100_16GB_NODE,
                                parallelism=ParallelismSpec())
        for b, s in ((1, 128), (16, 512)):
            assert explicit.decode_step_time(b, s) == base.decode_step_time(b, s)
            assert explicit.prefill_time(b, s) == base.prefill_time(b, s)
            assert explicit.recompute_time(b, s) == base.recompute_time(b, s)
            assert explicit.quantize_time(b, s) == base.quantize_time(b, s)
        assert explicit.pcie_time(1e9) == base.pcie_time(1e9)
        assert explicit.parallel_comm_time(16) == 0.0

    def test_tp_divides_compute_and_pays_allreduces(self):
        base = LLMCostModel(self.CONFIG, V100_16GB_NODE)
        tp4 = self._model("tp", 4)
        comm = tp4.parallel_comm_time(16)
        assert comm > 0
        assert tp4.decode_step_time(16, 512) == pytest.approx(
            base.decode_step_time(16, 512) / 4 + comm)
        assert tp4.pp_boundary_time(16) == 0.0
        assert tp4.pp_bubble_factor() == 1.0

    def test_pp_pays_bubble_and_stage_transfers(self):
        base = LLMCostModel(self.CONFIG, V100_16GB_NODE)
        pp4 = self._model("pp", 4, pp_microbatches=4)
        assert pp4.pp_bubble_factor() == pytest.approx((4 + 3) / 4)
        assert pp4.tp_allreduce_time(16) == 0.0
        expected = (base.decode_step_time(16, 512) / 4 * pp4.pp_bubble_factor()
                    + pp4.pp_boundary_time(16))
        assert pp4.decode_step_time(16, 512) == pytest.approx(expected)

    def test_more_microbatches_shrink_the_bubble(self):
        small = self._model("pp", 4, pp_microbatches=2)
        large = self._model("pp", 4, pp_microbatches=16)
        assert large.pp_bubble_factor() < small.pp_bubble_factor()
        assert large.decode_step_time(16, 512) < small.decode_step_time(16, 512)

    def test_sharded_offload_uses_aggregate_host_links(self):
        base = LLMCostModel(self.CONFIG, V100_16GB_NODE)
        tp4 = self._model("tp", 4)
        assert tp4.pcie_time(1e9) == pytest.approx(base.pcie_time(1e9) / 4)
        assert tp4.recompute_time(16, 256) == pytest.approx(
            base.recompute_time(16, 256) / 4)
        assert tp4.quantize_time(16, 256) == pytest.approx(
            base.quantize_time(16, 256) / 4)

    def test_degree_must_match_gpu_count(self):
        with pytest.raises(ConfigurationError):
            LLMCostModel(self.CONFIG, V100_16GB_NODE,
                         parallelism=ParallelismSpec("tp", 2))
        with pytest.raises(ConfigurationError):
            LLMCostModel(self.CONFIG, multi_gpu(V100_16GB_NODE, 4),
                         parallelism=ParallelismSpec("tp", 2))


def engine(gpu_count=1, mode="tp", system=FlexGenSystem, **kwargs):
    hardware = multi_gpu(V100_16GB_NODE, gpu_count)
    parallelism = (ParallelismSpec() if gpu_count == 1
                   else ParallelismSpec(mode, gpu_count))
    return ContinuousBatchingEngine(
        system(MODEL, hardware, parallelism=parallelism), **kwargs)


class TestShardedAdmission:
    def test_shard_budgets_sum_to_node_budget(self):
        quad = engine(gpu_count=4)
        # A remainder-heavy split: budgets differ by at most one token and
        # never lose (or invent) capacity.
        for node_budget in (7, 1001, 9924, 196605):
            budgets = quad.shard_budgets(node_budget)
            assert len(budgets) == 4
            assert sum(budgets) == node_budget
            assert max(budgets) - min(budgets) <= 1

    def test_shard_footprint_rounds_up(self):
        quad = engine(gpu_count=4)
        assert quad.shard_footprint(Request(0, 0.0, 100, 1)) == 26
        single = engine(gpu_count=1)
        assert single.shard_footprint(Request(0, 0.0, 100, 28)) == 128

    def test_oversized_request_rejected_not_truncated(self):
        # The request's per-shard slice exceeds every shard budget: admission
        # must fail loudly even though 2x the node budget would "fit" if the
        # engine silently truncated the sequence.
        quad = engine(gpu_count=4)
        oversized = Request(0, 0.0, input_len=120000, output_len=120000)
        probe = quad.kv_budget_tokens([oversized])
        assert quad.shard_footprint(oversized) > min(quad.shard_budgets(probe))
        with pytest.raises(ConfigurationError, match="never be admitted"):
            quad.serve([oversized])

    def test_sharded_admission_is_conservative(self):
        # ceil(max_seq_len / shards) on every shard can only admit fewer
        # requests than the node-level budget would.
        requests = generate_requests(16, rate=50.0, input_len=255,
                                     output_len=254, seed=2)
        quad = engine(gpu_count=4)
        trace = quad.serve(requests)
        budget = trace.metadata["kv_budget_tokens"]
        limit = min(quad.shard_budgets(budget))
        for shard in trace.metadata["shards"]:
            assert shard["peak_reserved_tokens"] <= limit
            assert 0.0 < shard["peak_occupancy"] <= 1.0

    def test_all_requests_complete_on_sharded_node(self):
        requests = generate_requests(12, rate=8.0, input_len=128,
                                     output_len=64, seed=1)
        for gpu_count, mode in ((2, "tp"), (4, "tp"), (2, "pp"), (4, "pp")):
            trace = engine(gpu_count=gpu_count, mode=mode).serve(requests)
            assert trace.num_requests == len(requests)
            assert len(trace.metadata["shards"]) == gpu_count
            assert trace.metadata["parallelism"]["degree"] == gpu_count

    def test_comm_time_share_reported_for_tp_only_on_multi_gpu(self):
        requests = generate_requests(6, rate=8.0, input_len=64,
                                     output_len=32, seed=4)
        single = engine(gpu_count=1).serve(requests)
        assert single.metadata["comm_time_s"] == 0.0
        assert single.metadata["comm_time_share"] == 0.0
        tp = engine(gpu_count=2).serve(requests)
        assert 0.0 < tp.metadata["comm_time_share"] < 1.0


class TestSingleGPURegressionPin:
    """The sharded engine at 1 GPU is the pre-sharding engine, exactly.

    Golden values were produced by the seed revision of this repository
    (before shard budgets, ParallelismSpec, or multi-GPU cost terms
    existed) on the same trace; the sharded engine must reproduce them
    bit-for-bit.
    """

    GOLDEN = {
        "flexgen": dict(duration_s=3.329817241320824,
                        p99_ttft_s=0.8534277092201079,
                        p50_tpot_s=0.01871808752902459,
                        kv_budget_tokens=4962, peak_reserved_tokens=4608,
                        num_epochs=7, num_decode_steps=131, pcie_bytes=0.0),
        "alisa": dict(duration_s=3.2578830003252692,
                      p99_ttft_s=0.8540543676378853,
                      p50_tpot_s=0.018145979159050845,
                      kv_budget_tokens=9924, peak_reserved_tokens=4608,
                      num_epochs=7, num_decode_steps=131, pcie_bytes=0.0),
    }

    @pytest.mark.parametrize("system", ["flexgen", "alisa"])
    def test_one_gpu_trace_matches_pre_sharding_golden(self, system):
        requests = generate_requests(12, 16.0, input_len=256, output_len=128,
                                     seed=5)
        simulator = (FlexGenSystem(MODEL, V100_16GB_NODE)
                     if system == "flexgen"
                     else AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8))
        trace = ContinuousBatchingEngine(simulator).serve(requests)
        summary = trace.summary()
        golden = self.GOLDEN[system]
        for key in ("duration_s", "p99_ttft_s", "p50_tpot_s"):
            assert summary[key] == golden[key]
        for key in ("kv_budget_tokens", "peak_reserved_tokens",
                    "num_epochs", "num_decode_steps", "pcie_bytes"):
            assert trace.metadata[key] == golden[key]
        # Sharding metadata degenerates to one shard covering the node.
        assert trace.metadata["parallelism"]["label"] == "none"
        shards = trace.metadata["shards"]
        assert len(shards) == 1
        assert shards[0]["budget_tokens"] == golden["kv_budget_tokens"]
        assert shards[0]["peak_reserved_tokens"] == golden["peak_reserved_tokens"]


class TestScheduleCacheShardNamespacing:
    def test_contexts_differ_per_shard_shape(self):
        # Same node name, same model, same kv dtype — only the shard shape
        # differs, which must be enough to keep cache entries apart.
        node = replace(V100_16GB_NODE, gpu_count=2, interconnect=NVLINK)
        tp = AlisaSystem(MODEL, node, kv_sparsity=0.8,
                         parallelism=ParallelismSpec("tp", 2))
        pp = AlisaSystem(MODEL, node, kv_sparsity=0.8,
                         parallelism=ParallelismSpec("pp", 2))
        assert tp._schedule_context != pp._schedule_context

    def test_contexts_differ_per_link_speeds(self):
        # replace()/with_pcie_bandwidth keep the node *name*, but the link
        # numbers price the schedules — they must namespace the cache too.
        nvlink_node = replace(V100_16GB_NODE, gpu_count=2, interconnect=NVLINK)
        p2p_node = replace(V100_16GB_NODE, gpu_count=2, interconnect=PCIE_P2P)
        spec = ParallelismSpec("tp", 2)
        fast = AlisaSystem(MODEL, nvlink_node, kv_sparsity=0.8,
                           parallelism=spec)
        slow = AlisaSystem(MODEL, p2p_node, kv_sparsity=0.8, parallelism=spec)
        assert fast._schedule_context != slow._schedule_context

        narrow = AlisaSystem(MODEL, V100_16GB_NODE.with_pcie_bandwidth(5e9),
                             kv_sparsity=0.8)
        wide = AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8)
        assert narrow._schedule_context != wide._schedule_context

    def test_shared_cache_never_crosses_shard_shapes(self):
        # Long heavy-tailed requests contend for the 2-GPU budget, so some
        # epochs spill and search schedules (epochs that fit search none).
        requests = generate_requests(32, rate=64.0, pattern="bursty",
                                     seed=5, mean_input=1024,
                                     mean_output=512)
        node = replace(V100_16GB_NODE, gpu_count=2, interconnect=NVLINK)

        def serve_pp(cache):
            before = (cache.stats.full_solves + cache.stats.warm_solves)
            ContinuousBatchingEngine(AlisaSystem(
                MODEL, node, kv_sparsity=0.8,
                parallelism=ParallelismSpec("pp", 2),
                schedule_cache=cache)).serve(requests)
            return (cache.stats.full_solves + cache.stats.warm_solves) - before

        # Control: how many searches a PP serve needs on a fresh cache.
        fresh_solves = serve_pp(ScheduleCache())
        assert fresh_solves > 0

        # A cache pre-warmed by a differently sharded (TP) system on the
        # *same* node must give the PP serve zero reuse: it performs exactly
        # as many searches as on a fresh cache.
        warmed = ScheduleCache()
        ContinuousBatchingEngine(AlisaSystem(
            MODEL, node, kv_sparsity=0.8,
            parallelism=ParallelismSpec("tp", 2),
            schedule_cache=warmed)).serve(requests)
        assert serve_pp(warmed) == fresh_solves

    def test_same_shard_shape_still_reuses(self):
        # Spilling epochs, as above, so the first serve does search.
        requests = generate_requests(32, rate=64.0, pattern="bursty",
                                     seed=5, mean_input=1024,
                                     mean_output=512)
        cache = ScheduleCache()
        node = multi_gpu(V100_16GB_NODE, 2)

        def tp_engine():
            return ContinuousBatchingEngine(AlisaSystem(
                MODEL, node, kv_sparsity=0.8,
                parallelism=ParallelismSpec("tp", 2), schedule_cache=cache))

        tp_engine().serve(requests)
        solves_first = cache.stats.full_solves + cache.stats.warm_solves
        assert solves_first > 0
        tp_engine().serve(requests)
        assert cache.stats.full_solves + cache.stats.warm_solves == solves_first


class TestParallelServingSweep:
    @pytest.fixture(scope="class")
    def result(self):
        # 28 x (256 + 256) = 14336 reserved KV tokens versus ALISA's ~10k
        # single-GPU budget: at 32 req/s the 1-GPU node must queue, while
        # the 4-GPU nodes (4x the per-GPU memory in aggregate, sharded KV)
        # admit everything.
        return run_experiment(
            "serving_rate_sweep", rates=(2.0, 32.0), num_requests=28,
            input_len=256, output_len=256,
            parallelism=("none", "tp-2", "tp-4", "pp-2", "pp-4"))

    def test_one_invocation_covers_1_2_4_gpus_tp_and_pp(self, result):
        combos = {(row["parallelism"], row["gpu_count"])
                  for row in result.rows}
        assert combos == {("none", 1), ("tp-2", 2), ("tp-4", 4),
                          ("pp-2", 2), ("pp-4", 4)}
        assert len(result.rows) == 2 * 5 * 3  # rates x parallelism x systems
        assert result.notes["parallelism"] == ("none", "tp-2", "tp-4",
                                               "pp-2", "pp-4")

    def test_four_gpus_sustain_strictly_higher_rate(self, result):
        single = max_sustained_rate(result, system="alisa",
                                    parallelism="none",
                                    max_queueing_delay_s=0.25)
        for sharded in ("tp-4", "pp-4"):
            quad = max_sustained_rate(result, system="alisa",
                                      parallelism=sharded,
                                      max_queueing_delay_s=0.25)
            assert quad > single

    def test_sharded_budget_exceeds_single_gpu(self, result):
        rows = {row["parallelism"]: row
                for row in result.filter(system="alisa", rate_req_per_s=2.0)}
        assert rows["tp-2"]["kv_budget_tokens"] > rows["none"]["kv_budget_tokens"]
        assert rows["tp-4"]["kv_budget_tokens"] > rows["tp-2"]["kv_budget_tokens"]

    def test_comm_share_only_on_multi_gpu(self, result):
        for row in result.filter(system="alisa"):
            if row["parallelism"] == "none":
                assert row["comm_time_share"] == 0.0
            elif row["parallelism"].startswith("tp"):
                # per-layer ring all-reduces: a visible share of the clock
                assert row["comm_time_share"] > 0.0
            else:
                # pp: stage-boundary transfers are tiny but never zero
                assert row["parallelism"].startswith("pp")
                assert row["comm_time_share"] > 0.0

    def test_default_sweep_is_single_gpu(self):
        result = run_experiment("serving_rate_sweep", rates=(4.0,),
                                num_requests=4, input_len=64, output_len=32)
        for row in result.rows:
            assert row["parallelism"] == "none"
            assert row["gpu_count"] == 1

    @pytest.mark.parametrize("axis, message", [
        (dict(parallelism=()), "parallelism needs at least one layout"),
        (dict(cluster=()), "cluster needs at least one layout"),
        (dict(cluster=("tp-2",), routing=()),
         "routing needs at least one policy"),
    ], ids=["parallelism", "cluster", "routing"])
    def test_empty_axis_is_rejected(self, axis, message):
        # An empty axis would otherwise return a sweep with no rows.
        with pytest.raises(ConfigurationError, match=message):
            run_experiment("serving_rate_sweep", rates=(4.0,),
                           num_requests=4, **axis)
