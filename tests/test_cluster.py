"""Tests for repro.cluster: layouts, routing, replica groups, cluster sweep."""

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import (
    ROUTING_POLICIES,
    ClusterLayout,
    ClusterSpec,
    ReplicaGroup,
    Router,
    cluster_of,
    validate_equal_gpu_count,
)
from repro.core.engine import AlisaSystem
from repro.experiments import run_experiment
from repro.experiments.serving import max_sustained_rate
from repro.faults import FaultEvent, FaultSchedule, LoadShedder, RetryPolicy
from repro.hardware.presets import V100_16GB_NODE, V100_16GB_X2_NODE, multi_gpu
from repro.obs import Observer
from repro.serving import ContinuousBatchingEngine
from repro.serving.trace import TraceTotals
from repro.systems.cost import ParallelismSpec
from repro.workloads.arrivals import generate_requests
from repro.workloads.sessions import SessionRequest

MODEL = "opt-6.7b"


def alisa_factory(node, parallelism):
    return AlisaSystem(MODEL, node, kv_sparsity=0.8, parallelism=parallelism)


def flexgen_factory(node, parallelism):
    return FlexGenSystem(MODEL, node, parallelism=parallelism)


def group(layout="2x(none)", factory=alisa_factory, **kwargs):
    return ReplicaGroup.from_layout(factory, layout, V100_16GB_NODE, **kwargs)


class TestClusterSpec:
    def test_totals_aggregate_over_replicas(self):
        spec = cluster_of(V100_16GB_X2_NODE, 3)
        assert spec.num_replicas == 3
        assert spec.total_gpus == 6
        assert spec.total_gpu_memory_bytes == \
            3 * V100_16GB_X2_NODE.node_gpu_memory_bytes
        assert spec.name == "v100-16gb-node-x2-nvlink-dp3"

    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec("bad", V100_16GB_NODE, num_replicas=0)

    def test_equal_gpu_count_validation(self):
        tp4 = cluster_of(multi_gpu(V100_16GB_NODE, 4), 1)
        dp2_tp2 = cluster_of(V100_16GB_X2_NODE, 2)
        dp4 = cluster_of(V100_16GB_NODE, 4)
        assert validate_equal_gpu_count(tp4, dp2_tp2, dp4) == 4
        with pytest.raises(ConfigurationError, match="unequal GPU counts"):
            validate_equal_gpu_count(tp4, cluster_of(V100_16GB_NODE, 2))
        with pytest.raises(ConfigurationError):
            validate_equal_gpu_count()


class TestMultiGPUCompounding:
    def test_multi_gpu_rejects_multi_gpu_base(self):
        # Deriving x2 from an x2 node used to silently yield gpu_count=2
        # with a doubled name; it must fail loudly instead.
        with pytest.raises(ConfigurationError, match="single-GPU base"):
            multi_gpu(V100_16GB_X2_NODE, 2)
        with pytest.raises(ValueError):  # ConfigurationError is a ValueError
            multi_gpu(multi_gpu(V100_16GB_NODE, 4), 2)

    def test_multi_gpu_still_accepts_single_gpu_base(self):
        assert multi_gpu(V100_16GB_NODE, 2).gpu_count == 2
        assert multi_gpu(V100_16GB_NODE, 1) is V100_16GB_NODE


class TestClusterLayout:
    def test_parse_round_trips_labels(self):
        for spec, replicas, mode, degree, label in (
                ("tp-4", 1, "tp", 4, "tp-4"),
                ("2x(tp-2)", 2, "tp", 2, "2x(tp-2)"),
                ("4x(tp-1)", 4, "none", 1, "4x(none)"),
                ("4 x (pp-2)", 4, "pp", 2, "4x(pp-2)"),
                ("none", 1, "none", 1, "none"),
                ("2x(none)", 2, "none", 1, "2x(none)")):
            layout = ClusterLayout.parse(spec)
            assert layout.num_replicas == replicas
            assert (layout.parallelism.mode,
                    layout.parallelism.degree) == (mode, degree)
            assert layout.label == label
            assert ClusterLayout.parse(layout.label) == layout

    def test_total_gpus(self):
        assert ClusterLayout.parse("2x(tp-2)").total_gpus == 4
        assert ClusterLayout.parse("4x(tp-1)").total_gpus == 4
        assert ClusterLayout.parse("tp-4").total_gpus == 4

    def test_parse_rejects_garbage(self):
        for bad in ("2x(tp-2", "x(tp-2)", "2x()", "2x(dp-2)", "0x(tp-2)",
                    "2x(2x(none))", ""):
            with pytest.raises(ConfigurationError):
                ClusterLayout.parse(bad)

    def test_cluster_spec_materializes_nodes(self):
        spec = ClusterLayout.parse("2x(tp-2)").cluster_spec(V100_16GB_NODE)
        assert spec.num_replicas == 2
        assert spec.node.gpu_count == 2
        assert spec.total_gpus == 4


class TestRouter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="routing policy"):
            Router(2, policy="random")

    def test_round_robin_cycles(self):
        router = Router(3, policy="round-robin")
        requests = generate_requests(6, rate=4.0, input_len=8, output_len=8)
        picks = [router.assign(r, [1.0, 1.0, 1.0]) for r in requests]
        assert picks == [0, 1, 2, 0, 1, 2]
        assert router.dispatch_counts == [2, 2, 2]

    def test_jsq_prefers_lighter_kv_footprint(self):
        router = Router(2, policy="jsq", seed=0)
        heavy = generate_requests(1, rate=1.0, input_len=512,
                                  output_len=512)[0]
        first = router.assign(heavy, [100.0, 100.0])
        light = generate_requests(2, rate=1000.0, input_len=8,
                                  output_len=8)[1]
        # The heavy request is still in flight, so the light one must go
        # to the other replica.
        assert router.assign(light, [100.0, 100.0]) == 1 - first

    def test_least_loaded_prefers_earliest_completion(self):
        router = Router(2, policy="least-loaded", seed=0)
        requests = generate_requests(3, rate=1000.0, input_len=8,
                                     output_len=8)
        # Replica 1 serves twice as fast: it absorbs two requests (backlog
        # finishing at ~1 then ~2) before replica 0's first slot (~2)
        # becomes the earlier completion.
        assert router.assign(requests[0], [2.0, 1.0]) == 1
        assert router.assign(requests[1], [2.0, 1.0]) == 1
        assert router.assign(requests[2], [2.0, 1.0]) == 0

    def test_service_estimate_arity_checked(self):
        router = Router(2, policy="jsq")
        request = generate_requests(1, rate=1.0, input_len=8, output_len=8)[0]
        with pytest.raises(ConfigurationError):
            router.assign(request, [1.0])

    def test_tie_breaking_is_seed_deterministic(self):
        requests = generate_requests(12, rate=8.0, input_len=64,
                                     output_len=32, seed=3)

        def split(seed):
            router = Router(4, policy="jsq", seed=seed)
            return [router.assign(r, [1.0] * 4) for r in requests]

        assert split(7) == split(7)
        seeds = {tuple(split(seed)) for seed in range(8)}
        assert len(seeds) > 1  # ties genuinely resolve by the seed


@dataclass
class _ListReplicaLoad:
    """Reference load ledger: the flat in-flight list the router kept
    before its heap, re-filtered and re-summed on every read."""

    in_flight: list = field(default_factory=list)
    busy_until: float = 0.0
    dispatched: int = 0

    def add(self, finish, tokens):
        self.in_flight.append((finish, tokens))

    def retire(self, clock):
        self.in_flight = [(finish, tokens) for finish, tokens
                          in self.in_flight if finish > clock]

    def outstanding_tokens(self, clock):
        self.retire(clock)
        return sum(tokens for _, tokens in self.in_flight)


_ROUTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("assign"),
                  st.floats(min_value=-0.5, max_value=2.0),  # clock step
                  st.integers(min_value=1, max_value=64),    # input_len
                  st.integers(min_value=1, max_value=64),    # output_len
                  st.integers(min_value=0, max_value=4),     # session id
                  st.booleans(),                             # final turn
                  st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                           min_size=3, max_size=3)),
        st.tuples(st.sampled_from(["down", "up"]),
                  st.integers(min_value=0, max_value=2)),
    ),
    max_size=60)


class TestReplicaLoadLedger:
    """The heap-backed JSQ ledger dispatches exactly like the list one."""

    @settings(max_examples=60, deadline=None)
    @given(policy=st.sampled_from(["jsq", "session-affinity"]),
           seed=st.integers(min_value=0, max_value=3), ops=_ROUTER_OPS)
    def test_heap_matches_list_reference(self, policy, seed, ops):
        router = Router(3, policy=policy, seed=seed)
        reference = Router(3, policy=policy, seed=seed)
        reference._loads = [_ListReplicaLoad() for _ in range(3)]
        clock = 0.0
        for request_id, op in enumerate(ops):
            if op[0] in ("down", "up"):
                for r in (router, reference):
                    getattr(r, f"mark_{op[0]}")(op[1])
                continue
            _, step, input_len, output_len, session, final, estimates = op
            # Clocks may step back (a retry re-dispatched out of order):
            # entries retired at a later clock stay retired.
            clock = max(0.0, clock + step)
            request = SessionRequest(request_id, clock, input_len,
                                     output_len, session_id=session,
                                     final_turn=final)
            if len(router._down) == 3:
                for r in (router, reference):
                    with pytest.raises(ConfigurationError):
                        r.assign(request, estimates)
                continue
            assert (router.assign(request, estimates)
                    == reference.assign(request, estimates))
            for load, expected in zip(router._loads, reference._loads):
                assert (load.outstanding_tokens(clock)
                        == expected.outstanding_tokens(clock))
                assert load.tokens == sum(t for _, t in load.in_flight)
        assert router.dispatch_counts == reference.dispatch_counts

    def test_entries_retire_permanently(self):
        router = Router(2, policy="jsq", seed=0)
        load = router._loads[0]
        load.add(1.0, 10)
        load.add(3.0, 5)
        assert load.outstanding_tokens(2.0) == 5
        # An earlier clock does not resurrect the retired entry.
        assert load.outstanding_tokens(0.5) == 5
        assert load.outstanding_tokens(3.0) == 0


class TestReplicaGroup:
    def test_needs_engines_and_homogeneous_system(self):
        with pytest.raises(ConfigurationError):
            ReplicaGroup([])
        mixed = [
            ContinuousBatchingEngine(alisa_factory(V100_16GB_NODE,
                                                   ParallelismSpec())),
            ContinuousBatchingEngine(flexgen_factory(V100_16GB_NODE,
                                                     ParallelismSpec())),
        ]
        with pytest.raises(ConfigurationError, match="one system"):
            ReplicaGroup(mixed)

    def test_from_layout_builds_independent_replicas(self):
        quad = group("4x(tp-1)")
        assert quad.num_replicas == 4
        assert quad.total_gpus == 4
        simulators = {id(engine.simulator) for engine in quad.engines}
        assert len(simulators) == 4
        caches = {id(engine.simulator.schedule_cache)
                  for engine in quad.engines}
        assert len(caches) == 4  # per-replica schedule caches

    def test_single_replica_round_robin_is_bit_identical_to_direct_serve(self):
        requests = generate_requests(12, rate=16.0, input_len=256,
                                     output_len=128, seed=5)
        cluster_trace = group("none", policy="round-robin").serve(requests)
        direct = ContinuousBatchingEngine(
            alisa_factory(V100_16GB_NODE, ParallelismSpec())).serve(requests)
        assert cluster_trace.records == direct.records
        direct_summary = direct.summary()
        cluster_summary = cluster_trace.summary()
        assert all(cluster_summary[key] == value
                   for key, value in direct_summary.items())
        assert cluster_trace.metadata["routing"]["dispatch_counts"] == [12]
        assert cluster_trace.tokens_imbalance == 1.0

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_single_replica_serves_like_direct_serve_under_every_policy(
            self, policy):
        requests = generate_requests(12, rate=16.0, pattern="bursty",
                                     seed=5)
        single = group("none")
        direct = ContinuousBatchingEngine(
            alisa_factory(V100_16GB_NODE, ParallelismSpec())).serve(requests)
        trace = single.serve(requests, policy=policy)
        assert trace.records == direct.records
        assert (trace.metadata["kv_budget_tokens"]
                == direct.metadata["kv_budget_tokens"])
        assert trace.metadata["routing"]["dispatch_counts"] == [12]
        with pytest.raises(ConfigurationError, match="routing policy"):
            single.serve(requests, policy="random")

    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_malformed_class_slos_raise_in_both_record_modes(
            self, record_mode):
        requests = generate_requests(4, rate=16.0, seed=5)
        with pytest.raises(ConfigurationError, match="slo_class"):
            group("2x(none)").serve(requests, record_mode=record_mode,
                                    class_slos={"premium": (1.0, 0.1)})

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_bursty_trace_completes_under_every_policy(self, policy):
        requests = generate_requests(24, rate=16.0, pattern="bursty",
                                     seed=1)  # ShareGPT-style lengths
        trace = group("2x(none)", policy=policy).serve(requests)
        assert trace.num_requests == len(requests)
        assert sorted(r.request_id for r in trace.records) == list(range(24))
        counts = trace.metadata["routing"]["dispatch_counts"]
        assert sum(counts) == 24
        assert all(count > 0 for count in counts)  # no starved replica
        assert trace.metadata["routing"]["policy"] == policy
        assert len(trace.metadata["replicas"]) == 2
        completions = [r.completion_time for r in trace.records]
        assert completions == sorted(completions)

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_serve_is_deterministic_run_to_run(self, policy):
        requests = generate_requests(16, rate=32.0, pattern="bursty", seed=2)
        first = group("2x(none)", policy=policy, seed=2).serve(requests)
        second = group("2x(none)", policy=policy, seed=2).serve(requests)
        assert first.records == second.records
        assert (first.metadata["routing"]
                == second.metadata["routing"])

    def test_sharded_replicas_serve(self):
        requests = generate_requests(8, rate=8.0, input_len=128,
                                     output_len=64, seed=1)
        duo = group("2x(tp-2)", factory=flexgen_factory, policy="jsq")
        trace = duo.serve(requests)
        assert trace.num_requests == 8
        assert trace.metadata["total_gpus"] == 4
        for replica in trace.replica_traces:
            assert replica.metadata["parallelism"]["label"] == "tp-2"

    def test_cluster_kv_budget_aggregates_replicas(self):
        requests = generate_requests(8, rate=8.0, input_len=64,
                                     output_len=32, seed=0)
        duo = group("2x(none)")
        trace = duo.serve(requests)
        expected = sum(engine.kv_budget_tokens(requests)
                       for engine in duo.engines)
        assert trace.metadata["kv_budget_tokens"] == expected

    def test_cluster_kv_budget_independent_of_routing_split(self):
        # Two requests on four replicas: round-robin starves two replicas,
        # but the reported cluster budget is a hardware fact and must not
        # shrink with the split.
        requests = generate_requests(2, rate=8.0, input_len=64,
                                     output_len=32, seed=0)
        quad = group("4x(none)")
        trace = quad.serve(requests, policy="round-robin")
        assert trace.metadata["routing"]["dispatch_counts"] == [1, 1, 0, 0]
        expected = sum(engine.kv_budget_tokens(requests)
                       for engine in quad.engines)
        assert trace.metadata["kv_budget_tokens"] == expected

    def test_equal_signatures_share_service_estimates(self):
        duo = group("2x(none)", policy="jsq")
        first, second = duo._estimates
        assert first is second
        request = generate_requests(1, rate=1.0, input_len=96,
                                    output_len=48)[0]
        estimate = duo.estimate_service_time(0, request)
        assert first == {(96, 48): estimate}
        assert duo.estimate_service_time(1, request) == estimate
        # The group's store holds the one memo both replicas read.
        assert duo.pricing.stats()["service_estimates"] == {"entries": 1}

    def test_different_signatures_keep_separate_estimates(self):
        engines = [
            ContinuousBatchingEngine(VLLMSystem(MODEL, node))
            for node in (V100_16GB_NODE, multi_gpu(V100_16GB_NODE, 2))]
        mixed = ReplicaGroup(engines, policy="jsq")
        first, second = mixed._estimates
        assert first is not second
        request = generate_requests(1, rate=1.0, input_len=96,
                                    output_len=48)[0]
        assert (mixed.estimate_service_time(0, request)
                != mixed.estimate_service_time(1, request))
        assert len(first) == len(second) == 1
        # One store, two identities: two memos of one entry each.
        assert mixed.pricing.stats()["service_estimates"] == {"entries": 2}

    @pytest.mark.parametrize("policy", ["jsq", "least-loaded",
                                        "session-affinity"])
    def test_shared_estimates_dispatch_like_per_replica_ones(self, policy):
        requests = generate_requests(40, rate=16.0, pattern="bursty",
                                     seed=7)
        shared_trace = group("3x(none)", policy=policy).serve(requests)
        separate = group("3x(none)", policy=policy)
        separate._estimates = [{} for _ in separate.engines]
        separate_trace = separate.serve(requests)
        assert (shared_trace.metadata["routing"]["dispatch_counts"]
                == separate_trace.metadata["routing"]["dispatch_counts"])
        assert shared_trace.records == separate_trace.records

    def test_scheduler_stats_summed_across_replicas(self):
        # Heavy-tailed bursty lengths, so epochs on both replicas spill out
        # of GPU memory and search schedules (epochs that fit search none).
        requests = generate_requests(48, rate=64.0, pattern="bursty", seed=3)
        trace = group("2x(none)").serve(requests)
        stats = trace.metadata["scheduler"]
        assert stats["full_solves"] >= 1
        per_replica = [replica.metadata["scheduler"]["full_solves"]
                       for replica in trace.replica_traces]
        assert stats["full_solves"] == sum(per_replica)


class _Delivery(Observer):
    """Records in the order the replica runs deliver them."""

    def __init__(self) -> None:
        self.records = []

    def on_completion(self, replica, record):
        self.records.append(record)


def test_full_cluster_records_keep_the_merge_order():
    # The reference is the rule the cluster trace used when it merged the
    # finished replica traces: a stable completion-time sort of their
    # concatenated records.  Runs deliver records live, some of them out
    # of completion order (an epoch priced late by a blocked run).
    requests = [replace(request, slo_class="interactive" if index % 3 == 0
                        else "batch")
                for index, request in enumerate(generate_requests(
                    20, 4.0, pattern="bursty", seed=3, max_len=512))]
    late = 0
    for policy, preemption, chunk in itertools.product(
            ("round-robin", "jsq"), (None, "retain"), (None, 128)):
        kwargs = {"max_batch_size": 4} if preemption else {}
        cluster = group(factory=lambda node, parallelism: VLLMSystem(
            MODEL, node, parallelism=parallelism), policy=policy, seed=3,
            preemption=preemption, prefill_chunk_tokens=chunk, **kwargs)
        delivery = _Delivery()
        trace = cluster.serve(requests, observers=[delivery])
        merged = sorted((record for replica in trace.replica_traces
                         for record in replica.records),
                        key=lambda record: record.completion_time)
        assert trace.records == merged, (policy, preemption, chunk)
        times = [record.completion_time for record in delivery.records]
        late += any(later < earlier
                    for earlier, later in zip(times, times[1:]))
    assert late > 0


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["faults=None", "crash"])
@pytest.mark.parametrize("record_mode", ["full", "streaming"])
def test_group_serve_folds_each_record_once(monkeypatch, record_mode,
                                            faulted):
    # Only the cluster trace folds a record: a replica's view tallies its
    # four figures itself.  Crashes with retry and shedding on add failed
    # and shed records, which reach the cluster trace alone.
    requests = [replace(request, slo_class="interactive" if index % 3 == 0
                        else "batch")
                for index, request in enumerate(generate_requests(
                    40, 8.0, pattern="bursty", seed=11, max_len=512))]
    kwargs = {}
    if faulted:
        kwargs = {"faults": FaultSchedule([FaultEvent(0, 1.0, 2.0),
                                           FaultEvent(1, 2.5, 3.5)]),
                  "retry": RetryPolicy(max_retries=1, backoff_s=0.05),
                  "shedding": LoadShedder()}
    folds = Counter()
    fold = TraceTotals.fold

    def counted_fold(totals, record):
        folds[record.request_id] += 1
        return fold(totals, record)

    monkeypatch.setattr(TraceTotals, "fold", counted_fold)
    trace = group(factory=flexgen_factory, policy="jsq").serve(
        requests, record_mode=record_mode, **kwargs)
    summary = trace.summary()
    monkeypatch.undo()
    assert folds == Counter(request.request_id for request in requests)
    if faulted:
        assert summary["num_failed"] > 0 and summary["num_shed"] > 0


class TestClusterSweep:
    @pytest.fixture(scope="class")
    def result(self):
        # A bursty ShareGPT-style trace on two single-GPU replicas: at 16
        # req/s both routers keep up; at 32 req/s round-robin's blind split
        # parks long conversations behind each other while JSQ's KV-token
        # queue view keeps the replicas drained.
        return run_experiment(
            "serving_rate_sweep", rates=(16.0, 32.0), num_requests=40,
            pattern="bursty", input_len=None, output_len=None, seed=0,
            cluster=("2x(tp-1)",), routing=("round-robin", "jsq"))

    def test_one_invocation_compares_equal_gpu_layouts(self):
        result = run_experiment(
            "serving_rate_sweep", rates=(8.0,), num_requests=8,
            input_len=64, output_len=32,
            cluster=("tp-4", "2x(tp-2)", "4x(tp-1)"), routing="jsq")
        combos = {(row["cluster"], row["num_replicas"], row["gpu_count"])
                  for row in result.rows}
        assert combos == {("tp-4", 1, 4), ("2x(tp-2)", 2, 4),
                          ("4x(none)", 4, 4)}
        assert len(result.rows) == 3 * 3  # layouts x systems
        assert result.notes["cluster"] == ("tp-4", "2x(tp-2)", "4x(none)")

    def test_unequal_gpu_layouts_rejected_by_default(self):
        with pytest.raises(ConfigurationError, match="unequal GPU counts"):
            run_experiment("serving_rate_sweep", rates=(8.0,),
                           num_requests=4, input_len=64, output_len=32,
                           cluster=("tp-2", "4x(tp-1)"))
        result = run_experiment("serving_rate_sweep", rates=(8.0,),
                                num_requests=4, input_len=64, output_len=32,
                                cluster=("tp-2", "4x(tp-1)"),
                                require_equal_gpus=False)
        assert {row["gpu_count"] for row in result.rows} == {2, 4}

    def test_cluster_and_parallelism_axes_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            run_experiment("serving_rate_sweep", rates=(8.0,),
                           num_requests=4, input_len=64, output_len=32,
                           cluster=("2x(tp-1)",), parallelism=("tp-2",))

    def test_routing_without_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="cluster axis"):
            run_experiment("serving_rate_sweep", rates=(8.0,),
                           num_requests=4, input_len=64, output_len=32,
                           routing="jsq")

    def test_jsq_sustains_strictly_higher_rate_than_round_robin(self, result):
        round_robin = max_sustained_rate(result, system="alisa",
                                         cluster="2x(tp-1)",
                                         routing="round-robin",
                                         max_queueing_delay_s=0.13)
        jsq = max_sustained_rate(result, system="alisa", cluster="2x(tp-1)",
                                 routing="jsq", max_queueing_delay_s=0.13)
        assert jsq > round_robin
        assert round_robin > 0.0

    def test_rows_carry_cluster_columns(self, result):
        for row in result.rows:
            assert row["cluster"] == "2x(none)"
            assert row["num_replicas"] == 2
            assert row["routing"] in ("round-robin", "jsq")
            assert sum(row["dispatch_counts"]) == 40
            assert row["tokens_imbalance"] >= 1.0
        assert result.notes["routing"] == ("round-robin", "jsq")
        assert result.notes["seed"] == 0

    def test_sweep_is_deterministic(self):
        kwargs = dict(rates=(16.0,), num_requests=12, pattern="bursty",
                      input_len=None, output_len=None, seed=3,
                      cluster=("2x(tp-1)",), routing="jsq")
        first = run_experiment("serving_rate_sweep", **kwargs)
        second = run_experiment("serving_rate_sweep", **kwargs)
        assert first.rows == second.rows
