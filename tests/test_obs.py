"""Tests for the simulated-time observability layer (repro.obs).

Pins the tentpole contracts: serves with no observers stay bit-identical
to the golden journal pins, observed serves change nothing about the
trace, SpanTracer's Chrome export validates against the trace-event
schema, span boundaries reconcile exactly with RequestRecord timings, and
each violating request's SLO attribution components sum exactly to its
end-to-end latency (property-tested).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup
from repro.experiments import run_experiment
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.obs import (
    MetricsTimeline,
    Observer,
    SpanTracer,
    blame_table,
    format_blame_table,
    request_components,
)
from repro.obs.attribution import COMPONENTS
from repro.obs.report import main as report_main
from repro.obs.report import render
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine
from repro.serving.events import (
    ARRIVAL,
    COMPLETION,
    check_observers,
    observer_hooks,
)
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"

CLASS_SLOS = {"interactive": (0.5, 0.05), "batch": (30.0, 2.0)}


def engine(system=FlexGenSystem, *, max_batch_size=None, preemption=None,
           chunk=None, **kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(
        system(MODEL, V100_16GB_NODE, **kwargs),
        max_batch_size=max_batch_size, preemption=preemption,
        prefill_chunk_tokens=chunk)


def requests(n=16, rate=4.0, seed=3, **kwargs):
    return generate_requests(n, rate, pattern="bursty", seed=seed,
                             max_len=512, **kwargs)


def contended_mix():
    """Long batch prompts plus interactive preemptors (see
    tests/test_chunked_prefill.py)."""
    reqs = [Request(request_id=i, arrival_time=0.0, input_len=480,
                    output_len=48, slo_class="batch") for i in range(4)]
    for j, arrival in enumerate((0.03, 0.12, 0.25, 0.40)):
        reqs.append(Request(request_id=4 + j, arrival_time=arrival,
                            input_len=48, output_len=24,
                            slo_class="interactive"))
    return reqs


def group(**engine_kwargs) -> ReplicaGroup:
    def build(node, parallelism):
        return FlexGenSystem(MODEL, node, parallelism=parallelism)
    return ReplicaGroup.from_layout(build, "2x(none)", V100_16GB_NODE,
                                    policy="least-loaded", seed=3,
                                    **engine_kwargs)


# --------------------------------------------------------------------- #
# Bit-identity: observation never perturbs the simulation
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_no_observers_reproduces_golden_pin(self):
        # The PR 8 golden numbers (tests/test_serving_events.py) with the
        # observer plumbing merged but no observers registered.
        trace = engine().serve(requests())
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.metadata["num_epochs"] == 24
        assert trace.metadata["num_decode_steps"] == 605

    def test_observed_serve_reproduces_golden_pin(self):
        trace = engine().serve(requests(),
                               observers=[SpanTracer(), MetricsTimeline()])
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.metadata["num_epochs"] == 24
        assert trace.metadata["num_decode_steps"] == 605

    @pytest.mark.parametrize("system", [FlexGenSystem, VLLMSystem])
    def test_records_identical_with_and_without_observers(self, system):
        base = engine(system).serve(requests())
        observed = engine(system).serve(
            requests(), observers=[SpanTracer(), MetricsTimeline()],
            class_slos=CLASS_SLOS)
        assert observed.records == base.records
        assert observed.summary() == base.summary()

    @pytest.mark.parametrize("mode", ["retain", "recompute"])
    def test_preempting_chunked_serve_identical(self, mode):
        mix = contended_mix()
        base = engine(chunk=32, max_batch_size=4, preemption=mode).serve(mix)
        observed = engine(chunk=32, max_batch_size=4,
                          preemption=mode).serve(
            mix, observers=[SpanTracer()], class_slos=CLASS_SLOS)
        assert base.num_preemptions > 0
        assert observed.records == base.records

    def test_cluster_serve_identical_and_journal_equal(self):
        base_journal, observed_journal = [], []
        base = group().serve(requests(n=24), event_journal=base_journal)
        observed = group().serve(requests(n=24),
                                 event_journal=observed_journal,
                                 observers=[SpanTracer(),
                                            MetricsTimeline()],
                                 class_slos=CLASS_SLOS)
        assert observed_journal == base_journal
        assert sorted(r.request_id for r in observed.records) == \
            sorted(r.request_id for r in base.records)
        assert observed.summary() == base.summary()

    def test_on_event_stream_equals_event_journal(self):
        class Recorder(Observer):
            def __init__(self):
                self.events = []

            def on_event(self, time, kind, replica):
                self.events.append((time, kind, replica))

        journal = []
        recorder = Recorder()
        group().serve(requests(n=24), event_journal=journal,
                      observers=[recorder])
        assert recorder.events == journal
        kinds = {kind for _, kind, _ in recorder.events}
        assert ARRIVAL in kinds and COMPLETION in kinds


# --------------------------------------------------------------------- #
# Observer argument validation
# --------------------------------------------------------------------- #
class TestObserverValidation:
    def test_bare_observer_rejected(self):
        with pytest.raises(ConfigurationError):
            engine().serve(requests(n=4), observers=SpanTracer())

    def test_non_observer_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            engine().serve(requests(n=4), observers=[object()])

    def test_exact_stepping_rejected(self):
        # The clock-stepped option is gone: systems refuse the keyword.
        with pytest.raises(TypeError, match="exact_stepping"):
            engine(exact_stepping=True)

    def test_cluster_exact_stepping_rejected(self):
        def build(node, parallelism):
            return FlexGenSystem(MODEL, node, parallelism=parallelism,
                                 exact_stepping=True)
        with pytest.raises(TypeError, match="exact_stepping"):
            ReplicaGroup.from_layout(build, "2x(none)", V100_16GB_NODE)

    def test_check_observers_canonicalises(self):
        assert check_observers(None) == ()
        assert check_observers([]) == ()
        tracer = SpanTracer()
        assert check_observers([tracer]) == (tracer,)


    def test_dispatch_skips_inherited_no_op_callbacks(self):
        class EpochCounter(Observer):
            def __init__(self):
                self.epochs = 0
                self.events = 0

            def on_epoch(self, *args):
                self.epochs += 1

        class DuckTyped:
            """Implements every callback without subclassing Observer."""

            def __init__(self):
                self.events = 0

            def on_event(self, time, kind, replica):
                self.events += 1

            def __getattr__(self, name):
                if name.startswith("on_") or name == "finish":
                    return lambda *args, **kwargs: None
                raise AttributeError(name)

        counter, duck, noop = EpochCounter(), DuckTyped(), Observer()
        observers = (noop, counter, duck)
        assert observer_hooks((noop, counter), "on_epoch") \
            == (counter.on_epoch,)
        assert observer_hooks(observers, "on_event") == (duck.on_event,)
        # Callbacks not inherited from Observer are always dispatched.
        assert len(observer_hooks(observers, "on_epoch")) == 2
        assert observer_hooks((noop,), "on_admission") == ()
        engine().serve(requests(n=8), observers=list(observers))
        # Overridden and duck-typed callbacks still fire.
        assert counter.epochs > 0 and duck.events > 0


# --------------------------------------------------------------------- #
# Span / record reconciliation
# --------------------------------------------------------------------- #
class TestSpanReconciliation:
    def test_queue_span_is_arrival_to_admission(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(), observers=[tracer])
        for record in trace.records:
            spans = tracer.spans_for(record.request_id)
            category, start, end = spans[0]
            assert category == "queue"
            assert start == record.arrival_time
            assert end == record.admission_time

    def test_last_span_ends_at_completion(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(), observers=[tracer])
        for record in trace.records:
            spans = tracer.spans_for(record.request_id)
            assert spans[-1][2] == record.completion_time

    def test_first_decode_epoch_carries_first_token_time(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(), observers=[tracer])
        for record in trace.records:
            state = tracer._states[record.request_id]
            assert state.first_token == record.first_token_time

    def test_spans_are_chronological_and_within_lifetime(self):
        tracer = SpanTracer()
        trace = engine(chunk=48, max_batch_size=4,
                       preemption="retain").serve(
            contended_mix(), observers=[tracer])
        for record in trace.records:
            cursor = record.arrival_time
            for category, start, end in tracer.spans_for(record.request_id):
                assert category in ("queue", "prefill", "decode",
                                    "preempted")
                assert start >= cursor or start == pytest.approx(cursor)
                assert end >= start
                cursor = end
            assert cursor == record.completion_time

    def test_unknown_request_raises(self):
        tracer = SpanTracer()
        engine().serve(requests(n=4), observers=[tracer])
        with pytest.raises(ConfigurationError):
            tracer.spans_for(99999)


# --------------------------------------------------------------------- #
# SLO-violation attribution
# --------------------------------------------------------------------- #
class TestAttribution:
    def test_components_sum_exactly_to_e2e(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(), observers=[tracer],
                               class_slos=CLASS_SLOS)
        for record in trace.records:
            components = tracer.components[record.request_id]
            total = (components["queueing_s"] + components["prefill_s"]
                     + components["preemption_s"] + components["decode_s"])
            # decode is the remainder, so the sum reconstructs the e2e
            # latency up to float re-association (a few ulps).
            assert components["total_s"] == record.e2e_latency
            assert total == pytest.approx(record.e2e_latency, rel=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 16),
           rate=st.sampled_from([1.0, 4.0, 16.0]),
           mode=st.sampled_from([None, "retain", "recompute"]))
    def test_property_components_sum_and_are_nonnegative(self, seed, n,
                                                         rate, mode):
        tracer = SpanTracer()
        trace = engine(max_batch_size=4, preemption=mode).serve(
            generate_requests(n, rate, pattern="bursty", seed=seed,
                              max_len=256),
            observers=[tracer], class_slos=CLASS_SLOS)
        assert trace.num_requests == n
        for record in trace.records:
            components = tracer.components[record.request_id]
            assert sum(components[key] for key in COMPONENTS) == \
                pytest.approx(record.e2e_latency, rel=1e-12)
            for key in COMPONENTS:
                assert components[key] >= -1e-12, (key, components)

    def test_crashed_replicas_requests_stop_collecting_its_stalls(self):
        # Crash replica 1, then replica 0: the requests each crash
        # interrupts retry on the other replica and must not keep
        # collecting the failed replica's prefill stalls after recovery.
        tracer = SpanTracer()
        faults = FaultSchedule([FaultEvent(1, 1.5, 2.5, mode="crash"),
                                FaultEvent(0, 3.5, 4.5, mode="crash")])
        trace = group().serve(
            requests(n=24), observers=[tracer], faults=faults,
            retry=RetryPolicy(max_retries=2, backoff_s=0.05),
            class_slos=CLASS_SLOS)
        completed = [r for r in trace.records if r.status == "completed"]
        assert len(completed) == 24
        assert any(r.retries for r in completed)
        for record in completed:
            components = tracer.components[record.request_id]
            for key in COMPONENTS:
                assert components[key] >= -1e-12, (key, components)
            assert sum(components[key] for key in COMPONENTS) == \
                pytest.approx(record.e2e_latency, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 16),
           rate=st.sampled_from([1.0, 4.0, 16.0]),
           fault_mode=st.sampled_from(["crash", "drain"]),
           preemption=st.sampled_from([None, "retain", "recompute"]),
           first=st.floats(0.0, 0.4), second=st.floats(0.5, 0.9))
    def test_property_components_under_crash_and_drain(
            self, seed, n, rate, fault_mode, preemption, first, second):
        arrivals = generate_requests(n, rate, pattern="bursty", seed=seed,
                                     max_len=256)
        horizon = arrivals[-1].arrival_time + 1.0
        faults = FaultSchedule([
            FaultEvent(1, first * horizon, (first + 0.1) * horizon,
                       mode=fault_mode),
            FaultEvent(0, second * horizon, (second + 0.1) * horizon,
                       mode=fault_mode)])
        tracer = SpanTracer()
        trace = group(max_batch_size=4 if preemption else None,
                      preemption=preemption).serve(
            arrivals, observers=[tracer], faults=faults,
            retry=RetryPolicy(max_retries=4, backoff_s=0.05),
            class_slos=CLASS_SLOS)
        for record in trace.records:
            if record.status != "completed":
                continue
            components = tracer.components[record.request_id]
            assert sum(components[key] for key in COMPONENTS) == \
                pytest.approx(record.e2e_latency, rel=1e-12)
            # A retried request's queueing_s runs to its last admission,
            # so it also covers the first attempts' prefill and decode,
            # and only its decode remainder may go negative.
            checked = COMPONENTS if not record.retries else (
                "queueing_s", "prefill_s", "preemption_s")
            for key in checked:
                assert components[key] >= -1e-12, (key, components)
            cursor = record.arrival_time
            for _, start, end in tracer.spans_for(record.request_id):
                assert start >= cursor and end >= start
                cursor = end
            assert cursor == record.completion_time

    def test_preempted_requests_blame_preemption(self):
        tracer = SpanTracer()
        trace = engine(chunk=32, max_batch_size=4,
                       preemption="retain").serve(
            contended_mix(), observers=[tracer], class_slos=CLASS_SLOS)
        preempted = [r for r in trace.records if r.preemptions > 0]
        assert preempted
        assert any(tracer.components[r.request_id]["preemption_s"] > 0
                   for r in preempted)

    def test_blame_table_attached_to_trace_metadata(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(), observers=[tracer],
                               class_slos=CLASS_SLOS)
        table = trace.metadata["slo_attribution"]
        assert table is tracer.attribution
        assert table["violations"] == sum(
            row["violations"] for row in table["classes"].values())
        for row in table["classes"].values():
            if row["violations"]:
                assert row["dominant"] in COMPONENTS
                assert row["total_s"] == pytest.approx(
                    sum(row[key] for key in COMPONENTS))
            else:
                assert row["dominant"] is None

    def test_no_class_slos_means_no_metadata_entry(self):
        tracer = SpanTracer()
        trace = engine().serve(requests(n=8), observers=[tracer])
        assert "slo_attribution" not in trace.metadata
        # Components are still computed for every completed request.
        assert len(tracer.components) == 8

    def test_blame_table_only_counts_violators(self):
        # A generous SLO admits everything: zero violations, zero blame.
        tracer = SpanTracer()
        trace = engine().serve(
            requests(n=8), observers=[tracer],
            class_slos={"interactive": (1e6, 1e6), "batch": (1e6, 1e6)})
        table = trace.metadata["slo_attribution"]
        assert table["violations"] == 0
        for row in table["classes"].values():
            assert row[COMPONENTS[0]] == 0.0

    def test_format_blame_table_renders_all_classes(self):
        entries = []
        for record_id in range(3):
            record = engine().serve(requests(n=4)).records[record_id]
            entries.append((record, request_components(record, [])))
        table = blame_table(entries, CLASS_SLOS)
        text = format_blame_table(table)
        assert "SLO violations" in text
        for name in table["classes"]:
            assert name in text


# --------------------------------------------------------------------- #
# Chrome trace export
# --------------------------------------------------------------------- #
class TestChromeTrace:
    def serve_traced(self, **kwargs):
        tracer = SpanTracer()
        trace = engine(**kwargs).serve(requests(), observers=[tracer],
                                       class_slos=CLASS_SLOS)
        return tracer, trace

    def test_schema_valid(self):
        tracer, _ = self.serve_traced()
        payload = tracer.to_chrome_trace()
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        for event in payload["traceEvents"]:
            assert event["ph"] in ("M", "X", "b", "e")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["name"], str)
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                assert "name" in event["args"]
            else:
                assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] in ("b", "e"):
                assert isinstance(event["id"], str)
                assert event["cat"] == "request"

    def test_async_begin_end_pairs_balance(self):
        tracer, _ = self.serve_traced()
        open_spans = {}
        for event in tracer.to_chrome_trace()["traceEvents"]:
            if event["ph"] not in ("b", "e"):
                continue
            key = (event["id"], event["name"])
            if event["ph"] == "b":
                open_spans[key] = open_spans.get(key, 0) + 1
            else:
                open_spans[key] = open_spans.get(key, 0) - 1
        assert all(count == 0 for count in open_spans.values())

    def test_span_times_scale_to_microseconds(self):
        tracer, trace = self.serve_traced()
        record = trace.records[0]
        begins = [event for event in tracer.to_chrome_trace()["traceEvents"]
                  if event["ph"] == "b"
                  and event["name"] == f"request-{record.request_id}"]
        assert len(begins) == 1
        assert begins[0]["ts"] == record.arrival_time * 1e6

    def test_export_roundtrips_and_is_json(self, tmp_path):
        tracer, trace = self.serve_traced()
        path = tracer.export(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["otherData"]["slo_attribution"] == \
            json.loads(json.dumps(trace.metadata["slo_attribution"]))
        requests_payload = payload["otherData"]["requests"]
        assert len(requests_payload) == trace.num_requests
        for entry in requests_payload.values():
            assert sum(entry["components"][key] for key in COMPONENTS) == \
                pytest.approx(entry["e2e_s"], abs=1e-12)

    def test_one_process_per_replica_in_cluster_serve(self):
        tracer = SpanTracer()
        group().serve(requests(n=24), observers=[tracer],
                      class_slos=CLASS_SLOS)
        payload = tracer.to_chrome_trace()
        process_names = {event["pid"]: event["args"]["name"]
                         for event in payload["traceEvents"]
                         if event["ph"] == "M"
                         and event["name"] == "process_name"}
        assert process_names == {0: "replica-0", 1: "replica-1"}


# --------------------------------------------------------------------- #
# Metrics timeline
# --------------------------------------------------------------------- #
class TestMetricsTimeline:
    def test_rows_are_tidy_and_cover_makespan(self):
        timeline = MetricsTimeline(interval_s=1.0)
        trace = engine().serve(requests(), observers=[timeline])
        rows = timeline.rows()
        assert rows
        assert set(rows[0]) == {"time_s", "replica", "metric", "value"}
        times = sorted({row["time_s"] for row in rows})
        assert times[0] == 1.0
        assert times[-1] == pytest.approx(trace.duration)
        metrics = {row["metric"] for row in rows}
        assert {"batch_size", "queue_depth", "kv_occupancy",
                "prefix_hit_rate", "preemption_rate"} <= metrics

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            MetricsTimeline(interval_s=0.0)

    def test_kv_occupancy_bounded_and_batch_nonnegative(self):
        timeline = MetricsTimeline(interval_s=0.5)
        engine().serve(requests(), observers=[timeline])
        for row in timeline.rows():
            if row["metric"].startswith("kv_occupancy"):
                assert 0.0 <= row["value"] <= 1.0
            if row["metric"] == "batch_size":
                assert row["value"] >= 0.0

    def test_queue_depth_by_class_with_priority_engine(self):
        timeline = MetricsTimeline(interval_s=0.25)
        engine(max_batch_size=4, preemption="retain").serve(
            contended_mix(), observers=[timeline])
        metrics = {row["metric"] for row in timeline.rows()}
        assert "queue_depth:interactive" in metrics
        assert "queue_depth:batch" in metrics

    def test_csv_and_json_roundtrip(self, tmp_path):
        timeline = MetricsTimeline(interval_s=1.0)
        engine().serve(requests(n=8), observers=[timeline])
        csv_path = timeline.to_csv(tmp_path / "timeline.csv")
        json_path = timeline.to_json(tmp_path / "timeline.json")
        header = csv_path.read_text().splitlines()[0]
        assert header == "time_s,replica,metric,value"
        rows = json.loads(json_path.read_text())
        assert rows == timeline.rows()

    def test_cluster_timeline_samples_every_replica(self):
        timeline = MetricsTimeline(interval_s=1.0)
        group().serve(requests(n=24), observers=[timeline])
        assert {row["replica"] for row in timeline.rows()} == {0, 1}


# --------------------------------------------------------------------- #
# Report CLI
# --------------------------------------------------------------------- #
class TestReportCli:
    def test_cli_renders_exported_trace(self, tmp_path, capsys):
        tracer = SpanTracer()
        engine().serve(requests(), observers=[tracer],
                       class_slos=CLASS_SLOS)
        path = tracer.export(tmp_path / "trace.json")
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO violations" in out
        assert "total seconds by component" in out

    def test_cli_rejects_missing_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_rejects_non_export(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert report_main([str(path)]) == 1
        assert "not an observability export" in capsys.readouterr().err

    def test_render_without_slos_reports_components(self):
        tracer = SpanTracer()
        engine().serve(requests(n=4), observers=[tracer])
        text = render(tracer.to_chrome_trace())
        assert "without" in text and "components" in text


# --------------------------------------------------------------------- #
# Satellites: cluster metadata, wall clock, sweep columns
# --------------------------------------------------------------------- #
class TestClusterMetadata:
    def test_epoch_cache_aggregate_sums_replica_deltas(self):
        trace = group().serve(requests(n=24))
        aggregate = trace.metadata["epoch_cache"]
        replica_totals = {"hits": 0, "misses": 0}
        for replica_trace in trace.replica_traces:
            cache = replica_trace.metadata.get("epoch_cache")
            if cache:
                replica_totals["hits"] += cache["hits"]
                replica_totals["misses"] += cache["misses"]
        assert aggregate == replica_totals
        assert aggregate["misses"] > 0

    def test_wall_clock_metadata_on_every_serve_surface(self):
        single = engine().serve(requests(n=8))
        cluster = group().serve(requests(n=8))
        streaming = engine().serve(requests(n=8), record_mode="streaming")
        for trace in (single, cluster, streaming):
            assert trace.metadata["wall_clock_s"] > 0.0

    def test_cluster_attribution_spans_replicas(self):
        tracer = SpanTracer()
        trace = group().serve(requests(n=24), observers=[tracer],
                              class_slos=CLASS_SLOS)
        table = trace.metadata["slo_attribution"]
        assert sum(row["requests"] for row in table["classes"].values()) \
            == trace.num_requests
        replicas = {tracer._states[r.request_id].replica
                    for r in trace.records}
        assert replicas == {0, 1}

    def test_closed_loop_cluster_with_observers(self):
        spec = sessions(8, 2.0, seed=3)
        tracer = SpanTracer()
        trace = group().serve(spec.closed_loop(), observers=[tracer],
                              class_slos=CLASS_SLOS)
        base = group().serve(spec.closed_loop())
        assert sorted(r.request_id for r in trace.records) == \
            sorted(r.request_id for r in base.records)
        for record in trace.records:
            components = tracer.components[record.request_id]
            assert sum(components[key] for key in COMPONENTS) == \
                pytest.approx(record.e2e_latency, rel=1e-12)


class TestSweepObservers:
    def test_observers_factory_adds_attribution_columns(self):
        result = run_experiment(
            "serving_rate_sweep", rates=(4.0,), num_requests=12,
            slo_classes={"interactive": (0.5, 0.05)},
            observers=lambda: [SpanTracer()])
        for row in result.rows:
            assert "slo_violations" in row
            for key in COMPONENTS:
                assert f"blame_{key}" in row
        assert any(row["slo_violations"] > 0 for row in result.rows)

    def test_rows_rectangular_without_observers(self):
        result = run_experiment("serving_rate_sweep", rates=(4.0,),
                                num_requests=8)
        for row in result.rows:
            assert row["slo_violations"] == 0
            assert row["blame_queueing_s"] == 0.0

    def test_non_callable_observers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("serving_rate_sweep", rates=(4.0,),
                           num_requests=8, observers=[SpanTracer()])


# --------------------------------------------------------------------- #
# Prefix-cache observation
# --------------------------------------------------------------------- #
class TestPrefixObservation:
    def test_session_serve_reports_hits_and_misses(self):
        spec = sessions(8, 2.0, seed=3)

        class PrefixCounter(Observer):
            def __init__(self):
                self.counts = {"hit": 0, "miss": 0, "evict": 0}

            def on_prefix(self, replica, time, event, session_id, tokens):
                self.counts[event] += 1

        counter = PrefixCounter()
        trace = engine().serve(spec.requests(), observers=[counter])
        prefix_bearing = sum(1 for r in trace.records if r.prefix_len > 0)
        assert counter.counts["hit"] + counter.counts["miss"] == \
            prefix_bearing
        assert counter.counts["hit"] > 0
