"""SLO-violation attribution: decompose request latency into components.

A request that misses its class SLO spent its end-to-end latency in four
places, and the blame table says which one dominated:

* **queueing** — arrival to (first) admission, waiting for KV room;
* **prefill** — prefill passes and chunks while resident, *including*
  stalls behind other requests' chunks (decode never runs while a chunk
  backlog drains, so that wait is prefill-induced);
* **preemption** — evicted intervals: the swap-out, the wait for
  re-admission, and the swap-in;
* **decode** — everything else: the decode epochs the request actually
  participated in.

Components are derived from a :class:`~repro.obs.spans.SpanTracer`'s
per-request segments.  ``decode_s`` is computed as the *remainder*
``e2e - queueing - prefill - preemption`` rather than summed from decode
segments, so the four components sum back to each request's end-to-end
latency up to float re-association (a few ulps — addition is not
associative, so bit-exactness is unattainable; the invariant is
property-tested at ``rel=1e-12`` in ``tests/test_obs.py``).  The
remainder also absorbs the clock advances a request merely *waits
through* while resident — e.g. other requests' preemption swap traffic
during an admission round — which is decode-adjacent interference, not
queueing.
"""

from __future__ import annotations

from repro.serving.trace import normalize_class_slos

#: Component keys of one request's latency decomposition, in blame order.
COMPONENTS = ("queueing_s", "prefill_s", "preemption_s", "decode_s")


def request_components(record, segments) -> dict:
    """Decompose one completed request's latency from its span segments.

    ``segments`` is the request's coalesced ``(category, start, end)``
    list (see :meth:`repro.obs.spans.SpanTracer.spans_for`).  Returns the
    four :data:`COMPONENTS` plus ``total_s``; the components sum exactly
    to ``total_s``.
    """
    return latency_components(
        record,
        sum(end - start for category, start, end in segments
            if category == "prefill"),
        sum(end - start for category, start, end in segments
            if category == "preempted"))


def latency_components(record, prefill, preemption) -> dict:
    """The :func:`request_components` dict from the request's summed
    ``prefill`` and ``preemption`` span time; ``decode_s`` is the
    remainder."""
    queueing = record.admission_time - record.arrival_time
    total = record.e2e_latency
    return {
        "queueing_s": queueing,
        "prefill_s": prefill,
        "preemption_s": preemption,
        "decode_s": total - queueing - prefill - preemption,
        "total_s": total,
    }


def violations(record, class_slos: dict) -> tuple[bool, bool]:
    """``(ttft_violated, tpot_violated)`` of one record against its class.

    ``class_slos`` must already be normalized (``{name: (ttft, tpot)}``);
    a class without an entry — or a ``None`` dimension — is unconstrained.
    """
    ttft_slo, tpot_slo = class_slos.get(record.slo_class, (None, None))
    return (ttft_slo is not None and record.ttft > ttft_slo,
            tpot_slo is not None and record.tpot > tpot_slo)


def blame_table(entries, class_slos: dict | None) -> dict:
    """Aggregate per-request components into the per-class blame table.

    ``entries`` is an iterable of ``(record, components)`` pairs (every
    completed request, with :func:`request_components` output).  Only
    requests violating their class SLO contribute to the summed component
    columns — the table answers "where did the violators' time go", per
    class.  ``dominant`` names each class's largest summed component
    (``None`` when the class had no violations).

    The table is what serves land in ``trace.metadata["slo_attribution"]``
    and what ``python -m repro.obs.report`` renders.
    """
    slos = normalize_class_slos(class_slos)
    classes: dict[str, dict] = {}
    total_violations = 0
    for record, components in entries:
        row = classes.get(record.slo_class)
        if row is None:
            row = classes[record.slo_class] = {
                "requests": 0, "violations": 0,
                "ttft_violations": 0, "tpot_violations": 0,
                **{key: 0.0 for key in COMPONENTS}, "total_s": 0.0,
            }
        row["requests"] += 1
        ttft_violated, tpot_violated = violations(record, slos)
        if not (ttft_violated or tpot_violated):
            continue
        row["violations"] += 1
        row["ttft_violations"] += ttft_violated
        row["tpot_violations"] += tpot_violated
        total_violations += 1
        for key in COMPONENTS:
            row[key] += components[key]
        row["total_s"] += components["total_s"]
    for row in classes.values():
        row["dominant"] = (max(COMPONENTS, key=lambda key: row[key])
                           if row["violations"] else None)
    return {
        "class_slos": {name: list(slo) for name, slo in slos.items()},
        "violations": total_violations,
        "classes": dict(sorted(classes.items())),
    }


def format_blame_table(table: dict) -> str:
    """Render a blame table as the aligned text block the CLI prints."""
    lines = [f"SLO violations: {table['violations']}"]
    header = (f"{'class':>12s} {'requests':>9s} {'violations':>11s} "
              f"{'queueing_s':>11s} {'prefill_s':>10s} "
              f"{'preemption_s':>13s} {'decode_s':>9s} {'dominant':>11s}")
    lines.append(header)
    for name, row in table["classes"].items():
        lines.append(
            f"{name:>12s} {row['requests']:>9d} {row['violations']:>11d} "
            f"{row['queueing_s']:>11.3f} {row['prefill_s']:>10.3f} "
            f"{row['preemption_s']:>13.3f} {row['decode_s']:>9.3f} "
            f"{str(row['dominant']):>11s}")
    return "\n".join(lines)
