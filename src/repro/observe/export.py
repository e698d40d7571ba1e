"""Chrome trace-event / Perfetto JSON export of a :class:`Tracer`.

The produced object follows the Trace Event Format (the JSON flavour both
``chrome://tracing`` and https://ui.perfetto.dev load):

* one **pid** per cluster machine (plus a ``cluster`` pseudo-process for
  the client, RM, job roots, and fault injector), named via ``M`` metadata
  events;
* one **tid** per container / daemon lane within its process;
* sync spans as matched ``B``/``E`` duration events (properly nested per
  tid by construction; a span that cannot nest falls back to a single
  ``X`` complete event);
* async spans (overlapping fabric flows) as ``b``/``e`` async pairs;
* instants (fault injections, telemetry alerts) as ``i`` events;
* telemetry ring-buffer series (when a :class:`repro.telemetry.Telemetry`
  is passed) as ``C`` counter events under a ``telemetry`` pseudo-process,
  so scraped time series render as counter tracks overlaying the spans;
* timestamps in microseconds of simulated time, globally non-decreasing.

:func:`validate_trace_events` re-checks all of that on an arbitrary parsed
object — the CI profile-smoke job runs it against the emitted file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .tracer import ASYNC, CLUSTER

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import Span, Tracer

_EPS = 1e-9


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (rounded for stable JSON)."""
    return round(t * 1e6, 3)


def _process_order(nodes: set[str]) -> list[str]:
    """CLUSTER first, then machines in sorted order."""
    rest = sorted(n for n in nodes if n != CLUSTER)
    return ([CLUSTER] if CLUSTER in nodes else []) + rest


def _emit_sync_lane(spans: list["Span"], pid: int, tid: int,
                    clip_end: float) -> list[dict]:
    """B/E events for one lane, nested by construction.

    Spans are replayed against a stack: anything that cannot nest inside
    the currently-open span is emitted as a standalone ``X`` event instead,
    so the B/E stream always balances. Open spans are clipped to
    ``clip_end``.
    """
    events: list[dict] = []
    stack: list[tuple[float, str]] = []  # (end, name) of open spans

    def close_until(t: float) -> None:
        while stack and stack[-1][0] <= t + _EPS:
            end, name = stack.pop()
            events.append({"ph": "E", "name": name, "pid": pid, "tid": tid,
                           "ts": _us(end)})

    ordered = sorted(spans, key=lambda s: (s.start, -(s.end - s.start), s.sid))
    for span in ordered:
        end = span.end if span.end is not None else clip_end
        close_until(span.start)
        base = {"name": span.name, "cat": span.cat, "pid": pid, "tid": tid,
                "ts": _us(span.start)}
        if span.args:
            base["args"] = dict(span.args)
        if end <= span.start + _EPS:
            base["ph"] = "X"
            base["dur"] = 0
            events.append(base)
            continue
        if stack and end > stack[-1][0] + _EPS:
            # Partial overlap with the open span: not nestable -> X.
            base["ph"] = "X"
            base["dur"] = max(0.0, _us(end) - _us(span.start))
            events.append(base)
            continue
        base["ph"] = "B"
        events.append(base)
        stack.append((end, span.name))
    close_until(float("inf"))
    return events


def _counter_track_name(ring: Any) -> str:
    if not ring.labels:
        return ring.name
    inner = ",".join(f"{k}={v}" for k, v in ring.labels)
    return f"{ring.name}[{inner}]"


def telemetry_counter_events(telemetry: Any, pid: int) -> tuple[list[dict], list[dict]]:
    """``M`` + ``C`` events for every retained telemetry series."""
    meta = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": "telemetry"}},
        {"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
         "args": {"sort_index": pid}},
    ]
    events: list[dict] = []
    for ring in telemetry.scraper.all_series():
        name = _counter_track_name(ring)
        for t, v in zip(ring.times, ring.values):
            events.append({"ph": "C", "name": name, "pid": pid, "tid": 0,
                           "ts": _us(t), "args": {"value": round(v, 6)}})
    return meta, events


def to_trace_events(tracer: "Tracer", trace_name: str = "repro",
                    telemetry: Any = None) -> dict:
    """Render ``tracer``'s records as a trace-event JSON object (a dict)."""
    spans = tracer.closed_spans() + [s for s in tracer.spans if s.end is None]
    nodes = ({s.node for s in tracer.spans}
             | {i.node for i in tracer.instants}) or {CLUSTER}
    clip_end = max(
        [s.end for s in tracer.spans if s.end is not None]
        + [s.start for s in tracer.spans]
        + [i.ts for i in tracer.instants] + [tracer.env.now], default=0.0)

    pids = {node: i + 1 for i, node in enumerate(_process_order(nodes))}
    # tid 0 is reserved for metadata; lanes are numbered per process in
    # sorted order so the export is byte-stable run to run.
    lanes_by_node: dict[str, list[str]] = {}
    for record in [*tracer.spans, *tracer.instants]:
        lanes = lanes_by_node.setdefault(record.node, [])
        if record.lane not in lanes:
            lanes.append(record.lane)
    tids = {(node, lane): t + 1
            for node, lanes in lanes_by_node.items()
            for t, lane in enumerate(sorted(lanes))}

    meta: list[dict] = []
    for node, pid in pids.items():
        meta.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                     "args": {"name": node}})
        meta.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                     "tid": 0, "args": {"sort_index": pid}})
    for (node, lane), tid in sorted(tids.items(),
                                    key=lambda kv: (pids[kv[0][0]], kv[1])):
        meta.append({"ph": "M", "name": "thread_name", "pid": pids[node],
                     "tid": tid, "args": {"name": lane}})

    timed: list[dict] = []
    sync_lanes: dict[tuple[str, str], list["Span"]] = {}
    for span in spans:
        if span.flavor == ASYNC:
            pid, tid = pids[span.node], tids[(span.node, span.lane)]
            end = span.end if span.end is not None else clip_end
            start_ev = {"ph": "b", "cat": span.cat, "name": span.name,
                        "id": span.sid, "pid": pid, "tid": tid,
                        "ts": _us(span.start)}
            if span.args:
                start_ev["args"] = dict(span.args)
            timed.append(start_ev)
            timed.append({"ph": "e", "cat": span.cat, "name": span.name,
                          "id": span.sid, "pid": pid, "tid": tid,
                          "ts": _us(max(end, span.start))})
        else:
            sync_lanes.setdefault((span.node, span.lane), []).append(span)
    for (node, lane), lane_spans in sync_lanes.items():
        timed.extend(_emit_sync_lane(lane_spans, pids[node],
                                     tids[(node, lane)], clip_end))
    for mark in tracer.instants:
        ev = {"ph": "i", "s": "t", "name": mark.name, "cat": mark.cat,
              "pid": pids[mark.node], "tid": tids[(mark.node, mark.lane)],
              "ts": _us(mark.ts)}
        if mark.args:
            ev["args"] = dict(mark.args)
        timed.append(ev)

    if telemetry is not None:
        counter_meta, counter_events = telemetry_counter_events(
            telemetry, len(pids) + 1)
        meta.extend(counter_meta)
        timed.extend(counter_events)

    # Stable sort by ts: per-lane event order (already time-correct) is
    # preserved for ties, so B/E pairs never flip.
    timed.sort(key=lambda ev: ev["ts"])
    return {
        "traceEvents": meta + timed,
        "displayTimeUnit": "ms",
        "otherData": {"trace_name": trace_name,
                      "metrics": tracer.metrics_snapshot()},
    }


def validate_trace_events(obj: Any) -> list[str]:
    """Check a parsed trace-event object; returns a list of problems.

    Verifies the shape CI relies on: a ``traceEvents`` list, numeric
    non-decreasing ``ts`` on every timed event, and per-(pid, tid) matched
    ``B``/``E`` pairs (LIFO, names agreeing) and matched async ``b``/``e``
    ids. An empty return value means the trace is loadable.
    """
    errors: list[str] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' list"]

    last_ts: Optional[float] = None
    stacks: dict[tuple[Any, Any], list[str]] = {}
    async_open: dict[tuple[Any, Any, Any], int] = {}
    for i, ev in enumerate(obj["traceEvents"]):
        if not isinstance(ev, dict) or "ph" not in ev:
            errors.append(f"event {i}: not an object with 'ph'")
            continue
        ph = ev["ph"]
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i} ({ph} {ev.get('name')!r}): missing numeric 'ts'")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(f"event {i}: ts {ts} < previous {last_ts} (non-monotonic)")
        last_ts = ts
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key, [])
            if not stack:
                errors.append(f"event {i}: E with no open B on pid/tid {key}")
            else:
                opened = stack.pop()
                name = ev.get("name", opened)
                if name != opened:
                    errors.append(f"event {i}: E {name!r} closes B {opened!r}")
        elif ph in ("b", "e"):
            akey = (ev.get("cat"), ev.get("id"), ev.get("name"))
            if ph == "b":
                async_open[akey] = async_open.get(akey, 0) + 1
            else:
                if async_open.get(akey, 0) <= 0:
                    errors.append(f"event {i}: async 'e' without 'b' for {akey}")
                else:
                    async_open[akey] -= 1
        elif ph not in ("X", "i", "I", "C"):
            errors.append(f"event {i}: unsupported phase {ph!r}")
    for key, stack in stacks.items():
        if stack:
            errors.append(f"unclosed B events on pid/tid {key}: {stack}")
    for akey, n in async_open.items():
        if n:
            errors.append(f"unclosed async span {akey}")
    return errors
