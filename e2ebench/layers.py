"""Turn spans and client-side request records into per-layer metrics.

A layer's self time is its spans' durations minus the part of each
span's interval its child spans cover.  Children are the spans opened
inside it (same thread or asyncio task) plus spans linked across a
boundary:

* a dispatcher's ``executor.pipeline`` span is linked under the
  ``executor.await`` span of every request it serves (HTTP), together
  with the request's queue wait;
* a pool worker's ``workers.task`` span is linked under the
  dispatcher's ``workers.dispatch`` span with the same batch key whose
  interval contains it.

Per request, every span that served it counts in full (a batch shared
by four requests counts four times, once for each, because each of
them waited for all of it), and ``residual`` is the request's
end-to-end latency minus the sum of its layer self times.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from tracing import ATTRS, END, NAME, PARENT, SID, START

#: span name -> layer metric it is charged to.
LAYER_OF = {
    "api.read": "api.read.self_ms",
    "api.parse": "api.read.self_ms",
    "api.middleware": "api.middleware.self_ms",
    "api.result_payload": "api.respond.self_ms",
    "api.send": "api.respond.self_ms",
    "api.request": "api.unattributed.self_ms",
    "api.handler": "api.unattributed.self_ms",
    "ingest.digest": "ingest.digest.self_ms",
    "executor.submit": "executor.submit.self_ms",
    "executor.await": "executor.handoff.self_ms",
    "executor.pipeline": "executor.dispatch.self_ms",
    "executor.execute": "executor.dispatch.self_ms",
    "batching.group": "batching.group.self_ms",
    "batching.fanout": "batching.fanout.self_ms",
    "batching.execute": "batching.execute.self_ms",
    "planner.plan": "planner.plan.self_ms",
    "planner.degrade": "planner.plan.self_ms",
    "catalog.lookup": "catalog.lookup.self_ms",
    "catalog.probe": "catalog.lookup.self_ms",
    "catalog.build": "catalog.build.self_ms",
    "core.udt": "core.udt.self_ms",
    "core.virtual": "core.virtual.self_ms",
    "artifacts.load": "artifacts.load.self_ms",
    "artifacts.save": "artifacts.save.self_ms",
    "engine.run": "engine.run.self_ms",
    "kernels.resolve": "kernels.resolve.self_ms",
    "workers.dispatch": "workers.overhead_ms",
    "workers.export": "workers.overhead_ms",
    "workers.task": "workers.task.self_ms",
    "workers.graph_load": "workers.graph_load.self_ms",
}

QUEUE_WAIT = "executor.queue_wait_ms"
WIRE = "api.wire_ms"

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("api.read.self_ms", "ms"),
    ("api.middleware.self_ms", "ms"),
    ("api.respond.self_ms", "ms"),
    ("api.unattributed.self_ms", "ms"),
    ("api.wire_ms", "ms"),
    ("executor.submit.self_ms", "ms"),
    ("executor.queue_wait_ms", "ms"),
    ("executor.handoff.self_ms", "ms"),
    ("executor.dispatch.self_ms", "ms"),
    ("executor.requests_per_batch", "count"),
    ("batching.group.self_ms", "ms"),
    ("batching.fanout.self_ms", "ms"),
    ("batching.execute.self_ms", "ms"),
    ("batching.source_dedup_ratio", "ratio"),
    ("planner.plan.self_ms", "ms"),
    ("planner.degraded_ratio", "ratio"),
    ("catalog.lookup.self_ms", "ms"),
    ("catalog.hit_ratio", "ratio"),
    ("catalog.disk_hit_ratio", "ratio"),
    ("catalog.builds", "count"),
    ("catalog.rebuilds", "count"),
    ("catalog.evictions", "count"),
    ("catalog.build.self_ms", "ms"),
    ("core.udt.self_ms", "ms"),
    ("core.virtual.self_ms", "ms"),
    ("artifacts.save.self_ms", "ms"),
    ("artifacts.load.self_ms", "ms"),
    ("artifacts.bytes_written", "bytes"),
    ("artifacts.bytes_read", "bytes"),
    ("engine.run.self_ms", "ms"),
    ("engine.supersteps", "count"),
    ("engine.superstep_us", "us"),
    ("kernels.resolve.self_ms", "ms"),
    ("engine.edges_per_s", "1/s"),
    ("engine.lane_occupancy", "ratio"),
    ("kernels.jit_ratio", "ratio"),
    ("workers.task.self_ms", "ms"),
    ("workers.overhead_ms", "ms"),
    ("workers.graph_load.self_ms", "ms"),
    ("workers.ipc_bytes", "bytes"),
    ("workers.graph_loads", "count"),
    ("ingest.digest.self_ms", "ms"),
    ("residual.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class ClientRecord:
    """One timed request as the client saw it (perf_counter seconds).

    ``key`` is the executor request id (in-process clients) or the wire
    id (HTTP).  ``start`` is the submit call or, over HTTP, the moment the
    request's bytes were written.
    """

    key: int
    start: float
    end: float


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(span: list, children: Iterable[list]) -> float:
    start, end = span[START], span[END]
    clipped = [
        (max(c[START], start), min(c[END], end)) for c in children
        if c[END] > start and c[START] < end
    ]
    return max(0.0, end - start - _union_length(clipped))


def _link_workers(spans: List[list], children: Dict[int, List[list]]) -> None:
    """Link each worker task under the dispatch span that waited for it."""
    tasks: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[NAME] == "workers.task":
            tasks[span[ATTRS].get("batch")].append(span)
    used = set()
    for span in spans:
        if span[NAME] != "workers.dispatch":
            continue
        for task in tasks.get(span[ATTRS].get("batch"), ()):
            if task[SID] in used:
                continue
            if task[START] >= span[START] - 1e-4 and task[END] <= span[END] + 1e-4:
                used.add(task[SID])
                children[span[SID]].append(task)
                task[PARENT] = span[SID]
                break


def _subtree(root: list, children: Dict[int, List[list]]) -> List[list]:
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span[SID], ()))
    return out


def analyse(
    spans: List[list],
    records: List[ClientRecord],
    *,
    window: Tuple[float, float],
    http: bool,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
    """Per-layer metrics for the timed requests, plus diagnostics."""
    spans = [list(s) for s in spans]
    by_sid = {s[SID]: s for s in spans}
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT] in by_sid:
            children[span[PARENT]].append(span)
    _link_workers(spans, children)

    submit_of: Dict[int, list] = {}
    pipeline_of: Dict[int, list] = {}
    for span in spans:
        if span[NAME] == "executor.submit":
            for rid in span[ATTRS].get("requests", ()):
                submit_of[rid] = span
        elif span[NAME] == "executor.pipeline":
            for rid in span[ATTRS].get("requests", ()):
                pipeline_of[rid] = span

    roots_of_wire: Dict[int, list] = {}
    if http:
        for span in spans:
            if span[NAME] == "api.parse" and "wire_id" in span[ATTRS]:
                root = span
                while root[PARENT] in by_sid:
                    root = by_sid[root[PARENT]]
                if root[NAME] == "api.request":
                    roots_of_wire[span[ATTRS]["wire_id"]] = root

    per_request: Dict[str, List[float]] = defaultdict(list)
    supersteps: List[float] = []
    superstep_us: List[float] = []
    residuals: List[float] = []
    unmatched = 0
    for record in records:
        layer_s: Dict[str, float] = defaultdict(float)
        extra_children: Dict[int, List[list]] = defaultdict(list)
        own: List[list] = []
        if http:
            root = roots_of_wire.get(record.key)
            if root is None:
                unmatched += 1
                continue
            tree = _subtree(root, children)
            submit = next((s for s in tree if s[NAME] == "executor.submit"), None)
            rids = submit[ATTRS].get("requests", []) if submit is not None else []
            rid = rids[0] if rids else None
            # the server cannot tell idle keep-alive time from reading, so
            # its first span starts no earlier than the client's send
            clip = max(0.0, record.start - root[START])
            root_start = root[START] + clip
            read = next((s for s in tree if s[NAME] == "api.read"), None)
            own = tree
            server_s = root[END] - root_start
            layer_s[WIRE] = (record.end - record.start) - server_s
        else:
            rid = record.key
            submit = submit_of.get(rid)
            if submit is None:
                unmatched += 1
                continue
            own = _subtree(submit, children)
            root = read = None
            clip = 0.0
        pipeline = pipeline_of.get(rid)
        if pipeline is None or submit is None:
            unmatched += 1
            continue
        queue_span = [0, 0, "queue", submit[END], pipeline[START], {}]
        linked = _subtree(pipeline, children)
        waiter = next((s for s in own if s[NAME] == "executor.await"), None)
        if waiter is not None:
            extra_children[waiter[SID]].extend([queue_span, pipeline])
        layer_s[QUEUE_WAIT] += max(0.0, pipeline[START] - submit[END])
        engine_s = steps = 0.0
        for span in own + linked:
            kids = children.get(span[SID], []) + extra_children.get(span[SID], [])
            if clip and span is root or clip and span is read:
                span = list(span)
                span[START] = max(span[START], root_start)
            own_s = _self_time(span, kids)
            layer = LAYER_OF.get(span[NAME])
            if layer is not None:
                layer_s[layer] += own_s
            if span[NAME] == "engine.run":
                engine_s += own_s
                steps += span[ATTRS].get("supersteps", 0)
        for layer, seconds in layer_s.items():
            per_request[layer].append(seconds * 1e3)
        latency = record.end - record.start
        residuals.append((latency - sum(layer_s.values())) * 1e3)
        if steps:
            supersteps.append(steps)
            superstep_us.append(engine_s * 1e6 / steps)

    t0, t1 = window
    timed = [s for s in spans if t0 <= s[START] <= t1]
    metrics: Dict[str, Tuple[float, str]] = {}
    units = dict(PER_LAYER)

    def put(name: str, value: float) -> None:
        metrics[name] = (float(value), units[name])

    for name, unit in PER_LAYER:
        if unit == "ms":
            samples = [v for v in per_request.get(name, ()) if v > 0]
            put(name, np.median(samples) if samples else 0.0)
    put("residual.self_ms", np.median(residuals) if residuals else 0.0)
    put("engine.supersteps", np.median(supersteps) if supersteps else 0.0)
    put("engine.superstep_us", np.median(superstep_us) if superstep_us else 0.0)

    def named(name: str) -> List[list]:
        return [s for s in timed if s[NAME] == name]

    pipelines = named("executor.pipeline")
    put("executor.requests_per_batch", np.mean(
        [len(s[ATTRS]["requests"]) for s in pipelines]) if pipelines else 0.0)
    requested = sum(s[ATTRS]["requested_sources"] for s in pipelines)
    distinct = sum(s[ATTRS]["distinct_sources"] for s in pipelines
                   if s[ATTRS]["requested_sources"])
    put("batching.source_dedup_ratio", distinct / requested if requested else 1.0)
    plans = named("planner.plan")
    degraded = [s for s in named("planner.degrade") if s[ATTRS].get("degraded")]
    put("planner.degraded_ratio", len(degraded) / len(plans) if plans else 0.0)

    lookups = named("catalog.lookup")
    transform_lookups = [s for s in lookups if s[ATTRS].get("kind") != "prepared"]
    origins = [s[ATTRS].get("origin") for s in transform_lookups]
    total = len(origins) or 1
    put("catalog.hit_ratio", origins.count("memory") / total)
    put("catalog.disk_hit_ratio", origins.count("disk") / total)
    built_before = set()
    builds = rebuilds = 0
    for span in sorted((s for s in spans if s[NAME] == "catalog.lookup"),
                       key=lambda s: s[START]):
        if span[ATTRS].get("origin") != "built":
            continue
        key = span[ATTRS].get("key")
        if t0 <= span[START] <= t1:
            builds += 1
            rebuilds += key in built_before
        built_before.add(key)
    put("catalog.builds", builds)
    put("catalog.rebuilds", rebuilds)
    put("catalog.evictions", sum(s[ATTRS].get("evictions", 0) for s in lookups))
    put("artifacts.bytes_written",
        sum(s[ATTRS].get("bytes", 0) for s in named("artifacts.save")))
    put("artifacts.bytes_read",
        sum(s[ATTRS].get("bytes", 0) for s in named("artifacts.load")))

    runs = named("engine.run")
    run_self = sum(_self_time(s, children.get(s[SID], [])) for s in runs)
    edges = sum(s[ATTRS].get("edges", 0) for s in runs)
    put("engine.edges_per_s", edges / run_self if run_self else 0.0)
    lane_runs = [s for s in runs if s[ATTRS].get("lanes", 1) > 1]
    lane_slots = sum(s[ATTRS]["supersteps"] * s[ATTRS]["lanes"] for s in lane_runs)
    lane_used = sum(s[ATTRS].get("lane_iterations", 0) for s in lane_runs)
    put("engine.lane_occupancy", lane_used / lane_slots if lane_slots else 0.0)
    resolves = named("kernels.resolve")
    put("kernels.jit_ratio",
        sum(1 for s in resolves if s[ATTRS].get("jit")) / len(resolves)
        if resolves else 0.0)
    dispatches = named("workers.dispatch")
    put("workers.ipc_bytes",
        sum(s[ATTRS].get("bytes", 0) for s in named("workers.ipc"))
        / len(dispatches) if dispatches else 0.0)
    put("workers.graph_loads", len(named("workers.graph_load")))
    put("trace.overhead_ratio", 0.0)  # filled in from the untraced phase
    diagnostics = {
        "requests_traced": len(records) - unmatched,
        "requests_unmatched": unmatched,
        "spans": len(spans),
    }
    return {name: metrics[name] for name, _ in PER_LAYER}, diagnostics
