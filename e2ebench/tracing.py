"""Outside-in tracing: spans around calls into each layer's functions.

Nothing in ``src/`` is edited.  :func:`install` replaces functions at
the names their callers look up (``repro.service.workers.plan_query``,
not only ``repro.service.planner.plan_query``) with wrappers that record
a span: name, start, end, parent span and a few attributes.  Spans are
kept in memory and written out when the process ends
(:meth:`Tracer.write`); process-pool workers write theirs from a
``multiprocessing`` finalizer, so they must be installed before the pool
forks.

The parent of a span is the span open in the same thread or asyncio
task (a :class:`contextvars.ContextVar`).  Work that crosses a thread or
process boundary is linked afterwards by request id (dispatcher spans)
or by batch key and time containment (worker spans); see
:mod:`layers`.  ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux,
so times from the server child, the pool workers and the client are
on one clock.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, List, Optional

_current: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "e2ebench_span", default=None
)
#: the last ``read_request`` span of this connection task, adopted by
#: the request span that follows it.
_pending_read: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "e2ebench_pending_read", default=None
)

# A span is a list, for cheap mutation and compact JSON:
# [sid, parent_sid, name, start, end, attrs]
SID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self.spans_dir: Optional[str] = None

    def new_sid(self) -> int:
        return (os.getpid() << 24) | next(self._ids)

    def open(self, name: str, attrs: Optional[dict] = None,
             start: Optional[float] = None) -> list:
        parent = _current.get()
        return [
            self.new_sid(), parent[SID] if parent is not None else 0, name,
            time.perf_counter() if start is None else start, 0.0,
            attrs or {},
        ]

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.spans.append(span)  # list.append is atomic under the GIL

    def clear(self) -> None:
        self.spans = []

    def forked(self) -> bool:
        """True (once) in a process forked after install: drop the
        parent's spans and arrange for this process to write its own."""
        if os.getpid() == self.pid:
            return False
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        if self.spans_dir is not None:
            from multiprocessing import util

            util.Finalize(None, self.write, exitpriority=100)
        return True

    def write(self, path: Optional[str] = None) -> Optional[str]:
        if path is None:
            if self.spans_dir is None:
                return None
            path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)
        os.replace(tmp, path)
        return path


TRACER = Tracer()


def _run_sync(name, original, attrs_fn, result_fn, args, kwargs):
    tracer = TRACER
    if os.getpid() != tracer.pid:
        tracer.forked()
    span = tracer.open(name, attrs_fn(args, kwargs) if attrs_fn else None)
    token = _current.set(span)
    try:
        result = original(*args, **kwargs)
    finally:
        _current.reset(token)
        tracer.close(span)
    if result_fn is not None:
        span[ATTRS].update(result_fn(result, args, kwargs))
    return result


def wrap(owner, attr: str, name: str, *,
         attrs: Optional[Callable] = None,
         result: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr)
    if inspect.iscoroutinefunction(original):
        async def wrapper(*args, **kwargs):
            tracer = TRACER
            span = tracer.open(name, attrs(args, kwargs) if attrs else None)
            token = _current.set(span)
            try:
                value = await original(*args, **kwargs)
            finally:
                _current.reset(token)
                tracer.close(span)
            if result is not None:
                span[ATTRS].update(result(value, args, kwargs))
            return value
    else:
        def wrapper(*args, **kwargs):
            return _run_sync(name, original, attrs, result, args, kwargs)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


def _mod(name: str):
    __import__(name)
    return sys.modules[name]


def install(spans_dir: Optional[str] = None) -> None:
    """Install every wrapper.  Idempotent per process."""
    if getattr(install, "done", False):
        return
    install.done = True
    TRACER.spans_dir = spans_dir
    _install_service()
    _install_engine()
    _install_api()


def _request_ids(tickets) -> List[int]:
    return [t.request.request_id for t in tickets]


def _batch_key(spec) -> str:
    return (f"{spec.graph_fingerprint[:16]}:{spec.algorithm}:{spec.transform}"
            f":{spec.degree_bound}:{','.join(map(str, spec.sources))}")


def _install_service() -> None:
    executor = _mod("repro.service.executor")
    workers = _mod("repro.service.workers")
    catalog_mod = _mod("repro.service.catalog")
    artifacts = _mod("repro.service.artifacts")
    metrics_mod = _mod("repro.service.metrics")
    service_cls = executor.AnalyticsService

    wrap(service_cls, "submit_batch", "executor.submit",
         result=lambda tickets, a, k: {"requests": _request_ids(tickets)})

    def item_attrs(args, kwargs):
        item = args[1]
        batch = item.batch
        return {
            "requests": _request_ids(item.tickets),
            "enqueued": item.enqueued_at,
            "requested_sources": sum(len(r.sources) for r in batch.requests),
            "distinct_sources": len(batch.sources),
        }

    wrap(service_cls, "_handle_item", "executor.pipeline", attrs=item_attrs)
    wrap(executor, "group_requests", "batching.group")
    wrap(executor, "fan_out_per_request", "batching.fanout")
    for module in (executor, workers):
        wrap(module, "execute_pipeline", "executor.execute")
    wrap(workers, "run_sources_on_target", "batching.execute")
    wrap(workers, "plan_query", "planner.plan",
         result=lambda plan, a, k: {"degraded": bool(plan.degraded)})
    wrap(workers, "degrade_for_deadline", "planner.degrade",
         result=lambda plan, a, k: {"degraded": bool(plan.degraded)})

    # -- catalog: lookups, builds, evictions ----------------------------
    catalog_cls = catalog_mod.GraphCatalog
    get_for_key = catalog_cls.get_for_key

    def traced_get_for_key(self, key, builder):
        def traced_builder():
            return _run_sync("catalog.build", builder, None, None, (), {})

        evictions = self.stats.evictions
        artifact, origin = _run_sync(
            "catalog.lookup", get_for_key,
            lambda a, k: {"kind": key.kind, "key": key.filename()},
            lambda value, a, k: {
                "origin": value[1],
                "evictions": self.stats.evictions - evictions,
            },
            (self, key, traced_builder), {},
        )
        return artifact, origin

    functools.update_wrapper(traced_get_for_key, get_for_key)
    catalog_cls.get_for_key = traced_get_for_key
    wrap(catalog_cls, "cached", "catalog.probe")
    wrap(catalog_mod, "udt_transform", "core.udt")
    wrap(catalog_mod, "virtual_transform", "core.virtual")

    def file_bytes(path_index):
        def attrs(args, kwargs):
            path = args[path_index]
            return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
        return attrs

    wrap(catalog_mod, "load_artifact", "artifacts.load", attrs=file_bytes(0))
    wrap(artifacts.TransformArtifact, "save_npz", "artifacts.save",
         result=lambda value, a, k: {"bytes": os.path.getsize(a[1])})

    # -- process workers -------------------------------------------------
    wrap(executor._ProcessBackend, "run", "workers.dispatch",
         attrs=lambda a, k: {"batch": _batch_key(a[1])})
    wrap(executor, "export_graph", "workers.export")
    wrap(workers, "load_npz", "workers.graph_load", attrs=file_bytes(0))
    task = workers.run_batch_spec

    def traced_task(spec):
        return _run_sync(
            "workers.task", task, lambda a, k: {"batch": _batch_key(spec)},
            None, (spec,), {},
        )

    functools.update_wrapper(traced_task, task)
    # the pool pickles the task by reference, so both names must agree
    workers.run_batch_spec = traced_task
    executor.run_batch_spec = traced_task
    wrap(metrics_mod.ServiceMetrics, "ipc_observed", "workers.ipc",
         attrs=lambda a, k: {"bytes": int(a[1])})

    wrap(executor.QueryTicket, "aresult", "executor.await",
         attrs=lambda a, k: {"request": a[0].request.request_id})


def _install_engine() -> None:
    kernels = _mod("repro.engine.kernels")

    def engine_result(value, args, kwargs):
        iterations = int(getattr(value, "num_iterations", 0))
        return {
            "supersteps": iterations,
            "edges": int(getattr(value, "edges_processed", 0)),
            "lanes": int(getattr(value, "num_lanes", 1)),
            "lane_iterations": int(getattr(value, "lane_iterations", iterations)),
        }

    for module_name in ("repro.algorithms.bfs", "repro.algorithms.sssp",
                        "repro.algorithms.sswp", "repro.algorithms.cc"):
        wrap(_mod(module_name), "run_push", "engine.run", result=engine_result)
    wrap(_mod("repro.algorithms.multi_source"), "run_push_lanes", "engine.run",
         result=engine_result)
    run = _mod("repro.baselines._run")
    for attr in ("pagerank", "bc"):
        wrap(run, attr, "engine.run", result=engine_result)
    wrap(kernels, "resolve_backend", "kernels.resolve",
         result=lambda backend, a, k: {"jit": bool(backend.jit)})


def _install_api() -> None:
    server = _mod("repro.service.api.server")
    middleware = _mod("repro.service.api.middleware")
    protocol = _mod("repro.service.api.protocol")

    read_request = server.read_request

    async def traced_read_request(*args, **kwargs):
        span = TRACER.open("api.read")
        try:
            return await read_request(*args, **kwargs)
        finally:
            TRACER.close(span)
            _pending_read.set(span)

    functools.update_wrapper(traced_read_request, read_request)
    server.read_request = traced_read_request

    respond = server.ApiServer._respond

    async def traced_respond(self, request, writer, started):
        read = _pending_read.get()
        _pending_read.set(None)
        span = TRACER.open(
            "api.request", start=read[START] if read is not None else None
        )
        if read is not None:
            read[PARENT] = span[SID]
        token = _current.set(span)
        try:
            return await respond(self, request, writer, started)
        finally:
            _current.reset(token)
            TRACER.close(span)

    functools.update_wrapper(traced_respond, respond)
    server.ApiServer._respond = traced_respond

    wrap(server.ApiServer, "_dispatch", "api.handler")
    for cls in (middleware.TokenAuth, middleware.RateLimit,
                middleware.RequestShaper):
        wrap(cls, "__call__", "api.middleware")
    wrap(server, "parse_wire_request", "api.parse",
         result=lambda value, a, k: {"wire_id": value.trace_id})
    wrap(server, "result_payload", "api.result_payload")
    wrap(server, "send_response", "api.send")
    wrap(protocol, "result_digest", "ingest.digest")


def load_span_files(directory: str) -> List[list]:
    """Every span written to ``directory`` by any process."""
    spans: List[list] = []
    if not os.path.isdir(directory):
        return spans
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                spans.extend(json.load(fh)["spans"])
    return spans

