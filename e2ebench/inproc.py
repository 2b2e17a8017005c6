"""The two in-process workloads, ``bulk-analytics`` and ``catalog-churn``.

Both drive an :class:`~repro.service.AnalyticsService` from a client in
the same process.  That process is a child of ``run.py`` (``run.py
--child``), started fresh for every set-up, so ``setup_s`` always runs
from launch and the parent's oracle work never shows in the serving
process's CPU or memory.  The client's own threads do count in
``cpu_ms_per_query``; they only submit, wait and compare arrays.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import common
from layers import ClientRecord

SOURCED = common.SOURCED


@dataclass
class Answer:
    """One request's identity, kept to check its answer."""

    graph: str
    algorithm: str
    sources: Tuple[int, ...]


def verify(oracle: common.Oracle, answer: Answer, result) -> Optional[str]:
    """``None`` when every value array matches the oracle."""
    if not result.ok:
        return None  # counted as failed, not as wrong
    keys = answer.sources or (-1,)
    for source in keys:
        served = result.values.get(source)
        if served is None or not oracle.matches(
                answer.graph, answer.algorithm, source, served):
            return (f"{answer.algorithm} on {answer.graph} source {source} "
                    f"(transform {result.transform})")
    return None


class Workload:
    name = ""
    graph_specs: Sequence[Tuple[str, str, float]] = ()
    pool_size = 0
    algorithms: Sequence[str] = ()

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def make_graphs(self) -> Dict[str, object]:
        return common.load_graphs(self.graph_specs)

    def pools(self, graphs) -> Dict[str, List[int]]:
        return {name: common.source_pool(g, self.pool_size, self.name)
                for name, g in graphs.items()}

    def oracle_keys(self, graphs) -> List[Tuple[str, str, int]]:
        return common.oracle_keys(self.pools(graphs), self.algorithms)

    def meter_pids(self, service) -> List[int]:
        pids = [os.getpid()]
        backend = service._process
        if backend is not None:
            pids.extend(sorted(backend._pool._processes))
        return pids


# ----------------------------------------------------------------------
# bulk-analytics
# ----------------------------------------------------------------------
class BulkAnalytics(Workload):
    """Closed loop of 16-request windows; edge work dominates."""

    name = "bulk-analytics"
    window = 16
    transforms = ("auto", "udt", "virtual+")
    algorithms = ("bfs", "sssp", "sswp", "bc", "pr")
    #: the service refuses these (bc and pr do not run on UDT graphs).
    refused = {("bc", "udt"), ("pr", "udt")}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        factor = 0.1 if smoke else 1.0
        self.graph_specs = (("livejournal-x2", "livejournal", 2.0 * factor),
                            ("orkut-x1", "orkut", 1.0 * factor))
        self.pool_size = 8 if smoke else 48
        self.warm_load_s = 1.0 if smoke else 4.0

    def combos(self) -> List[Tuple[str, str]]:
        return [(a, t) for a in self.algorithms for t in self.transforms
                if (a, t) not in self.refused]

    def deck(self, graphs) -> List[Tuple[str, str, str, int]]:
        """Every (graph, analytic, transform, source count) shape once.

        Requests are dealt from a deck shuffled by the seed, so every
        shape appears equally often in a run and the work mix, which a
        fully random draw would let drift by several percent from seed to
        seed, stays the same; the order and the sources stay random.
        """
        return [(graph, algorithm, transform, count if algorithm in SOURCED else 0)
                for graph in sorted(graphs)
                for algorithm, transform in self.combos()
                for count in range(1, 5)]

    def start_service(self, workdir: str):
        from repro.service import AnalyticsService, GraphCatalog

        return AnalyticsService(GraphCatalog(), workers=2, backend="threads")

    def warm(self, service, graphs) -> None:
        """Prebuild every artifact the mix can touch."""
        from repro.service import QueryRequest

        pools = self.pools(graphs)
        requests = [
            QueryRequest(algorithm, name,
                         sources=(pools[name][0],) if algorithm in SOURCED else (),
                         transform=transform)
            for name in graphs for algorithm, transform in self.combos()
        ]
        for ticket in service.submit_batch(requests):
            if not ticket.result().ok:
                raise common.BenchError(f"warm-up failed: {ticket.result().error}")

    def golden_batch(self) -> int:
        return self.window

    def warm_load(self, service, graphs, oracle) -> List[str]:
        """Untimed windows: a fresh process's first seconds under load run
        slower than the rest.  Returns wrong or failed answers."""
        warm = self.timed(service, graphs, self.warm_load_s, oracle,
                          np.random.default_rng([self.seed, 1]))
        failed = [f"{warm['failed']} warm-load requests failed"] if warm["failed"] else []
        return warm["wrong"] + failed

    def timed(self, service, graphs, seconds: float, oracle, rng=None):
        if rng is None:
            rng = np.random.default_rng(self.seed)
        from repro.service import QueryRequest

        pools = self.pools(graphs)
        shapes = self.deck(graphs)
        dealt = len(shapes)
        records: List[ClientRecord] = []
        latencies: List[float] = []
        wrong: List[str] = []
        attempted = failed = windows = 0
        started = time.perf_counter()
        deadline = started + seconds
        last_done = started
        while time.perf_counter() < deadline:
            answers, requests = [], []
            for _ in range(self.window):
                if dealt == len(shapes):
                    rng.shuffle(shapes)
                    dealt = 0
                graph, algorithm, transform, count = shapes[dealt]
                dealt += 1
                sources = tuple(sorted(int(s) for s in rng.choice(
                    pools[graph], count, replace=False)))
                answers.append(Answer(graph, algorithm, sources))
                requests.append(QueryRequest(algorithm, graph, sources=sources,
                                             transform=transform))
            done_at = [0.0] * len(requests)
            submitted = time.perf_counter()
            tickets = service.submit_batch(requests)
            for index, ticket in enumerate(tickets):
                ticket.add_done_callback(
                    lambda _t, _r, i=index: done_at.__setitem__(i, time.perf_counter()))
            results = [ticket.result() for ticket in tickets]
            windows += 1
            for request, answer, result, done in zip(requests, answers, results, done_at):
                attempted += 1
                last_done = max(last_done, done)
                if not result.ok:
                    failed += 1
                    latencies.append(float("inf"))
                    continue
                latencies.append(done - submitted)
                records.append(ClientRecord(request.request_id, submitted, done))
                problem = verify(oracle, answer, result)
                if problem is not None:
                    wrong.append(problem)
        return dict(attempted=attempted, failed=failed, wall_s=last_done - started,
                    latencies=latencies, wrong=wrong, records=records,
                    window=(started, last_done),
                    notes={"clients": 1, "window": self.window, "windows": windows})


# ----------------------------------------------------------------------
# catalog-churn
# ----------------------------------------------------------------------
class CatalogChurn(Workload):
    """Two closed-loop clients over a key space larger than the cache."""

    name = "catalog-churn"
    algorithms = ("bfs", "sssp", "sswp")
    transforms = ("udt", "virtual", "virtual+")
    degree_bounds = (4, 8, 16)
    zipf_s = 1.1
    clients = 2
    budget_bytes = 8 * 1024 * 1024

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        factor = 0.1 if smoke else 1.0
        self.graph_specs = (
            ("pokec-x2", "pokec", 2.0 * factor),
            ("livejournal-x2", "livejournal", 2.0 * factor),
            ("twitter-x0.2", "twitter", 0.2 * factor),
            ("sinaweibo-x0.2", "sinaweibo", 0.2 * factor),
        )
        self.pool_size = 4 if smoke else 8

    def keys(self, graphs) -> List[Tuple[str, str, int]]:
        return [(g, t, k) for g in sorted(graphs) for t in self.transforms
                for k in self.degree_bounds]

    def start_service(self, workdir: str):
        from repro.service import AnalyticsService, GraphCatalog

        spill = os.path.join(workdir, "spill")
        catalog = GraphCatalog(self.budget_bytes, spill_dir=spill)
        return AnalyticsService(catalog, workers=2, backend="processes")

    def warm(self, service, graphs) -> None:
        """Ship every graph to the workers and run the kernels once.

        Raw-CSR requests (``transform="none"``) build no transform, so
        the timed phase starts with a cold artifact catalog.
        """
        from repro.service import QueryRequest

        pools = self.pools(graphs)
        requests = [QueryRequest(algorithm, name, sources=(pools[name][0],),
                                 transform="none")
                    for name in graphs for algorithm in ("bfs", "sssp")]
        for ticket in service.submit_batch(requests):
            if not ticket.result().ok:
                raise common.BenchError(f"warm-up failed: {ticket.result().error}")

    def golden_batch(self) -> int:
        return 1

    def warm_load(self, service, graphs, oracle) -> List[str]:
        return []  # the cold catalog is what this workload measures

    def timed(self, service, graphs, seconds: float, oracle):
        from repro.service import QueryRequest

        keys = self.keys(graphs)
        # Which key holds which Zipf rank is fixed, not seeded: the hot
        # keys' build and load costs then weigh the same in every run, so
        # the seed varies the draws without varying the work mix.
        order = np.random.default_rng(0).permutation(len(keys))
        weights = 1.0 / np.arange(1, len(keys) + 1) ** self.zipf_s
        weights /= weights.sum()
        pools = self.pools(graphs)
        lock = threading.Lock()
        out = dict(attempted=0, failed=0, latencies=[], wrong=[], records=[],
                   cache_hits=0)
        started = time.perf_counter()
        deadline = started + seconds
        finished = [started] * self.clients
        errors: List[BaseException] = []

        def client(index: int) -> None:
            local = np.random.default_rng([self.seed, index])
            try:
                while time.perf_counter() < deadline:
                    graph, transform, k = keys[order[local.choice(len(keys), p=weights)]]
                    algorithm = self.algorithms[local.integers(len(self.algorithms))]
                    pool = pools[graph]
                    source = int(pool[local.integers(len(pool))])
                    request = QueryRequest(algorithm, graph, sources=(source,),
                                           transform=transform, degree_bound=k)
                    submitted = time.perf_counter()
                    result = service.submit(request).result()
                    done = time.perf_counter()
                    problem = verify(oracle, Answer(graph, algorithm, (source,)), result)
                    with lock:
                        out["attempted"] += 1
                        if not result.ok:
                            out["failed"] += 1
                            out["latencies"].append(float("inf"))
                        else:
                            out["latencies"].append(done - submitted)
                            out["records"].append(
                                ClientRecord(request.request_id, submitted, done))
                            out["cache_hits"] += bool(result.cache_hit)
                        if problem is not None:
                            out["wrong"].append(problem)
                    finished[index] = done
            except Exception as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        last_done = max(finished)
        completed = out["attempted"] - out["failed"]
        out.update(wall_s=last_done - started, window=(started, last_done),
                   notes={"clients": self.clients, "keys": len(keys),
                          "result_cache_hit_ratio":
                              round(out.pop("cache_hits") / max(completed, 1), 4)})
        return out


WORKLOADS = {w.name: w for w in (BulkAnalytics, CatalogChurn)}


def golden(workload: Workload, service) -> List[str]:
    from repro.service import replay_trace

    return common.replay_golden(lambda path: replay_trace(
        path, service=service, batch=workload.golden_batch()))


def child_main(args) -> int:
    """One serving process: set up, then (unless probing) measure."""
    import layers
    import tracing

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.spans_dir:
        tracing.install(args.spans_dir)
    graphs = workload.make_graphs()
    service = workload.start_service(args.workdir)
    try:
        for name, graph in graphs.items():
            service.register(name, graph)
        workload.warm(service, graphs)
        print("READY", flush=True)
        if args.probe:
            return 0
        problems = golden(workload, service)
        oracle = common.Oracle(graphs)
        oracle.load(workload.oracle_keys(graphs))
        problems += workload.warm_load(service, graphs, oracle)
        meter = common.ProcessMeter(workload.meter_pids(service))
        tracing.TRACER.clear()
        meter.start()
        phase = workload.timed(service, graphs, args.seconds, oracle)
        meter.stop()
    finally:
        service.close()
    common.wait_no_children()
    result = {
        "attempted": phase["attempted"], "failed": phase["failed"],
        "wall_s": phase["wall_s"], "latencies": phase["latencies"],
        "cpu_s": meter.cpu_s, "rss_mib": meter.rss_mib,
        "wrong": phase["wrong"], "golden_problems": problems,
        "notes": phase["notes"],
    }
    if args.spans_dir:
        tracing.TRACER.write()
        spans = tracing.load_span_files(args.spans_dir)
        per_layer, diagnostics = layers.analyse(
            spans, phase["records"], window=phase["window"], http=False)
        result["per_layer"] = per_layer
        result["notes"].update(diagnostics)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    return 0
