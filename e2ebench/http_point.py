"""``http-point``: single queries through ``serve --http``, two clients.

The server is a child process started exactly as an operator would
(``python -m repro serve --http``; the traced run goes through
``traced_server.py``, which installs the span wrappers first).  The
load is one asyncio process with two keep-alive connections, each a
closed-loop client with one ``POST /v1/query`` outstanding; latency runs
from the send to the last byte of the answer.

A closed loop, not the open loop of Poisson arrivals this workload was
first sized for: on the shared 2-CPU host it was sized on, an idle
server's every request paid several vCPU wake-ups whose cost varies with
the other tenants' load, and three ten-run sets of an open loop at 55
req/s had quartile spreads of 0.19-0.76 (p50) and 0.32-0.86 (p99) of
their medians, beyond any bound a regression check can use.  Busy
connections keep those wake-ups out of the measurement.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
from layers import ClientRecord

TOKEN = "e2ebench-token"
#: far above the offered load, so the limiter runs but never refuses.
RATE_LIMIT = "100000"
#: closed-loop clients, one keep-alive connection and one request each.
CONNECTIONS = 2
MIX = (("bfs", 0.5), ("sssp", 0.2), ("sswp", 0.1), ("cc", 0.1), ("pr", 0.1))
SOURCED = common.SOURCED
#: values travel only where the oracle comparison needs a tolerance.
WITH_VALUES = ("bc", "pr")
POOL_SIZE = 64
#: untimed load before the timed phase: a fresh server's first seconds
#: under load run measurably slower than the rest.
WARM_LOAD_S = 6.0
#: wire ids of warm-load requests start here, apart from the timed ones.
WARM_ID_BASE = 5_000_000
#: the request stream is cut at this rate × seconds (two connections
#: complete about 200 req/s on a 2-CPU host).
MAX_RATE_QPS = 1000
#: every answer here is float64 (all six analytics serve float64 arrays).
SERVED_DTYPE = np.float64


@dataclass
class Config:
    graphs: Tuple[Tuple[str, str, float], ...]
    setups: int
    pool: int
    warm_load_s: float


FULL = Config(
    graphs=(("pokec", "pokec", 0.2), ("twitter", "twitter", 0.2)),
    setups=3, pool=POOL_SIZE, warm_load_s=WARM_LOAD_S,
)
SMOKE = Config(
    graphs=(("pokec", "pokec", 0.2), ("twitter", "twitter", 0.02)),
    setups=1, pool=8, warm_load_s=1.0,
)


@dataclass
class Request:
    wire_id: int
    graph: str
    algorithm: str
    source: int
    body: bytes


@dataclass
class Reply:
    send: float = 0.0
    recv: float = 0.0
    status: int = 0
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and bool((self.payload or {}).get("ok"))


def make_graphs(config: Config) -> Dict[str, object]:
    return common.load_graphs(config.graphs)


def pools(config: Config, graphs) -> Dict[str, List[int]]:
    return {name: common.source_pool(g, config.pool, "http-point")
            for name, g in graphs.items()}


def oracle_keys(config: Config, graphs) -> List[Tuple[str, str, int]]:
    return common.oracle_keys(pools(config, graphs), [a for a, _ in MIX])


def _body(wire_id: int, graph: str, algorithm: str, source: int) -> bytes:
    payload = {
        "id": wire_id, "algorithm": algorithm, "graph": graph,
        "sources": [source] if source >= 0 else [], "transform": "auto",
    }
    if algorithm in WITH_VALUES:
        payload["include_values"] = True
    return json.dumps(payload).encode("utf-8")


def request_stream(config: Config, graphs, seed, seconds: float,
                   first_id: int = 1) -> List[Request]:
    """The requests a run may send, in order (it stops at the deadline)."""
    rng = np.random.default_rng(seed)
    names = sorted(graphs)
    source_pools = pools(config, graphs)
    count = int(MAX_RATE_QPS * seconds) + 1
    graph_of = rng.integers(len(names), size=count)
    algorithm_of = rng.choice(len(MIX), size=count, p=[w for _, w in MIX])
    draws = rng.integers(1 << 30, size=count)
    requests: List[Request] = []
    for offset in range(count):
        graph = names[graph_of[offset]]
        algorithm = MIX[algorithm_of[offset]][0]
        pool = source_pools[graph]
        source = pool[draws[offset] % len(pool)] if algorithm in SOURCED else -1
        wire_id = first_id + offset
        requests.append(Request(wire_id, graph, algorithm, source,
                                _body(wire_id, graph, algorithm, source)))
    return requests


# ----------------------------------------------------------------------
# HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def post(self, body: bytes, reply: Reply) -> None:
        head = (
            f"POST /v1/query HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Authorization: Bearer {TOKEN}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        reply.send = time.perf_counter()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length)
        reply.recv = time.perf_counter()
        reply.status = int(status_line.split()[1])
        reply.payload = json.loads(data)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass


async def _run_closed_loop(host: str, port: int, requests: List[Request],
                           seconds: float) -> Tuple[float, List[Tuple[int, Reply]]]:
    """Each connection sends its next request when the last one answered,
    until ``seconds`` pass; returns (start, [(request index, reply)])."""
    connections = [Connection(host, port) for _ in range(CONNECTIONS)]
    done: List[Tuple[int, Reply]] = []
    indices = itertools.count()
    try:
        for conn in connections:
            await conn.open()
        started = time.perf_counter()
        deadline = started + seconds

        async def client(conn: Connection) -> None:
            while time.perf_counter() < deadline:
                index = next(indices)
                if index >= len(requests):
                    raise common.BenchError("the request stream ran out")
                reply = Reply()
                await conn.post(requests[index].body, reply)
                done.append((index, reply))

        await asyncio.gather(*(client(conn) for conn in connections))
    finally:
        for conn in connections:
            await conn.close()
    return started, done


async def _run_serial(host: str, port: int, bodies: List[bytes]) -> List[Reply]:
    conn = Connection(host, port)
    await conn.open()
    try:
        replies = []
        for body in bodies:
            reply = Reply()
            await conn.post(body, reply)
            replies.append(reply)
        return replies
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    workdir: str
    log: object
    launched: float
    spans_dir: Optional[str] = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGTERM: the server closes its listener and drains, then exits 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise common.BenchError("server did not drain and exit in time")
        finally:
            self.log.close()
        if code != 0:
            with open(os.path.join(self.workdir, "server.log"), encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise common.BenchError(f"server exited with code {code}:\n{tail}")


def write_header_trace(path: str, config: Config, graphs) -> None:
    """A trace holding only a header: the server's graph recipes."""
    from repro.service import dataset_graph_entry

    entries = {
        name: dataset_graph_entry(ds, scale=scale,
                                  fingerprint=graphs[name].fingerprint())
        for name, ds, scale in config.graphs
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", "version": 1, "graphs": entries}) + "\n")


def launch(run_dir: common.RunDir, header: str, *, traced: bool) -> Server:
    workdir = run_dir.fresh("server")
    env = common.hermetic_env(run_dir, os.path.join(workdir, "cache"))
    ready = os.path.join(workdir, "ready")
    args = [
        "serve", "--http", "127.0.0.1:0", "--trace", header,
        "--workers", "2", "--backend", "threads",
        "--auth-token", TOKEN, "--rate-limit", RATE_LIMIT,
        "--http-ready-file", ready,
    ]
    spans_dir = None
    if traced:
        spans_dir = os.path.join(workdir, "spans")
        os.makedirs(spans_dir)
        command = [sys.executable, os.path.join(common.BENCH_DIR, "traced_server.py"),
                   spans_dir, *args]
    else:
        command = [sys.executable, "-m", "repro", *args]
    log = open(os.path.join(workdir, "server.log"), "w", encoding="utf-8")
    launched = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT,
                               cwd=workdir)
    deadline = time.monotonic() + 120
    while not _read(ready).endswith("\n"):
        if process.poll() is not None or time.monotonic() > deadline:
            Server(process, "", 0, workdir, log, launched).stop(5)
            raise common.BenchError("server did not become ready")
        time.sleep(0.005)
    host, port = _read(ready).strip().rsplit(":", 1)
    return Server(process, host, int(port), workdir, log, launched, spans_dir)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def warm_up(server: Server, config: Config, graphs) -> None:
    """Build every artifact the mix touches (and compile the kernels)."""
    bodies = []
    wire_id = 10_000_000
    for name, pool in pools(config, graphs).items():
        for algorithm, _ in MIX:
            for source in (pool[:2] if algorithm in SOURCED else [-1]):
                wire_id += 1
                bodies.append(_body(wire_id, name, algorithm, source))
    replies = asyncio.run(_run_serial(server.host, server.port, bodies))
    bad = [r.payload for r in replies if not r.ok]
    if bad:
        raise common.BenchError(f"warm-up requests failed: {bad[:2]}")


def warm_load(server: Server, config: Config, graphs, seed: int, oracle) -> List[str]:
    """Untimed closed-loop load; returns wrong or failed answers."""
    requests = request_stream(config, graphs, [seed, 1], config.warm_load_s,
                              first_id=WARM_ID_BASE)
    _, done = asyncio.run(_run_closed_loop(server.host, server.port, requests,
                                           config.warm_load_s))
    failed = [f"warm-load wire id {requests[i].wire_id} failed with status {r.status}"
              for i, r in done if not r.ok]
    return failed + check(done, requests, oracle)


def replay_golden(server: Server) -> List[str]:
    from repro.service.api.client import replay_trace_http

    return common.replay_golden(lambda path: replay_trace_http(
        path, f"{server.host}:{server.port}", token=TOKEN, batch=1))


def check(done: List[Tuple[int, Reply]], requests: List[Request], oracle) -> List[str]:
    wrong = []
    for index, reply in done:
        request = requests[index]
        if not reply.ok:
            continue  # counted as failed, not as wrong
        if request.algorithm in WITH_VALUES:
            raw = reply.payload.get("values", {}).get(str(request.source))
            served = np.array([np.inf if v is None else v for v in raw or []])
            good = raw is not None and oracle.matches(
                request.graph, request.algorithm, request.source, served)
        else:
            good = reply.payload.get("digest") == oracle.digest(
                request.graph, request.algorithm, request.source, SERVED_DTYPE)
        if not good:
            wrong.append(f"wire id {request.wire_id}: {request.algorithm} on "
                         f"{request.graph} source {request.source}")
    return wrong


@dataclass
class Phase:
    outcome: common.Outcome
    records: List[ClientRecord]
    window: Tuple[float, float]


def timed_phase(server: Server, requests: List[Request], oracle,
                seconds: float) -> Phase:
    meter = common.ProcessMeter([server.process.pid])
    meter.start()
    started, done = asyncio.run(
        _run_closed_loop(server.host, server.port, requests, seconds))
    finished = time.perf_counter()
    meter.stop()
    if common.child_pids(server.process.pid):
        raise common.BenchError("the threads-backend server forked children")
    outcome = common.Outcome(
        attempted=len(done), failed=sum(1 for _, r in done if not r.ok),
        wall_s=max(r.recv for _, r in done) - started,
        # a failure misses every latency limit
        latencies_s=[(r.recv - r.send) if r.ok else float("inf") for _, r in done],
        cpu_s=meter.cpu_s, rss_mib=meter.rss_mib,
        wrong=check(done, requests, oracle),
        notes={"clients": CONNECTIONS},
    )
    records = [ClientRecord(key=requests[i].wire_id, start=r.send, end=r.recv)
               for i, r in done]
    return Phase(outcome, records, (started, finished))
