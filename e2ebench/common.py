"""Plumbing shared by the workloads: run directory, hermetic environment,
process accounting, statistics, the correctness oracle and the report.

Everything a run writes lives under ``<checkout>/.e2ebench``: a private
run root (removed at the end, and checked for leftovers first) and the
oracle cache (kept across runs, keyed by graph content and the source
of the reference implementation).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
STATE_DIR = os.path.join(CHECKOUT, ".e2ebench")
ORACLE_DIR = os.path.join(STATE_DIR, "oracle")
GOLDEN_TRACES = (
    os.path.join(CHECKOUT, "tests", "traces", "bfs-heavy.jsonl"),
    os.path.join(CHECKOUT, "tests", "traces", "mixed.jsonl"),
)

#: variables that would steer the service away from its defaults: the
#: worker backend (CI's trace-replay job exports the first), a forced
#: kernel backend, the eviction policy, the fork/spawn choice and the
#: crash-injection test hook.
HERMETIC_UNSET = (
    "REPRO_SERVICE_WORKERS",
    "REPRO_KERNEL_BACKEND",
    "REPRO_CATALOG_POLICY",
    "REPRO_SERVICE_MP_CONTEXT",
    "REPRO_SERVICE_CRASH_SOURCE",
)

#: relative tolerance for bc/pr answers, whose float sums run in another
#: order than the oracle's (measured differences are below 4e-12).
FLOAT_RTOL = 1e-6


class BenchError(Exception):
    """The run cannot produce a trustworthy result (exit code 1)."""


def require_sources() -> None:
    """Fail fast when the checkout has no ``src/repro`` to benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no repro package under {SRC}; run from a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Run directory and hermetic environment
# ----------------------------------------------------------------------
class RunDir:
    """A private scratch root for one run, checked and removed at exit.

    ``TMPDIR`` points inside it, so anything the program leaves in its
    temp dir shows in :meth:`leftovers` and fails the run.
    """

    def __init__(self) -> None:
        self.root = os.path.join(STATE_DIR, "runs", str(os.getpid()))
        shutil.rmtree(self.root, ignore_errors=True)
        self.tmp = os.path.join(self.root, "tmp")
        os.makedirs(self.tmp)
        self._counter = 0

    def fresh(self, name: str) -> str:
        """A new empty directory the benchmark owns (removed by it)."""
        self._counter += 1
        path = os.path.join(self.root, f"{name}-{self._counter}")
        os.makedirs(path)
        return path

    def release(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def leftovers(self) -> List[str]:
        """Entries the program left in the run's temp dir."""
        return sorted(os.listdir(self.tmp))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.root))
        except OSError:
            pass  # another run in this checkout still uses it


def hermetic_env(run_dir: RunDir, cache_dir: str) -> Dict[str, str]:
    """Environment for the service: private cache, no steering vars."""
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["REPRO_CACHE_DIR"] = cache_dir
    env["TMPDIR"] = run_dir.tmp
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def apply_env(env: Dict[str, str]) -> None:
    """Make ``env`` this process's environment (in-process services)."""
    import tempfile

    for key in HERMETIC_UNSET:
        os.environ.pop(key, None)
    os.environ.update(env)
    tempfile.tempdir = env["TMPDIR"]


def environment_record(seed: int, extra: Dict[str, object]) -> Dict[str, object]:
    """What every result is recorded with."""
    from repro.engine import kernels

    record: Dict[str, object] = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.resolve_backend(edges=100_000).name,
        "c_compiler": _c_compiler(),
        "seed": seed,
    }
    record.update(extra)
    return record


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _c_compiler() -> str:
    """The compiler the cjit backend would use, with its version line."""
    from repro.engine.kernels import _find_cc

    compiler = _find_cc()
    if compiler is None:
        return "none"
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return compiler
    return out.stdout.splitlines()[0].strip() if out.stdout else compiler


# ----------------------------------------------------------------------
# Process accounting (/proc)
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int) -> None:
    """Restart ``VmHWM`` from the current RSS, so the peak is the timed
    phase's own (set-up allocations do not count twice)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass  # kernel without the reset: the peak then includes set-up


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (all threads)."""
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except FileNotFoundError:
        return found
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                found.extend(int(p) for p in fh.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(found))


def wait_no_children(timeout_s: float = 10.0) -> None:
    """Reap finished children; fail if any is still alive afterwards."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        alive = [
            p for p in child_pids(os.getpid()) if _state(p) not in ("Z", "X", "")
        ]
        if not alive:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"child processes left running: {alive}")
        time.sleep(0.05)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0].decode()
    except FileNotFoundError:
        return ""


@dataclass
class ProcessMeter:
    """CPU and peak RSS of the serving processes over the timed phase.

    ``pids`` are read at :meth:`start` and again at :meth:`stop`; every
    process must still be alive at both points (workers are summed).
    """

    pids: Sequence[int]
    cpu_start: Dict[int, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    rss_mib: float = 0.0

    def start(self) -> None:
        for pid in self.pids:
            reset_peak_rss(pid)
            self.cpu_start[pid] = cpu_seconds(pid)

    def stop(self) -> None:
        self.cpu_s = sum(cpu_seconds(p) - self.cpu_start[p] for p in self.pids)
        self.rss_mib = sum(peak_rss_mib(p) for p in self.pids)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """What the timed phase of one workload produced."""

    attempted: int
    failed: int
    wall_s: float
    latencies_s: List[float]
    cpu_s: float
    rss_mib: float
    wrong: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def metrics(self, setup_s: float) -> Dict[str, Tuple[float, str]]:
        completed = self.attempted - self.failed
        lat = self.latencies_s
        return {
            "setup_s": (setup_s, "s"),
            "throughput_qps": (completed / self.wall_s, "req/s"),
            "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "latency_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
            "cpu_ms_per_query": (self.cpu_s * 1e3 / max(completed, 1), "ms"),
            "peak_rss_mb": (self.rss_mib, "MiB"),
            "success_ratio": (completed / max(self.attempted, 1), "ratio"),
        }


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
#: the graphs of an oracle worker process, set by its pool initializer.
_ORACLE_GRAPHS: Dict[str, object] = {}


def _oracle_init(graphs: Dict[str, object]) -> None:
    _ORACLE_GRAPHS.update(graphs)


def _reference_fingerprint() -> str:
    digest = hashlib.sha256()
    for rel in ("algorithms/reference.py", "baselines/base.py"):
        with open(os.path.join(SRC, "repro", rel), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _oracle_job(graph_key: str, algorithm: str, source: int) -> np.ndarray:
    from repro.algorithms import reference
    from repro.baselines.base import prepare_graph

    graph = prepare_graph(_ORACLE_GRAPHS[graph_key], algorithm)
    if algorithm == "bfs":
        return reference.reference_bfs(graph, source)
    if algorithm == "sssp":
        return reference.reference_sssp(graph, source)
    if algorithm == "sswp":
        return reference.reference_sswp(graph, source)
    if algorithm == "bc":
        return reference.reference_bc(graph, source)
    if algorithm == "cc":
        return reference.reference_connected_components(graph)
    if algorithm == "pr":
        return reference.reference_pagerank(graph)
    raise BenchError(f"no oracle for {algorithm}")


class Oracle:
    """Reference answers for (graph, algorithm, source) keys.

    Answers come from :mod:`repro.algorithms.reference` run on the
    prepared graph, computed in two forked processes and cached on disk
    by graph fingerprint, so later runs only load them.  Sourceless
    analytics use source ``-1``.  :meth:`ensure` forks, so it runs only
    in the single-threaded parent; serving processes :meth:`load`.
    """

    def __init__(self, graphs: Dict[str, object]) -> None:
        self.graphs = graphs
        self._ref = _reference_fingerprint()
        self._values: Dict[Tuple[str, str, int], np.ndarray] = {}
        os.makedirs(ORACLE_DIR, exist_ok=True)

    def _path(self, graph_name: str, algorithm: str, source: int) -> str:
        fingerprint = self.graphs[graph_name].fingerprint()[:24]
        return os.path.join(
            ORACLE_DIR, f"{self._ref}-{fingerprint}-{algorithm}-{source}.npy"
        )

    def _load(self, keys: Iterable[Tuple[str, str, int]]) -> List[Tuple[str, str, int]]:
        """Load every cached key; returns the keys not cached."""
        missing = []
        for key in sorted(set(keys)):
            if key in self._values:
                continue
            path = self._path(*key)
            if os.path.exists(path):
                self._values[key] = np.load(path)
            else:
                missing.append(key)
        return missing

    def load(self, keys: Iterable[Tuple[str, str, int]]) -> None:
        missing = self._load(keys)
        if missing:
            raise BenchError(f"{len(missing)} oracle answers not cached, e.g. {missing[0]}")

    def ensure(self, keys: Iterable[Tuple[str, str, int]]) -> float:
        """Load or compute every key; returns seconds spent computing."""
        missing = self._load(keys)
        if not missing:
            return 0.0
        start = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork"),
            initializer=_oracle_init, initargs=(self.graphs,),
        ) as pool:
            futures = {pool.submit(_oracle_job, *key): key for key in missing}
            for future, key in futures.items():
                values = future.result()
                self._values[key] = values
                tmp = self._path(*key) + f".{os.getpid()}.tmp.npy"
                np.save(tmp, values)
                os.replace(tmp, self._path(*key))
        return time.perf_counter() - start

    def values(self, graph: str, algorithm: str, source: int) -> np.ndarray:
        return self._values[(graph, algorithm, source)]

    def matches(
        self, graph: str, algorithm: str, source: int, served: np.ndarray
    ) -> bool:
        """Exact for bfs/sssp/sswp/cc; rtol 1e-6 for bc/pr."""
        expected = self.values(graph, algorithm, source)
        served = np.asarray(served)
        if served.shape != expected.shape:
            return False
        if algorithm in ("bc", "pr"):
            return bool(np.allclose(
                served, expected, rtol=FLOAT_RTOL,
                atol=FLOAT_RTOL * float(np.max(np.abs(expected), initial=0.0)),
            ))
        return bool(np.array_equal(expected.astype(served.dtype), served))

    def digest(self, graph: str, algorithm: str, source: int, dtype) -> str:
        """The digest the service must return for a single-source answer."""
        from repro.service import QueryResult, result_digest

        values = self.values(graph, algorithm, source).astype(dtype)
        return result_digest(
            QueryResult(
                request_id=0, algorithm=algorithm, values={source: values},
                transform="none", degree_bound=0,
            )
        )


#: analytics that take a source (the rest run once per graph, source -1).
SOURCED = ("bfs", "sssp", "sswp", "bc")


def load_graphs(specs: Iterable[Tuple[str, str, float]]) -> Dict[str, object]:
    """``{name: graph}`` for ``(name, dataset, scale)`` recipes."""
    from repro.graph.datasets import load_dataset

    return {name: load_dataset(dataset, scale=scale) for name, dataset, scale in specs}


def oracle_keys(pools: Dict[str, List[int]], algorithms: Iterable[str]
                ) -> List[Tuple[str, str, int]]:
    """Every (graph, analytic, source) answer a workload can ask for."""
    keys = []
    for name, pool in pools.items():
        for algorithm in algorithms:
            if algorithm in SOURCED:
                keys.extend((name, algorithm, s) for s in pool)
            else:
                keys.append((name, algorithm, -1))
    return keys


def source_pool(graph, size: int, salt: str) -> List[int]:
    """A fixed pool of sources for ``graph``, chosen from its content.

    The pool depends on the graph, not on the run's seed, so the oracle
    answers for it are computed once per checkout; the seed decides
    which pool members each request uses.  Sources have out-degree > 0.
    """
    digest = hashlib.sha256(f"{graph.fingerprint()}:{salt}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    degrees = np.diff(graph.offsets)
    candidates = np.flatnonzero(degrees > 0)
    size = min(size, len(candidates))
    return sorted(int(s) for s in rng.choice(candidates, size, replace=False))


def replay_golden(replay) -> List[str]:
    """Run ``replay(path)`` on each golden trace; mismatch descriptions."""
    problems: List[str] = []
    for path in GOLDEN_TRACES:
        report = replay(path)
        if not report.ok or report.digests_checked == 0:
            problems.append(
                f"{os.path.basename(path)}: "
                f"{len(report.mismatches)} mismatch(es) of "
                f"{report.digests_checked} digests: "
                + "; ".join(str(m) for m in report.mismatches[:3])
            )
    return problems


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(
    workload: str,
    metrics: Dict[str, Tuple[float, str]],
    *,
    correct: bool,
    attempted: int,
    failed: int,
    record: Dict[str, object],
    lines: Sequence[str] = (),
) -> None:
    """Human-readable lines, then the one-line JSON result (last line)."""
    print(f"# workload {workload}")
    for key in sorted(record):
        print(f"#   {key}: {record[key]}")
    for line in lines:
        print(f"#   {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"oracle: {'all answers correct' if correct else 'WRONG ANSWERS'}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=False), flush=True)
