"""Scalar numpy vs the ``cjit`` kernel backend across the core analytics.

Not a paper table — this experiment certifies the compiled kernels
(:mod:`repro.engine.kernels`) the way the multisource bench certifies
the lane engine: ``cjit`` must produce **bitwise identical** results
to the numpy baseline while actually being faster, else it is risk
without reward.

Rows sweep (graph, algorithm); the ``cjit_s``/``cjit_x``/``cjit_equal``
columns give the warm wall time, the speedup over numpy and the parity
check.  Warm timings exclude the one-time setup (compile or
shared-library load), which is reported separately in the extras — a
JIT that only wins by amortising its compile over many runs must say
so.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.bench.report import ExperimentReport
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.graph.generators import configuration_power_law, rmat

#: the analytics swept: one per (relax, reduce) family the backends
#: accelerate — additive/min, propagation/min, and the pagerank
#: edge-multiply-add fast path.
ALGORITHMS = ("bfs", "sssp", "cc", "pr")


def _run(algorithm: str, graph, options: EngineOptions) -> np.ndarray:
    if algorithm == "bfs":
        return bfs(graph, 0, options=options).values
    if algorithm == "sssp":
        return sssp(graph, 0, options=options).values
    if algorithm == "cc":
        return connected_components(graph, options=options).values
    if algorithm == "pr":
        return pagerank(graph, max_iterations=20, options=options).values
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _time_backend(
    algorithm: str, graph, backend_name: str, repeats: int
) -> Tuple[np.ndarray, float, int]:
    """Best-of-``repeats`` wall time plus the backend's engagement
    delta (0 means every launch fell back to the numpy path and the
    timing says nothing about the backend)."""
    options = EngineOptions(kernel_backend=backend_name)
    backend = kernels.get_backend(backend_name)
    engaged_before = backend.engaged
    best = float("inf")
    values: Optional[np.ndarray] = None
    for _ in range(repeats):
        start = time.perf_counter()
        values = _run(algorithm, graph, options)
        best = min(best, time.perf_counter() - start)
    return values, best, backend.engaged - engaged_before


def _cold_compile_seconds() -> float:
    """Wall seconds for a from-scratch cjit compile.

    The shared backend caches its shared library on disk *and* in
    the process, so a fresh instance pointed at an empty cache dir is
    the only honest way to measure the compile-included cost.
    """
    import tempfile

    from repro.engine.kernels import CJitBackend

    with tempfile.TemporaryDirectory(prefix="repro-kernels-cold-") as tmp:
        saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            backend = CJitBackend()
            start = time.perf_counter()
            lib = backend._ensure_lib()
            elapsed = time.perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    return elapsed if lib is not None else float("nan")


def kernel_backends(
    scale: float = 1.0,
    *,
    num_nodes: int = 30_000,
    edge_factor: int = 16,
    seed: int = 7,
    repeats: int = 3,
) -> ExperimentReport:
    """Numpy baseline vs ``cjit`` (when a C compiler exists), per analytic.

    Per (graph, algorithm) row: the numpy wall time, then the
    ``cjit_s`` / ``cjit_x`` / ``cjit_equal`` columns (warm timings,
    bitwise-checked).  Extras carry the one-time costs
    (``cjit_first_run_s``, ``cjit_compile_s``) and the headline
    ``best_jit_speedup``.
    """
    n = max(256, int(num_nodes * scale))
    graphs = {
        "rmat": rmat(n, edge_factor * n, seed=seed, weight_range=(1.0, 8.0)),
        "power-law": configuration_power_law(
            n, exponent=2.1, target_edges=edge_factor * n, seed=seed,
            weight_range=(1.0, 8.0),
        ),
    }
    has_cjit = kernels.CJIT_BACKEND.is_available()
    report = ExperimentReport(
        "Kernel backends",
        "scalar numpy vs the cjit kernel backend"
        + ("" if has_cjit else " (unavailable: no C compiler)")
        + ", warm timings, bitwise-checked",
    )

    if has_cjit:
        # One-time setup (compile or .so load), measured on a tiny graph
        # so the engine work itself is noise.
        tiny = rmat(256, 2048, seed=seed, weight_range=(1.0, 8.0))
        start = time.perf_counter()
        _run("sssp", tiny, EngineOptions(kernel_backend="cjit"))
        report.extras["cjit_first_run_s"] = time.perf_counter() - start
        report.extras["cjit_compile_s"] = _cold_compile_seconds()

    all_equal = True
    all_engaged = True
    best_speedup = 0.0
    for graph_name, weighted_graph in graphs.items():
        hop_graph = weighted_graph.without_weights()
        for algorithm in ALGORITHMS:
            graph = weighted_graph if algorithm == "sssp" else hop_graph
            base_values, base_s, _ = _time_backend(
                algorithm, graph, "numpy", repeats
            )
            row = {
                "graph": graph_name,
                "algorithm": algorithm,
                "numpy_s": base_s,
            }
            if has_cjit:
                values, jit_s, engaged = _time_backend(
                    algorithm, graph, "cjit", repeats
                )
                equal = bool(np.array_equal(base_values, values))
                all_equal = all_equal and equal
                all_engaged = all_engaged and engaged > 0
                speedup = base_s / jit_s if jit_s > 0 else float("inf")
                best_speedup = max(best_speedup, speedup)
                row.update(cjit_s=jit_s, cjit_x=speedup, cjit_equal=equal)
            report.add_row(**row)

    report.extras["all_bitwise_equal"] = all_equal
    report.extras["all_jit_engaged"] = all_engaged
    if has_cjit:
        report.extras["cjit_best_speedup"] = best_speedup
    report.extras["best_jit_speedup"] = best_speedup
    return report
