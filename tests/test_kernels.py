"""Kernel-backend selection, parity, and cost-model tests.

This module is the parity proof for the ``cjit`` backend: when a C
compiler is available it asserts bitwise equality with the numpy
baseline on every engine (push, pull, lanes, adaptive) and every
certified program family — and that the fused path actually
*engaged*, so a silently-declining backend cannot pass as "equal".
Backend resolution, the cost model's calibration cache, and its
strategy predictions are covered here too.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.multi_source import multi_source_distances
from repro.algorithms.pagerank import pagerank
from repro.algorithms.programs import (
    BFSProgram,
    CCProgram,
    SSSPProgram,
    SSWPProgram,
)
from repro.algorithms.sssp import sssp
from repro.algorithms.sswp import sswp
from repro.engine import costmodel, kernels
from repro.engine.adaptive import AdaptiveOptions, run_adaptive
from repro.engine.pull import run_pull
from repro.engine.push import EngineOptions, run_push
from repro.engine.schedule import NodeScheduler
from repro.errors import EngineError
from repro.graph.generators import rmat
from repro.service import replay_trace

TRACES = Path(__file__).parent / "traces"

#: JIT backends this machine can actually run; parametrizing over the
#: list keeps the suite green on boxes with no C compiler.
JITS = ["cjit"] if kernels.CJIT_BACKEND.is_available() else []


@pytest.fixture
def graph():
    return rmat(600, 4_000, seed=5, weight_range=(1.0, 8.0))


@pytest.fixture
def fresh_profile():
    """Reset the cached cost-model profile around a test."""
    costmodel.set_profile(None)
    yield
    costmodel.set_profile(None)


def _values(algorithm, graph, backend):
    options = EngineOptions(kernel_backend=backend)
    if algorithm == "bfs":
        return bfs(graph.without_weights(), 0, options=options).values
    if algorithm == "sssp":
        return sssp(graph, 0, options=options).values
    if algorithm == "sswp":
        return sswp(graph, 0, options=options).values
    if algorithm == "cc":
        return connected_components(graph, options=options).values
    if algorithm == "pr":
        return pagerank(graph, max_iterations=15, options=options).values
    raise AssertionError(algorithm)


class TestRegistry:
    def test_unknown_backend_fails_loudly(self):
        for name in ("numba", "simd-unproven"):
            with pytest.raises(EngineError, match="unknown kernel backend"):
                kernels.get_backend(name)
            with pytest.raises(EngineError, match="unknown kernel backend"):
                kernels.resolve_backend(name)

    def test_numpy_backend_declines_everything(self, graph):
        backend = kernels.get_backend("numpy")
        before = backend.engaged
        values = _values("sssp", graph, "numpy")
        assert backend.engaged == before  # base class never engages
        assert np.isfinite(values).any()

    @pytest.mark.skipif(not JITS, reason="no C compiler for cjit")
    def test_auto_picks_cjit_from_jit_min_edges(
        self, monkeypatch, fresh_profile
    ):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        costmodel.set_profile(costmodel.BUILTIN_PROFILE)
        threshold = costmodel.BUILTIN_PROFILE.jit_min_edges
        assert kernels.resolve_backend(edges=threshold - 1).name == "numpy"
        assert kernels.resolve_backend(edges=threshold).name == "cjit"

    @pytest.mark.skipif(not JITS, reason="no C compiler for cjit")
    def test_profile_measuring_cjit_slower_keeps_auto_on_numpy(
        self, monkeypatch, fresh_profile
    ):
        from dataclasses import replace

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        profile = costmodel.BUILTIN_PROFILE
        costmodel.set_profile(replace(
            profile,
            backend_edges_per_s={"numpy": 2e8, "cjit": 1e8},
        ))
        assert kernels.resolve_backend(edges=10**9).name == "numpy"

    def test_unavailable_backend_degrades_to_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_find_cc", lambda: None)
        monkeypatch.setitem(kernels._BACKENDS, "cjit", kernels.CJitBackend())
        monkeypatch.setattr(kernels, "_warned_unavailable", set())
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            backend = kernels.resolve_backend("cjit")
        assert backend.name == "numpy"
        # the warning fires once, not per launch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.resolve_backend("cjit").name == "numpy"

    def test_env_var_drives_default_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert kernels.resolve_backend(None, edges=10**9).name == "numpy"


class TestSpecFor:
    def test_certified_programs_map_to_specs(self):
        for program, relax, reduce in (
            (BFSProgram(), kernels.RELAX_ADDITIVE, kernels.REDUCE_MIN),
            (SSSPProgram(), kernels.RELAX_ADDITIVE, kernels.REDUCE_MIN),
            (SSWPProgram(), kernels.RELAX_WIDEST, kernels.REDUCE_MAX),
            (CCProgram(), kernels.RELAX_PROPAGATION, kernels.REDUCE_MIN),
        ):
            spec = kernels.spec_for(program)
            assert spec is not None
            assert spec.relax == relax
            assert spec.reduce == reduce

    def test_program_with_custom_hooks_is_refused(self):
        class FilteredSSSP(SSSPProgram):
            def filter_pushes(self, candidates, src_values):
                return candidates < 3.0

        assert kernels.spec_for(FilteredSSSP()) is None


@pytest.mark.skipif(not JITS, reason="no C compiler for cjit")
class TestJitParity:
    """Bitwise parity of every available JIT backend with numpy."""

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "sswp", "cc", "pr"])
    def test_push_parity_per_algorithm(self, graph, backend, algorithm):
        engaged_before = kernels.get_backend(backend).engaged
        jit_values = _values(algorithm, graph, backend)
        assert kernels.get_backend(backend).engaged > engaged_before
        np.testing.assert_array_equal(
            _values(algorithm, graph, "numpy"), jit_values
        )

    @pytest.mark.parametrize("backend", JITS)
    def test_lanes_parity_generic_and_bitpacked(self, graph, backend):
        sources = [0, 3, 7, 11]
        for weighted in (True, False):
            target = graph if weighted else graph.without_weights()
            base = multi_source_distances(
                target, sources, weighted=weighted, mode="lanes",
                options=EngineOptions(kernel_backend="numpy"),
            )
            jit = multi_source_distances(
                target, sources, weighted=weighted, mode="lanes",
                options=EngineOptions(kernel_backend=backend),
            )
            np.testing.assert_array_equal(base, jit)

    @pytest.mark.parametrize("backend", JITS)
    def test_pull_parity(self, graph, backend):
        reverse = graph.reverse()
        sched = NodeScheduler(reverse)
        base = run_pull(
            sched, SSSPProgram(), graph, 0,
            options=EngineOptions(kernel_backend="numpy"),
        )
        jit = run_pull(
            sched, SSSPProgram(), graph, 0,
            options=EngineOptions(kernel_backend=backend),
        )
        np.testing.assert_array_equal(base.values, jit.values)

    @pytest.mark.parametrize("backend", JITS)
    def test_adaptive_parity_including_direction_trace(self, graph, backend):
        hop = graph.without_weights()
        base = run_adaptive(
            hop, BFSProgram(), 0,
            options=AdaptiveOptions(kernel_backend="numpy"),
        )
        jit = run_adaptive(
            hop, BFSProgram(), 0,
            options=AdaptiveOptions(kernel_backend=backend),
        )
        np.testing.assert_array_equal(base.values, jit.values)
        # the backend must not perturb the push/pull schedule either
        assert base.push_iterations == jit.push_iterations
        assert base.pull_iterations == jit.pull_iterations

    @pytest.mark.parametrize("backend", JITS)
    def test_sync_relaxation_blocks_decline_but_match(self, graph, backend):
        # read aliases write under sync relaxation; the fused kernels
        # must decline and the buffered numpy path still runs
        options = EngineOptions(
            kernel_backend=backend, sync_relaxation_blocks=4
        )
        base = run_push(
            NodeScheduler(graph), SSSPProgram(), 0,
            options=EngineOptions(sync_relaxation_blocks=4,
                                  kernel_backend="numpy"),
        )
        jit = run_push(NodeScheduler(graph), SSSPProgram(), 0, options=options)
        np.testing.assert_array_equal(base.values, jit.values)

    @pytest.mark.parametrize("backend", JITS)
    def test_golden_trace_replays_digest_clean_under_jit(
        self, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        report = replay_trace(str(TRACES / "mixed.jsonl"), workers=2)
        assert report.digests_checked == report.requests_submitted
        assert report.ok, "\n".join(str(m) for m in report.mismatches)


class TestCalibrationCache:
    def test_profile_round_trips_through_disk(
        self, tmp_path, monkeypatch, fresh_profile
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        profile = costmodel.BUILTIN_PROFILE
        saved_to = costmodel.save_profile(profile)
        assert saved_to == str(tmp_path / costmodel.PROFILE_FILENAME)
        loaded = costmodel.load_profile()
        assert loaded == profile
        # get_profile prefers the disk cache over the builtin
        costmodel.set_profile(None)
        assert costmodel.get_profile() == profile

    def test_missing_and_stale_profiles_are_ignored(
        self, tmp_path, monkeypatch, fresh_profile
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert costmodel.load_profile() is None
        stale = costmodel.BUILTIN_PROFILE.to_dict()
        stale["version"] = costmodel.PROFILE_VERSION + 1
        path = tmp_path / costmodel.PROFILE_FILENAME
        path.write_text(__import__("json").dumps(stale))
        assert costmodel.load_profile() is None
        assert costmodel.get_profile() is costmodel.BUILTIN_PROFILE

    def test_corrupt_profile_warns_and_falls_back(
        self, tmp_path, monkeypatch, fresh_profile
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / costmodel.PROFILE_FILENAME).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="ignoring"):
            assert costmodel.load_profile() is None

    def test_smoke_calibration_measures_and_saves(
        self, tmp_path, monkeypatch, fresh_profile
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        profile, saved_to = costmodel.calibrate_and_save(scale=0.02, repeats=1)
        assert profile.source == "measured"
        assert profile.push_per_edge_s > 0
        assert set(profile.lanes) == set(costmodel.LANE_FAMILIES)
        assert os.path.exists(saved_to)
        assert costmodel.get_profile() == profile


class TestCostModelPredictions:
    BIG = 1_000_000  # edges: firmly in the per-edge-dominated regime
    TINY = 50  # edges: firmly in the overhead-dominated regime

    def test_loop_cost_is_monotone_in_sources(self):
        profile = costmodel.BUILTIN_PROFILE
        costs = [
            profile.multisource_cost(
                "loop", algorithm="bfs", num_sources=s, num_edges=self.BIG
            )
            for s in (1, 2, 4, 8, 16)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_lanes_cost_is_monotone_in_sources_and_edges(self):
        profile = costmodel.BUILTIN_PROFILE
        by_sources = [
            profile.multisource_cost(
                "lanes", algorithm="bfs", num_sources=s, num_edges=self.BIG
            )
            for s in (2, 16, 64, 65, 256)
        ]
        assert by_sources == sorted(by_sources)
        by_edges = [
            profile.multisource_cost(
                "lanes", algorithm="bfs", num_sources=8, num_edges=m
            )
            for m in (10**3, 10**5, 10**7)
        ]
        assert by_edges == sorted(by_edges)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown multisource mode"):
            costmodel.BUILTIN_PROFILE.multisource_cost(
                "warp", algorithm="bfs", num_sources=2, num_edges=10
            )

    def test_single_source_always_loops(self):
        profile = costmodel.BUILTIN_PROFILE
        for m in (self.TINY, self.BIG):
            assert profile.choose_multisource_mode(
                algorithm="sssp", num_sources=1, num_edges=m
            ) == "loop"

    def test_tiny_graphs_collapse_to_lanes(self):
        # the service's batch-collapse behavior: on overhead-dominated
        # graphs one lane pass replaces S whole runs
        profile = costmodel.BUILTIN_PROFILE
        for algorithm in costmodel.LANE_FAMILIES:
            assert profile.choose_multisource_mode(
                algorithm=algorithm, num_sources=3, num_edges=self.TINY
            ) == "lanes"

    def test_sssp_loops_at_every_width_at_scale(self):
        # the honest fix for the sssp lane regression: the measured
        # marginal per-lane cost exceeds a whole scalar pass
        profile = costmodel.BUILTIN_PROFILE
        assert profile.lanes["sssp"].crossover_sources == float("inf")
        for s in (2, 4, 16, 64, 256):
            assert profile.choose_multisource_mode(
                algorithm="sssp", num_sources=s, num_edges=self.BIG
            ) == "loop"

    def test_bfs_lanes_win_wide_batches_at_scale(self):
        profile = costmodel.BUILTIN_PROFILE
        assert profile.choose_multisource_mode(
            algorithm="bfs", num_sources=2, num_edges=self.BIG
        ) == "loop"
        assert profile.choose_multisource_mode(
            algorithm="bfs", num_sources=16, num_edges=self.BIG
        ) == "lanes"

    def test_pull_threshold_is_clamped(self):
        from dataclasses import replace

        profile = costmodel.BUILTIN_PROFILE
        assert 0.02 <= profile.pull_threshold() <= 0.95
        degenerate = replace(profile, pull_per_edge_s=0.0)
        assert degenerate.pull_threshold() == 0.10
        slow_pull = replace(profile, pull_per_edge_s=1.0)
        assert slow_pull.pull_threshold() == 0.95

    def test_backend_choice_respects_size_and_throughput(self):
        profile = costmodel.BUILTIN_PROFILE
        small = profile.jit_min_edges - 1
        assert profile.choose_kernel_backend(
            edges=small, candidates=("cjit", "numpy")
        ) == "numpy"
        assert profile.choose_kernel_backend(
            edges=self.BIG, candidates=("cjit", "numpy")
        ) == "cjit"
        assert profile.choose_kernel_backend(
            edges=self.BIG, candidates=("numpy",)
        ) == "numpy"
