"""Experiment harness: one entry point per paper table/figure.

Every quantitative artifact of the paper's evaluation (§6) has a
function here that regenerates it on the synthetic stand-ins:

========================  =============================================
:func:`table1_split_properties`   Table 1 — split transformation properties
:func:`table3_datasets`           Table 3 — dataset statistics
:func:`table4_performance`        Table 4 — framework comparison (+ OOM)
:func:`figure13_speedups`         Figure 13 — Tigr speedups over baseline
:func:`table5_udt_space`          Table 5 — UDT space cost
:func:`table6_virtual_space`      Table 6 — virtual transformation space cost
:func:`table7_transform_time`     Table 7 — transformation time cost
:func:`table8_sssp_profile`       Table 8 — SSSP performance details
:func:`degree_profile`            §2.3 — power-law degree profile
========================  =============================================

Each returns an :class:`~repro.bench.report.ExperimentReport` holding
raw rows plus a formatted table; the ``benchmarks/`` pytest files are
thin wrappers that time these and assert the expected *shape* (who
wins, by roughly what factor) — see EXPERIMENTS.md.
"""

from repro.bench.cache_policy import cache_policy
from repro.bench.chart import bar_chart, render_bar
from repro.bench.ablations import (
    k_sweep_physical,
    k_sweep_virtual,
    optimization_grid,
    push_vs_pull,
    topology_race,
)
from repro.bench.figures import degree_profile, figure13_speedups
from repro.bench.hardwired import hardwired_comparison
from repro.bench.kernels import kernel_backends
from repro.bench.multisource import multisource_lanes
from repro.bench.orthogonality import device_generation_sweep, multigpu_orthogonality
from repro.bench.report import ExperimentReport, format_table, geometric_mean
from repro.bench.scaling import speedup_scaling, transform_scaling
from repro.bench.service import (
    service_backend_sweep,
    service_throughput,
    service_trace_replay,
)
from repro.bench.sweeps import reordering_comparison, skew_sweep
from repro.bench.tables import (
    table1_split_properties,
    table3_datasets,
    table4_performance,
    table5_udt_space,
    table6_virtual_space,
    table7_transform_time,
    table8_sssp_profile,
)

__all__ = [
    "ExperimentReport",
    "format_table",
    "geometric_mean",
    "table1_split_properties",
    "table3_datasets",
    "table4_performance",
    "table5_udt_space",
    "table6_virtual_space",
    "table7_transform_time",
    "table8_sssp_profile",
    "figure13_speedups",
    "degree_profile",
    "k_sweep_virtual",
    "k_sweep_physical",
    "optimization_grid",
    "topology_race",
    "push_vs_pull",
    "hardwired_comparison",
    "transform_scaling",
    "speedup_scaling",
    "cache_policy",
    "service_backend_sweep",
    "service_throughput",
    "service_trace_replay",
    "multisource_lanes",
    "kernel_backends",
    "skew_sweep",
    "reordering_comparison",
    "bar_chart",
    "render_bar",
    "multigpu_orthogonality",
    "device_generation_sweep",
]
