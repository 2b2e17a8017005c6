"""End-to-end serving benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload http-point --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload twice, untraced and then with span
wrappers installed (half of ``--seconds`` each), and prints the
per-layer metrics plus ``trace.overhead_ratio``, the traced over the
untraced median latency.  ``--smoke`` shrinks graphs, pools and set-up
repeats so every workload, the oracle and the traced run finish in
seconds (``e2ebench/test_e2ebench.py`` drives it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 for a correct run, 1 for a wrong answer or a run that could not be
measured honestly, and 2 for bad arguments.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
import http_point as hp

WORKLOAD_NAMES = ("http-point", "bulk-analytics", "catalog-churn")
#: set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: timed requests a run needs so that ten samples lie beyond the p99.
MIN_SAMPLES = 1000
CHILD_TIMEOUT_S = 150.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and one set-up; for the bench's own tests")
    # internal: one serving process of an in-process workload
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spans-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# In-process workloads: each set-up is a fresh child process
# ----------------------------------------------------------------------
def run_child(run_dir: common.RunDir, args, *, probe: bool, seconds: float,
              traced: bool = False) -> Tuple[float, Optional[dict]]:
    """Launch one serving process; returns (setup seconds, its result)."""
    workdir = run_dir.fresh("child")
    out = os.path.join(workdir, "result.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--workdir", workdir, "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    if probe:
        command.append("--probe")
    if traced:
        spans = os.path.join(workdir, "spans")
        os.makedirs(spans)
        command += ["--spans-dir", spans]
    env = common.hermetic_env(run_dir, os.path.join(workdir, "cache"))
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        launched = time.perf_counter()
        process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                   stderr=log, text=True, cwd=workdir)
        try:
            setup_s = None
            for line in process.stdout:
                if line.strip() == "READY":
                    setup_s = time.perf_counter() - launched
                    break
            process.stdout.read()
            code = process.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise common.BenchError("serving process did not finish in time")
        finally:
            process.stdout.close()
    if code != 0 or setup_s is None:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-3000:]
        raise common.BenchError(f"serving process exited with code {code}:\n{tail}")
    result = None
    if not probe:
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    run_dir.release(workdir)
    return setup_s, result


def _outcome(result: dict) -> common.Outcome:
    return common.Outcome(
        attempted=result["attempted"], failed=result["failed"],
        wall_s=result["wall_s"], latencies_s=result["latencies"],
        cpu_s=result["cpu_s"], rss_mib=result["rss_mib"],
        wrong=result["wrong"] + result["golden_problems"], notes=result["notes"],
    )


def run_inproc(run_dir: common.RunDir, args):
    import inproc

    workload = inproc.WORKLOADS[args.workload](args.seed, args.smoke)
    graphs = workload.make_graphs()
    oracle_s = common.Oracle(graphs).ensure(workload.oracle_keys(graphs))
    notes: Dict[str, object] = {"oracle_compute_s": round(oracle_s, 3)}
    if not args.trace:
        setups = []
        for _ in range(1 if args.smoke else SETUPS - 1):
            setups.append(run_child(run_dir, args, probe=True, seconds=args.seconds)[0])
        setup_s, result = run_child(run_dir, args, probe=False, seconds=args.seconds)
        setups.append(setup_s)
        outcome = _outcome(result)
        notes.update(outcome.notes)
        return setups, outcome, None, notes
    half = args.seconds / 2
    setup_s, plain = run_child(run_dir, args, probe=False, seconds=half)
    _, traced = run_child(run_dir, args, probe=False, seconds=half, traced=True)
    plain_outcome, traced_outcome = _outcome(plain), _outcome(traced)
    per_layer = dict(traced["per_layer"])
    notes.update(traced_outcome.notes)
    traced_outcome.wrong += plain_outcome.wrong
    return [setup_s], traced_outcome, (per_layer, plain_outcome), notes


# ----------------------------------------------------------------------
# http-point: the server is a child process, the client is this process
# ----------------------------------------------------------------------
def run_http(run_dir: common.RunDir, args):
    import layers
    import tracing

    config = hp.SMOKE if args.smoke else hp.FULL
    graphs = hp.make_graphs(config)
    oracle = common.Oracle(graphs)
    notes: Dict[str, object] = {
        "oracle_compute_s": round(oracle.ensure(hp.oracle_keys(config, graphs)), 3),
    }
    header = os.path.join(run_dir.root, "graphs.jsonl")
    hp.write_header_trace(header, config, graphs)
    seconds = args.seconds / 2 if args.trace else args.seconds
    requests = hp.request_stream(config, graphs, args.seed, seconds)
    setups: List[float] = []
    for _ in range(0 if args.trace else config.setups - 1):
        with hp.launch(run_dir, header, traced=False) as server:
            hp.warm_up(server, config, graphs)
            setups.append(time.perf_counter() - server.launched)
        run_dir.release(server.workdir)
    with hp.launch(run_dir, header, traced=False) as server:
        hp.warm_up(server, config, graphs)
        setups.append(time.perf_counter() - server.launched)
        problems = hp.replay_golden(server)
        problems += hp.warm_load(server, config, graphs, args.seed, oracle)
        phase = hp.timed_phase(server, requests, oracle, seconds)
    run_dir.release(server.workdir)
    phase.outcome.wrong += problems
    phase.outcome.notes.update(notes)
    if not args.trace:
        return setups, phase.outcome, None, phase.outcome.notes
    with hp.launch(run_dir, header, traced=True) as server:
        hp.warm_up(server, config, graphs)
        traced_problems = hp.warm_load(server, config, graphs, args.seed, oracle)
        traced = hp.timed_phase(server, requests, oracle, seconds)
    spans = tracing.load_span_files(server.spans_dir)
    run_dir.release(server.workdir)
    per_layer, diagnostics = layers.analyse(
        spans, traced.records, window=traced.window, http=True)
    traced.outcome.notes.update(notes)
    traced.outcome.notes.update(diagnostics)
    traced.outcome.wrong += phase.outcome.wrong + traced_problems
    return setups, traced.outcome, (per_layer, phase.outcome), traced.outcome.notes


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        common.require_sources()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.child:
        import inproc

        return inproc.child_main(args)
    run_dir = common.RunDir()
    try:
        common.apply_env(common.hermetic_env(run_dir, os.path.join(run_dir.root, "cache")))
        runner = run_http if args.workload == "http-point" else run_inproc
        setups, outcome, traced, notes = runner(run_dir, args)
        common.wait_no_children()
        leftovers = run_dir.leftovers()
        if leftovers:
            raise common.BenchError(f"the program left temp files behind: {leftovers}")
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run_dir.close()
    report(args, setups, outcome, traced, notes)
    return 0 if not outcome.wrong else 1


def report(args, setups, outcome: common.Outcome, traced, notes) -> None:
    setup_s = common.median(setups)
    record = common.environment_record(args.seed, {
        "http_point_clients": hp.CONNECTIONS,
        "workload": args.workload,
        "smoke": args.smoke,
        "setups": ", ".join(f"{s:.3f}s" for s in setups),
    })
    completed = outcome.attempted - outcome.failed
    p99 = common.percentile(outcome.latencies_s, 99)
    beyond = sum(1 for v in outcome.latencies_s if v > p99)
    lines = [f"samples: {len(outcome.latencies_s)} timed requests, "
             f"{beyond} beyond the p99, {completed} completed"]
    if len(outcome.latencies_s) < MIN_SAMPLES and not args.smoke:
        lines.append(f"WARNING: fewer than {MIN_SAMPLES} timed requests; "
                     f"the p99 rests on fewer than ten samples")
    lines += [f"{key}: {value}" for key, value in sorted(notes.items())]
    for problem in outcome.wrong[:10]:
        lines.append(f"WRONG: {problem}")
    end_to_end = outcome.metrics(setup_s)
    error_ratio = outcome.failed / max(outcome.attempted, 1)
    lines.append(f"error_ratio: {error_ratio:.6f} (failed or refused / attempted)")
    if traced is None:
        metrics = end_to_end
    else:
        per_layer, plain = traced
        metrics = {name: (value, unit) for name, (value, unit) in per_layer.items()}
        plain_p50 = plain.metrics(setup_s)["latency_p50_ms"][0]
        traced_p50 = end_to_end["latency_p50_ms"][0]
        metrics["trace.overhead_ratio"] = (
            traced_p50 / plain_p50 if plain_p50 else 0.0, "ratio")
        lines.append(f"untraced latency_p50_ms: {plain_p50:.4f}, traced: {traced_p50:.4f}")
    common.print_report(
        args.workload, metrics, correct=not outcome.wrong,
        attempted=outcome.attempted, failed=outcome.failed,
        record=record, lines=lines,
    )


if __name__ == "__main__":
    sys.exit(main())
