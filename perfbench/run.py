"""Benchmark curvlab end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables|transport|curvature|cli \\
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout.  Each run starts
fresh worker processes: ``SETUP_SAMPLES - 1`` that only set up, then one
that sets up and runs whole rounds of the workload's operations for about
S seconds of operation time.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Result and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables", "transport", "curvature", "cli")
SETUP_SAMPLES = 3
DEADLINE_S = 175  # every run ends within this, workers included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mib": "MiB",
}

_BFS_GROUPS = ("Heis", "L2", "H2", "F3", "Z3")
_SUBCOMMANDS = ("length", "curvature", "deadend", "backtracks", "density", "transport", "probe")
# Per-layer metric -> (unit, the workload whose traced run measures it).
PER_LAYER = {
    "core.bfs_metric.s": ("s", "tables"),
    "core.bfs_metric.elements": ("count", "tables"),
    **{f"core.bfs_metric.{g}.elements_per_s": ("1/s", "tables") for g in _BFS_GROUPS},
    **{f"core.bfs_metric.{g}.bytes_per_element": ("B", "tables") for g in _BFS_GROUPS},
    "core.compose.calls": ("count", "tables transport curvature"),
    "core.encode.calls": ("count", "tables transport curvature"),
    "core.lookup.table": ("count", "tables transport curvature"),
    "core.lookup.closed_form": ("count", "tables transport curvature"),
    "cache.save.s": ("s", "tables"),
    "cache.load.s": ("s", "tables"),
    "cache.load.elements_per_s": ("1/s", "tables"),
    "cache.bytes_per_element": ("B", "tables"),
    "transport.enumerate_optimal.s": ("s", "transport"),
    "transport.optima": ("count", "transport"),
    "transport.cost_matrix.s": ("s", "transport"),
    "transport.solve_assignment.s": ("s", "transport"),
    "transport.rows": ("count", "transport"),
    "transport.question_probe.s": ("s", "transport"),
    "curvature.kappa.s": ("s", "curvature"),
    "curvature.conjugates": ("count", "curvature"),
    "curvature.conjugates_per_s": ("1/s", "curvature"),
    "deadend.scan.s": ("s", "curvature"),
    "deadend.report.s": ("s", "curvature"),
    "deadend.backtrack_elements.s": ("s", "curvature"),
    "deadend.dead_ends": ("count", "curvature"),
    "heisenberg.density.s": ("s", "curvature"),
    "heisenberg.density.elements": ("count", "curvature"),
    "cli.interpreter.s": ("s", "cli"),
    "cli.import.s": ("s", "cli"),
    **{f"cli.{sub}.s": ("s", "cli") for sub in _SUBCOMMANDS},
    "trace.overhead_s": ("s", "tables transport curvature cli"),
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    return 1


def _worker(args, workdir: str, trace_file: str, deadline: float, *, setup_only: bool) -> dict:
    """Start one worker in its own session, wait for it, and return its JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, "--trace-file", trace_file,
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run's deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any curvlab child it started
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)  # a killed worker cannot clean up after itself
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    lat = res["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["rounds"]),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mib": res["peak_rss_mib"],
    }


def per_layer(workload: str, measured: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric; a layer this workload does not exercise reads 0, with the reason."""
    values, absent = {}, {}
    for name, (_, where) in PER_LAYER.items():
        if name in measured:
            values[name] = measured[name]
        else:
            values[name] = 0.0
            absent[name] = f"not exercised by the {workload} workload; measured on: {where}"
    return values, absent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))  # unwind, so the worker is stopped too

    if not os.path.isfile(os.path.join(ROOT, "src", "curvlab", "__init__.py")):
        return _fail(f"no curvlab sources under {os.path.join(ROOT, 'src')}; run from the root of a checkout")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")

    try:
        setups = [
            _worker(args, f"{workdir}-{i}", trace_file, deadline, setup_only=True)["setup_s"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        res = _worker(args, workdir, trace_file, deadline, setup_only=False)
    except RuntimeError as exc:
        return _fail(f"{args.workload}: {exc}")
    setups.append(res["setup_s"])

    if args.trace:
        values, absent = per_layer(args.workload, res["per_layer"])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        with open(trace_file) as fh:
            trace = json.load(fh)
        trace["absent"] = absent
        with open(trace_file, "w") as fh:
            json.dump(trace, fh)
    else:
        values, units = end_to_end(setups, res), END_TO_END
    correct = not res["unexpected"] and not res["check_failures"]
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({**result, "setups_s": setups, "rounds_s": res["rounds"], "ops": len(res["latencies"])}, fh)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(res['rounds'])} rounds, "
        f"{res['attempted']} operations, {res['failed']} failed, correct={correct}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
