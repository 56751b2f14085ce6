"""One benchmark worker process: set-up, then timed rounds or the traced run.

Started by run.py, never by hand.  Prints one JSON object as its last line
of standard output.  ``--t0`` is the wall-clock time at which run.py
started this process, so set-up time includes interpreter start and
``import curvlab``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import Counts, Recorder, Tracer, log  # noqa: E402


def load_workload(name: str):
    if name == "tables":
        from wl_tables import Tables as cls
    elif name == "transport":
        from wl_transport import Transport as cls
    elif name == "curvature":
        from wl_curvature import Curvature as cls
    elif name == "cli":
        from wl_cli import Cli as cls
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return cls


def run_rounds(wl, seconds: float, chk: list, tracer=None, counts=None, max_rounds=None) -> list[Recorder]:
    """Whole rounds until another would overrun ``seconds`` of operation time.

    At least one round, and at least as many as give ``wl.min_completed``
    completed operations: enough for a 90th percentile with ten samples
    beyond it.
    """
    recs: list[Recorder] = []
    while True:
        gc.collect()  # start every round from the same heap state
        rec = Recorder(tracer)
        wl.round(rec, chk, counts)
        recs.append(rec)
        spent = sum(r.wall for r in recs)
        if max_rounds is not None and len(recs) >= max_rounds:
            return recs
        completed = sum(len(r.latencies) for r in recs)
        if spent + statistics.median(r.wall for r in recs) > seconds and completed >= wl.min_completed:
            return recs


def traced_run(wl, seconds: float, chk: list, trace_path: str):
    """Per-layer numbers: work counts, then untraced rounds, then rounds with spans."""
    layers: dict[str, float] = {}
    recs: list[Recorder] = []
    layers.update(wl.memory_pass())
    counts = None
    if wl.counts_work:
        counts = Counts()
        recs += run_rounds(wl, seconds, chk, counts=counts, max_rounds=1)
        layers.update({
            "core.compose.calls": counts.compose,
            "core.encode.calls": counts.encode,
            "core.lookup.table": counts.table,
            "core.lookup.closed_form": counts.closed_form,
        })
    plain = run_rounds(wl, seconds / 2, chk)
    wl.work.clear()
    tracer = Tracer()
    traced = run_rounds(wl, seconds / 2, chk, tracer=tracer)
    layers.update(wl.per_layer(tracer.totals(), len(traced), counts))
    layers["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    with open(trace_path, "w") as fh:
        json.dump({"workload": wl.name, "per_layer": layers, "self_times": tracer.self_times(),
                   "spans": tracer.dump()}, fh)
    return recs + plain + traced, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", required=True)
    args = p.parse_args(argv)

    wl = load_workload(args.workload)(args.seed, args.workdir)
    try:
        wl.setup()
        out: dict = {"setup_s": time.time() - args.t0}
        if not args.setup_only:
            chk: list[str] = []  # output-check failures; any makes the run incorrect
            if args.trace:
                recs, out["per_layer"] = traced_run(wl, args.seconds, chk, args.trace_file)
            else:
                recs = run_rounds(wl, args.seconds, chk)
            out.update(
                rounds=[r.wall for r in recs],
                latencies=[t for r in recs for t in r.latencies],
                attempted=sum(r.attempted for r in recs),
                failed=sum(r.failed for r in recs),
                unexpected=[u for r in recs for u in r.unexpected],
                check_failures=chk,
                peak_rss_mib=wl.peak_rss_mib(),
            )
            for message in out["unexpected"] + chk:
                log(f"{args.workload}: {message}")
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
