"""Write and compare BENCH_<label>.json files: the end-to-end metrics of every benchmark workload.

Usage, from anywhere:

    python3 tools/bench.py --label L [--root DIR] [--label L2 --root DIR2] [--seeds 1 2 3]
    python3 tools/bench.py --compare BENCH_A.json BENCH_B.json

The first form runs ``perfbench/run.py --trace 0`` of the checkout at DIR
(default: this checkout) for every workload and seed, each run as long as
``BENCHMARK.json``'s ``run_seconds``, and writes ``BENCH_L.json`` at the root
of this checkout: for each workload the median and quartiles over the seeds
of each end-to-end metric of ``BENCHMARK.json``, with the seeds, the seconds,
the processor count, the Python version and the measured checkout's
``git rev-parse HEAD``.  Every run uses ``python -B``
with ``PYTHONDONTWRITEBYTECODE=1``, after removing each ``__pycache__`` under
the measured ``src/``, so no side runs on bytecode that the other lacks.
With two label/root pairs the sides alternate which runs first, seed by seed.
It refuses to write when any run fails or reads ``correct: false`` or
``failed > 0``.

The second form prints each metric's change from A to B and exits 1 when a
change is worse than its bound in ``BENCHMARK.json``, or, silently, when its
reader closes the output early (``| head -1``).  It exits 2, comparing
nothing, when the two files differ in their seeds, seconds, processor count
or Python version, since their runs were not measured alike.  A metric whose
quartiles lie further apart than its bound on either side is marked noise,
unresolved: its runs spread too widely for the bound to judge either way, so
it is not counted as a regression (the ``transport`` workload's ``setup_s``
is the known case); more seeds narrow it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300  # perfbench/run.py ends a run of BENCHMARK.json's 20 s within 175 s
SETUP = ("seeds", "seconds", "nproc", "python")  # what two compared BENCH files must share


def load_spec(root: str = REPO) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles of one metric over the seeds; a single value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def bench_record(
    label: str, runs: dict[str, list[dict]], *, seeds, seconds, head: str, dirty: bool, nproc: int, python: str
) -> dict:
    """The BENCH file of ``runs``: workload -> the JSON lines of ``perfbench/run.py``, one per seed.

    ``dirty`` says the measured checkout had uncommitted edits to tracked files over ``head``.
    """
    workloads = {}
    for workload, lines in runs.items():
        names = lines[0]["metrics"]
        workloads[workload] = {
            name: {"unit": lines[0]["metrics"][name]["unit"], **summarize([line["metrics"][name]["value"] for line in lines])}
            for name in names
        }
    return {
        "label": label,
        "git_head": head,
        "git_dirty": dirty,
        "python": python,
        "nproc": nproc,
        "seeds": list(seeds),
        "seconds": seconds,
        "workloads": workloads,
        "runs": runs,
    }


def bad_runs(runs: dict[str, list[dict]]) -> list[str]:
    """The runs that read ``correct: false`` or ``failed > 0``, one line each."""
    return [
        f"{workload} seed {line['seed']}: correct={line['correct']}, failed={line['failed']}"
        for workload, lines in runs.items()
        for line in lines
        if line["correct"] is not True or line["failed"] > 0
    ]


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def setup_mismatch(a: dict, b: dict) -> list[str]:
    """The fields of ``SETUP`` in which A and B differ, one line each; empty when they were measured alike."""
    return [f"{key}: {a.get(key)!r} against {b.get(key)!r}" for key in SETUP if a.get(key) != b.get(key)]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """The lines of the comparison of A with B, and whether some change is a regression."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, regressed = [], False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for name, metric in bounds.items():
            old, new = a["workloads"][workload].get(name), b["workloads"][workload].get(name)
            if old is None or new is None:
                continue
            change = (new["median"] - old["median"]) / old["median"] if old["median"] else 0.0
            worse = change if metric["better"] == "lower" else -change
            if max(_spread(old), _spread(new)) > metric["bound"]:
                flag = "noise, unresolved: quartiles wider than the bound"
            elif worse > metric["bound"]:
                flag, regressed = f"REGRESSION beyond {metric['bound']:.0%}", True
            else:
                flag = ""
            quartiles = f"[{old['q1']:.4g}, {old['q3']:.4g}] -> [{new['q1']:.4g}, {new['q3']:.4g}]"
            lines.append(
                f"{workload:<10} {name:<13} {old['median']:>9.4g} -> {new['median']:>9.4g} {metric['unit']:<4}"
                f" {change:>+7.1%}  {quartiles}  {flag}".rstrip()
            )
    return lines, regressed


def _git(root: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()


def _clear_bytecode(root: str) -> None:
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    _clear_bytecode(root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{root}: {workload} seed {seed} exited with code {proc.returncode}: {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"bench: {os.path.basename(os.path.abspath(root))} {workload} seed {seed}: wall_s "
          f"{line['metrics']['wall_s']['value']:.4f}", file=sys.stderr, flush=True)
    return {"seed": seed, **line}


def measure(sides: list[tuple[str, str]], workloads, seeds) -> int:
    seconds = load_spec()["run_seconds"]
    runs = {label: {workload: [] for workload in workloads} for label, _ in sides}
    for workload in workloads:
        for k, seed in enumerate(seeds):
            for label, root in sides[k % 2:] + sides[: k % 2]:  # alternate which side runs first
                runs[label][workload].append(_run(root, workload, seed, seconds))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    status = 0
    for label, root in sides:
        bad = bad_runs(runs[label])
        if bad:
            print(f"bench: not writing BENCH_{label}.json; " + "; ".join(bad), file=sys.stderr)
            status = 1
            continue
        record = bench_record(
            label, runs[label], seeds=seeds, seconds=seconds, head=_git(root, "rev-parse", "HEAD"),
            dirty=bool(_git(root, "status", "--porcelain", "--untracked-files=no")), nproc=nproc,
            python=platform.python_version(),
        )
        path = os.path.join(REPO, f"BENCH_{label}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"bench: wrote {path}", file=sys.stderr)
    return status


class _Side(argparse.Action):
    """``--label L`` opens a side measuring this checkout; a ``--root DIR`` after it measures DIR instead."""

    def __call__(self, parser, namespace, value, option_string=None):
        sides = list(namespace.sides)
        if option_string == "--label":
            sides.append((value, REPO))
        elif not sides or sides[-1][1] != REPO:
            parser.error("each --root follows its own --label")
        else:
            sides[-1] = (sides[-1][0], os.path.abspath(value))
        namespace.sides = sides


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", dest="sides", action=_Side, default=[], help="label of a BENCH file to write")
    p.add_argument("--root", dest="sides", action=_Side, help="checkout measured for the --label before it")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", default=None, help="default: every workload of BENCHMARK.json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two BENCH files")
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            a, b = json.load(fa), json.load(fb)
        mismatch = setup_mismatch(a, b)
        if mismatch:
            print("bench: the two files were not measured alike; " + "; ".join(mismatch), file=sys.stderr)
            return 2
        lines, regressed = compare(a, b, load_spec())
        try:
            print("\n".join(lines))
            sys.stdout.flush()  # a reader that left early shows here, not in the interpreter's exit flush
        except BrokenPipeError:
            # the reader closed the output early (`| head`): drop what is left, so the exit flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 1 if regressed else 0
    if not 1 <= len(args.sides) <= 2:
        p.error("give one or two --label, or --compare")
    workloads = args.workloads or [w["name"] for w in load_spec()["workloads"]]
    try:
        return measure(args.sides, workloads, args.seeds)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:  # a run that printed no result: nothing is written
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
