"""Write and compare BENCH_<label>.json files: the end-to-end metrics of every benchmark workload.

Usage, from anywhere:

    python3 tools/bench.py --label L [--root DIR] [--label L2 --root DIR2] [--seeds 1 2 3]
    python3 tools/bench.py --compare BENCH_A.json BENCH_B.json
    python3 tools/bench.py --ab ROOT_A ROOT_B --workload W [--pairs N] [--seed S] [--label L]

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

The second form prints each metric's change from A to B and exits 1 when
some change is a regression, or, silently, when its reader closes the output
early (``| head -1``).  A change is a regression when its median is worse
than its bound in ``BENCHMARK.json`` and every seed of B, read from the
file's ``runs``, is worse than every seed of A.  A change beyond the bound
whose seeds overlap is marked ``unresolved: runs overlap`` and does not set
the exit code: one slow seed of three moves a median (``tables`` ``setup_s``
read +28.9 % on seeds 0.083, 0.083, 0.113 s against 0.107, 0.114, 0.079 s,
on code that did not touch set-up).  It exits 2, comparing nothing, when the
two files differ in their seeds, seconds, processor count or Python
version, since their runs were not measured alike.  A metric whose
quartiles lie further apart than its bound on either side is marked noise,
unresolved: its runs spread too widely for the bound to judge either way
(the ``transport`` workload's ``setup_s`` is the known case); more seeds
narrow it.

The third form settles a speed claim on one workload within seconds of host
drift.  Each checkout runs in its own long-lived ``python -B`` process, with
no ``__pycache__`` under its ``src/``: the process builds the workload with
its checkout's ``perfbench/worker.load_workload(W)(S, workdir)``, runs
``setup()`` once, then one ``round(Recorder(), chk, None)`` per request, as
perfbench's worker does.  Pair k asks both sides for a round, A first when k
is even and B first when it is odd.  The tool prints the median over the
pairs of the B/A round wall with its quartiles, the number of pairs B was
faster in, and the two-sided sign-test p-value of that count, and writes the
same numbers with every round wall to ``BENCH_L.json`` (default
``BENCH_ab_W.json``).  It refuses to write, and exits 1, when a round reports
an output-check failure or an unexpected failure.  An A/A run of one
checkout against itself shows the spread of a ratio that means no change.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

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


def _seeds(record: dict, workload: str, name: str) -> list[float]:
    """The value of metric ``name`` in each run of ``workload``, one per seed."""
    return [line["metrics"][name]["value"] for line in record["runs"][workload]]


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
                seeds_a, seeds_b = _seeds(a, workload, name), _seeds(b, workload, name)
                apart = min(seeds_b) > max(seeds_a) if metric["better"] == "lower" else max(seeds_b) < min(seeds_a)
                if apart:
                    flag, regressed = f"REGRESSION beyond {metric['bound']:.0%}", True
                else:
                    flag = "unresolved: runs overlap"
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


def _head(root: str) -> tuple[str, bool]:
    """The checkout's ``git rev-parse HEAD``, and whether its tracked files have uncommitted edits."""
    return _git(root, "rev-parse", "HEAD"), bool(_git(root, "status", "--porcelain", "--untracked-files=no"))


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _bytecode_free_env(root: str) -> dict:
    """Remove each ``__pycache__`` under the checkout's ``src/``; the environment that keeps it so."""
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def _write(label: str, record: dict) -> None:
    path = os.path.join(REPO, f"BENCH_{label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench: wrote {path}", file=sys.stderr)


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    env = _bytecode_free_env(root)
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
    status = 0
    for label, root in sides:
        bad = bad_runs(runs[label])
        if bad:
            print(f"bench: not writing BENCH_{label}.json; " + "; ".join(bad), file=sys.stderr)
            status = 1
            continue
        head, dirty = _head(root)
        _write(label, bench_record(label, runs[label], seeds=seeds, seconds=seconds, head=head, dirty=dirty,
                                   nproc=_nproc(), python=platform.python_version()))
    return status


# One side of an A/B: the workload of the checkout in argv[1], set up once, then one round per line of input.
_AB_SIDE = r"""
import gc, json, os, shutil, sys, tempfile
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, os.path.join(root, "perfbench"))
import worker  # puts the checkout's src/ first on sys.path
from common import Recorder
reply = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)  # what the workload prints goes to standard error, not among the replies
workdir = tempfile.mkdtemp(prefix="bench-ab-")
try:
    wl = worker.load_workload(name)(seed, os.path.join(workdir, "work"))
    wl.setup()
    print("ready", file=reply, flush=True)
    for _ in sys.stdin:
        gc.collect()  # every round starts from the same heap state
        rec, chk = Recorder(), []
        wl.round(rec, chk, None)
        print(json.dumps({"wall": rec.wall, "problems": rec.unexpected + chk}), file=reply, flush=True)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
"""


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``, under even odds; ties are left out."""
    m = wins + losses
    tail = sum(math.comb(m, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**m)


def ab_summary(walls_a: list[float], walls_b: list[float]) -> dict:
    """The B/A ratio of each pair of round walls, their median and quartiles, B's wins and the sign test."""
    ratios = [b / a for a, b in zip(walls_a, walls_b)]
    wins, losses = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    return {"ratio": summarize(ratios), "b_faster": wins, "pairs": len(ratios),
            "sign_test_p": sign_test(wins, losses), "ratios": ratios}


def ab_rounds(ask_a, ask_b, pairs: int) -> tuple[list[float], list[float], list[str]]:
    """The round walls of ``pairs`` pairs, A first in even pairs, and the problems the first bad round reported.

    ``ask_a`` and ``ask_b`` each run one round of their side and return its
    reply, ``{"wall": s, "problems": [...]}``.  A reply with problems ends
    the run, since its walls time a round that went wrong.
    """
    asks, walls = (ask_a, ask_b), ([], [])
    for k in range(pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            reply = asks[side]()
            if reply["problems"]:
                return *walls, reply["problems"]
            walls[side].append(reply["wall"])
    return *walls, []


def _open_side(root: str, workload: str, seed: int) -> subprocess.Popen:
    cmd = [sys.executable, "-B", "-c", _AB_SIDE, root, workload, str(seed)]
    return subprocess.Popen(cmd, cwd=root, env=_bytecode_free_env(root), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def _asker(proc: subprocess.Popen, root: str):
    def ask() -> dict:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{root}: the side ended without finishing its round")
        return json.loads(line)

    return ask


def ab(root_a: str, root_b: str, workload: str, pairs: int, seed: int, label: str) -> int:
    sides = []
    try:
        for root in (root_a, root_b):
            sides.append(_open_side(root, workload, seed))
        for proc, root in zip(sides, (root_a, root_b)):  # the two set-ups run side by side
            if proc.stdout.readline() != "ready\n":
                raise RuntimeError(f"{root}: the {workload} workload did not set up")
        walls_a, walls_b, problems = ab_rounds(_asker(sides[0], root_a), _asker(sides[1], root_b), pairs)
    finally:
        for proc in sides:  # end of input: each side removes its work directory and exits
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.wait()
            proc.stdout.close()
    if problems:
        print(f"bench: not writing BENCH_{label}.json; a round reported: " + "; ".join(problems), file=sys.stderr)
        return 1
    summary = ab_summary(walls_a, walls_b)
    ratio = summary["ratio"]
    print(f"{workload}: B/A round wall {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}] over "
          f"{pairs} pairs, B faster in {summary['b_faster']}, sign test p = {summary['sign_test_p']:.2g}")
    record = {"label": label, "workload": workload, "seed": seed, "python": platform.python_version(),
              "nproc": _nproc(), **summary}
    for side, root, walls in (("a", root_a, walls_a), ("b", root_b, walls_b)):
        head, dirty = _head(root)
        record[side] = {"root": root, "git_head": head, "git_dirty": dirty, "rounds": walls}
    _write(label, record)
    return 0


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
    p.add_argument("--ab", nargs=2, metavar=("ROOT_A", "ROOT_B"), help="round-interleaved A/B of two checkouts")
    p.add_argument("--workload", help="the workload of --ab")
    p.add_argument("--pairs", type=int, default=40, help="pairs of rounds of --ab (default 40)")
    p.add_argument("--seed", type=int, default=1, help="workload seed of --ab (default 1)")
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
    if args.ab:
        if not args.workload or args.pairs < 1 or len(args.sides) > 1:
            p.error("--ab needs --workload, at least one pair and at most one --label")
        label = args.sides[0][0] if args.sides else f"ab_{args.workload}"
        try:
            return ab(*map(os.path.abspath, args.ab), args.workload, args.pairs, args.seed, label)
        except (OSError, RuntimeError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
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
