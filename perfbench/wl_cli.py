"""cli: curvlab subprocess calls, one at a time, against a cache directory warmed in set-up.

What a user waits for per call is interpreter start, ``import curvlab`` and
cache loads; this is the only workload that measures the import and CLI
layer.  ``verify`` is left out because its content changes with the
acceptance criteria.

Two calls give malformed input and must end with exit code 1 and a
one-line message.  Today both print a traceback, so they count as failed.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import checks
from common import OpFailed, Workload, peak_rss_mib
from curvlab import cached_bfs_metric, l2_oracle, ll_make_dm
from curvlab.literals import get_group

CALL_TIMEOUT_S = 60
PROBES = 5  # bare-interpreter and import-only starts per traced round


def _rational(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


class Call(SimpleNamespace):
    """One curvlab invocation: argv, the tables it reads, and how to check its output."""


class Cli(Workload):
    name = "cli"
    counts_work = False  # the work of a call happens in its own process

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.cache = os.path.join(workdir, "cache")
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.src = os.path.join(self.root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.env.pop("CURVLAB_CACHE", None)
        self._spheres: dict[int, list] = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        import jsonschema

        with open(os.path.join(self.src, "curvlab", "schema", "report.schema.json")) as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.calls = self._calls()
        os.makedirs(self.cache, exist_ok=True)
        for gid, h in sorted({w for call in self.calls for w in call.warm}):
            cached_bfs_metric(get_group(gid), h, self.cache)
        self.warmed = set(os.listdir(self.cache))
        self._run(["length", "--group", "Z2", "--element", "(1,1)"])  # warm-up call

    def _calls(self) -> list[Call]:
        rng = self.rng
        c = ["--cache", self.cache]
        z2 = (rng.randint(-9, 9), rng.randint(1, 9))
        letters = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(4, 9))]
        word = " ".join({1: "a", -1: "a^-1", 2: "b", -2: "b^-1"}[x] for x in letters)
        z3 = (rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-3, 3))
        m = rng.randint(3, 6)
        k = rng.randint(1, m - 2)
        r = rng.randint(1, m - k - 1)
        zy = (rng.randint(-2, 2), rng.randint(1, 2))
        s = str(self.seed)
        J, CSV, LINES = "json", "csv", "lines"
        return [
            Call(sub="length", argv=["--group", "L2", "--element", "d(3)", *c], out=J, warm=[("L2", 0)],
                 check=lambda d: self._eq(d["length"], 19, "|d(3)|")),
            Call(sub="length", argv=["--group", "Z2", "--element", "(2,-3)", "--format", "csv", *c], out=CSV,
                 warm=[("Z2", 0)], check=lambda rows: self._eq(rows, [["element", "length"], ["(2,-3)", "5"]], "csv")),
            Call(sub="length", argv=["--group", "Z2", "--element", f"({z2[0]},{z2[1]})", *c], out=J, warm=[("Z2", 0)],
                 check=lambda d: self._eq(d["length"], checks.l1_length(z2), f"|{z2}|")),
            Call(sub="length", argv=["--group", "F2", "--element", word, "--format", "csv", *c], out=CSV,
                 warm=[("F2", 0)],
                 check=lambda rows: self._eq(int(rows[1][1]), len(checks.free_reduce(letters)), f"|{word}|")),
            Call(sub="length", argv=["--group", "H2", "--element", "g(2)", "--horizon", "12", *c], out=J,
                 warm=[("H2", 12)], check=lambda d: self._eq(d["length"], 12, "|g(2)|")),
            Call(sub="length", argv=["--group", "Heis", "--element", "(5,2,3)", *c], out=J, warm=[("Heis", 0)],
                 check=lambda d: self._eq(d["length"], 2 * 1 + 5 + 2, "|(5,2,3)|")),
            Call(sub="curvature", argv=["--group", "L2", "--element", "d(3)*t^1", "--radius", "1", *c], out=J,
                 warm=[("L2", 3)], check=lambda d: self._curvature(d, Fraction(1, 27))),
            Call(sub="curvature", argv=["--group", "L2", "--element", "d(3)*t^1", "--radius", "1", "--format", "csv", *c],
                 out=CSV, warm=[("L2", 3)], check=lambda rows: self._curvature_csv(rows, 3, 1, "1/27")),
            Call(sub="curvature", argv=["--group", "L2", "--element", f"d({m})*t^{k}", "--radius", str(r),
                                        "--mode", "ball", *c], out=J, warm=[("L2", max(r, 3))],
                 check=lambda d: self._curvature(d, positive=True)),
            Call(sub="curvature", argv=["--group", "H2", "--element", "g(1)", "--radius", "3", "--mode", "ball",
                                        "--horizon", "12", *c], out=J, warm=[("H2", 12)],
                 check=lambda d: self._curvature(d, size=22)),
            Call(sub="curvature", argv=["--group", "Heis", "--element", "(7,2,8)", "--radius", "1", *c], out=J,
                 warm=[("Heis", 3)], check=lambda d: self._curvature(d, size=4)),
            Call(sub="curvature", argv=["--group", "Z3", "--element", f"({z3[0]},{z3[1]},{z3[2]})", "--radius", "3", *c],
                 out=J, warm=[("Z3", 3)], check=lambda d: self._curvature(d, Fraction(0), size=38)),
            Call(sub="curvature", argv=["--group", "F2", "--element", "a b", "--radius", "2", "--format", "csv", *c],
                 out=CSV, warm=[("F2", 3)], check=lambda rows: self._curvature_csv(rows, 12, 2)),
            Call(sub="deadend", argv=["--group", "L2", "--element", "d(2)", *c], out=J, warm=[("L2", 8)],
                 check=lambda d: self._eq((d["base_length"], d["depth"]), (13, 5), "d(2) length and depth")),
            Call(sub="deadend", argv=["--group", "L2", "--element", "d(3)", *c], out=J, warm=[("L2", 8)],
                 check=lambda d: self._eq((d["base_length"], d["depth"]), (19, 7), "d(3) length and depth")),
            Call(sub="deadend", argv=["--group", "L2", "--scan", "--horizon", "9", *c], out=LINES, warm=[("L2", 9)],
                 check=lambda ds: self._scan(ds, 9)),
            Call(sub="length", argv=["--group", "H2", "--element", "u(2,neg)", "--horizon", "12", "--format", "csv", *c],
                 out=CSV, warm=[("H2", 12)], check=lambda rows: self._eq(rows[1][1], "11", "|u(2)|")),
            Call(sub="backtracks", argv=["--group", "L2", "--element", "d(2)", *c], out=J, warm=[("L2", 12)],
                 check=lambda d: self._eq(d["count"], self._backtrack_count(2), "backtracks of d(2)")),
            Call(sub="backtracks", argv=["--group", "L2", "--element", "d(2)", "--format", "csv", *c], out=CSV,
                 warm=[("L2", 12)], check=lambda rows: self._eq(len(rows) - 1, self._backtrack_count(2), "csv rows")),
            Call(sub="density", argv=["--k", "30", "--radius", "1"], out=J, warm=[],
                 check=lambda d: self._eq((d["element_count"], d["prediction_mismatches"]),
                                          (checks.sector_count(30, 1), 0), "density k=30 r=1")),
            Call(sub="density", argv=["--k", "24", "--radius", "2", "--format", "csv"], out=CSV, warm=[],
                 check=lambda rows: self._eq(len(rows) - 1, checks.sector_count(24, 2), "density csv rows")),
            Call(sub="transport", argv=["--group", "S3", "--x", "s", "--y", "w:", *c], out=J, warm=[("S3", 4)],
                 check=lambda d: self._transport(d, Fraction(1), Fraction(0))),
            Call(sub="transport", argv=["--group", "Z2", "--x", "(0,0)", "--y", f"({zy[0]},{zy[1]})", *c], out=J,
                 warm=[("Z2", 4)], check=lambda d: self._transport(d)),
            Call(sub="transport", argv=["--group", "L2", "--x", "L2{;p=0}", "--y", "d(1)", "--mode", "ball", *c],
                 out=J, warm=[("L2", 4)], check=lambda d: self._transport(d)),
            Call(sub="probe", argv=["--group", "Z2", "--ball", "2", "--sample", "4", "--seed", s, *c], out=J,
                 warm=[("Z2", 4)], check=lambda d: self._eq(len(d["rows"]), 4, "probe rows")),
            Call(sub="probe", argv=["--group", "F2", "--ball", "2", "--sample", "3", "--seed", s, *c], out=J,
                 warm=[("F2", 4)], check=lambda d: self._eq(len(d["rows"]), 3, "probe rows")),
            # Malformed input: exit 1 with a one-line message.
            Call(sub="curvature", argv=["--group", "L2", "--element", "d(2)", "--radius", "0", *c], out=None,
                 warm=[("L2", 3)], check=None),
            Call(sub="curvature", argv=["--group", "S3", "--element", "s t s", "--radius", "5", *c], out=None,
                 warm=[("S3", 5)], check=None),
        ]

    # -- checks ---------------------------------------------------------------

    @staticmethod
    def _eq(got, want, what) -> list[str]:
        return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]

    @staticmethod
    def _curvature(d, kappa=None, *, positive=False, size=None) -> list[str]:
        f = []
        lengths = [b["conjugate_length"] for b in d["breakdown"]]
        comparison = _rational(d["comparison_distance"])
        if comparison != Fraction(sum(lengths), len(lengths)):
            f.append("comparison distance is not the mean of the breakdown")
        k = _rational(d["kappa"])
        if k != (d["base_length"] - comparison) / d["base_length"]:
            f.append("kappa != (|g| - comparison)/|g|")
        if kappa is not None and k != kappa:
            f.append(f"kappa {k} != {kappa}")
        if positive and not k > 0:
            f.append(f"kappa {k} of a backtrack element below radius m - k is not positive")
        if size is not None and len(lengths) != size:
            f.append(f"{len(lengths)} conjugators, expected {size}")
        return f

    @staticmethod
    def _curvature_csv(rows, size, r, kappa=None) -> list[str]:
        header = ["element", "radius", "mode", "base_length", "conjugator", "conjugate_length", "kappa"]
        if rows[0] != header:
            return [f"csv header {rows[0]}"]
        body = rows[1:]
        f = [] if len(body) == size else [f"{len(body)} csv rows, expected {size}"]
        base = int(body[0][3])
        lengths = [int(row[5]) for row in body]
        # free groups and the lamplighter have bipartite Cayley graphs
        if any((n - base) % 2 or abs(n - base) > 2 * r for n in lengths):
            f.append("a conjugate length breaks parity or lies beyond 2r of |g|")
        k = _rational(body[0][6])
        if k != (base - Fraction(sum(lengths), len(lengths))) / base:
            f.append("kappa column disagrees with the conjugate lengths")
        if kappa is not None and body[0][6] != kappa:
            f.append(f"kappa {body[0][6]} != {kappa}")
        return f

    def _transport(self, d, t1=None, kappa_star=None) -> list[str]:
        n = len(d["cost"])
        result = SimpleNamespace(
            cost=d["cost"],
            translators=range(n),
            t1=_rational(d["t1"]),
            permutations=[tuple(p) for p in d["optimal_permutations"]],
            truncated=d["truncated"],
            identity_optimal=d["identity_optimal"],
            distance=d["distance"],
            kappa_star=None if d["kappa_star"] is None else _rational(d["kappa_star"]),
        )
        f = checks.check_transport(result, 1000)
        if t1 is not None and result.t1 != t1:
            f.append(f"T1 {result.t1} != {t1}")
        if kappa_star is not None and result.kappa_star != kappa_star:
            f.append(f"kappa* {result.kappa_star} != {kappa_star}")
        return f

    def _l2_spheres(self, radius):
        if radius not in self._spheres:
            self._spheres[radius] = checks.own_spheres(l2_oracle(), radius)
        return self._spheres[radius]

    def _scan(self, ds, radius) -> list[str]:
        oracle = l2_oracle()
        spheres = self._l2_spheres(radius)
        want = sum(checks.own_is_dead_end(oracle, g) for r in range(1, radius + 1) for g in spheres[r])
        f = [] if len(ds) == want else [f"scan streamed {len(ds)} dead ends, expected {want}"]
        return f + [f"{d['element']} is not a dead end" for d in ds if not d["is_dead_end"]]

    def _backtrack_count(self, m: int) -> int:
        """|{d_m w : 1 <= |w| <= 2m, |d_m w| <= |d_m|}|; depth(d_m) = 2m + 1."""
        oracle = l2_oracle()
        g = ll_make_dm(m)
        spheres = self._l2_spheres(12)
        base = checks.l2_len(g)
        return len({oracle.compose(g, w) for r in range(1, 2 * m + 1) for w in spheres[r]
                    if checks.l2_len(oracle.compose(g, w)) <= base})

    # -- running ----------------------------------------------------------------

    def _run(self, argv, module=True):
        cmd = [sys.executable, "-m", "curvlab.cli", *argv] if module else [sys.executable, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        return proc, time.perf_counter() - t0

    def _call(self, call: Call):
        """Run one call; raise OpFailed unless it ended as the program promises."""
        proc, elapsed = self._run([call.sub, *call.argv])
        self.work.setdefault(call.sub, []).append(elapsed)  # latencies per subcommand
        if call.out is None:
            lines = proc.stderr.strip().splitlines()
            if proc.returncode != 1 or len(lines) != 1:
                raise OpFailed(f"exit {proc.returncode} with {len(lines)} lines on stderr: {lines[-1] if lines else ''}")
            return None
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def _parse_and_check(self, call: Call, stdout: str) -> list[str]:
        if call.out == "csv":
            return call.check(list(csv.reader(stdout.splitlines())))
        docs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        f = [f"schema: {err.message}" for doc in docs for err in self.validator.iter_errors(doc)]
        if call.out == "json":
            if len(docs) != 1:
                return f + [f"{len(docs)} JSON documents, expected 1"]
            return f + call.check(docs[0])
        return f + call.check(docs)

    def round(self, rec, chk, counts=None) -> None:
        for call in self.calls:
            label = " ".join([call.sub, *call.argv])
            out = rec.op(label, lambda call=call: self._call_traced(rec, call), known_fault=call.out is None)
            if out is not None:
                chk.extend(self.checked_once(label, hash(out), lambda call=call, out=out: self._parse_and_check(call, out)))
        built = set(os.listdir(self.cache)) - self.warmed
        if built:
            chk.append(f"calls built tables that set-up did not warm: {sorted(built)}")

    def _call_traced(self, rec, call):
        with rec.tracer.span(f"cli.{call.sub}"):
            return self._call(call)

    def peak_rss_mib(self) -> float:
        """The largest peak among the curvlab children."""
        return peak_rss_mib(resource.RUSAGE_CHILDREN)

    def per_layer(self, totals: dict, rounds: int, counts) -> dict[str, float]:
        bare = statistics.median(self._run(["-c", "pass"], module=False)[1] for _ in range(PROBES))
        imported = statistics.median(self._run(["-c", "import curvlab"], module=False)[1] for _ in range(PROBES))
        m = {"cli.interpreter.s": bare, "cli.import.s": imported - bare}
        for sub, times in self.work.items():
            m[f"cli.{sub}.s"] = statistics.median(times)
        return m
