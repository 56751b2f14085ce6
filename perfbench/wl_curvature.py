"""curvature: kappa at radii 1 to 12, the dead-end routines and the Heisenberg density sweep.

Conjugate lengths come from the closed form on L2 (the length table passed
to ``kappa`` is the trivial ball) and from BFS tables on H2, the Heisenberg
sector and Z^n.  There is no transport here, and BFS happens only in set-up.
"""

from __future__ import annotations

import json

import checks
from common import Workload, counting_oracle, counting_table, interleave
from curvlab import bfs_metric, h2_g, h2_oracle, h2_u, heis_density_experiment, heis_length, heis_oracle, kappa
from curvlab import l2_oracle, ll_make_dm, make_zn
from curvlab import deadend
from curvlab.lamplighter import ll_dm_tk

L2_RADII = range(1, 13)  # with both modes, one seeded d_m t^k per radius
H2_FIXED = (("g(1)", h2_g(1), range(1, 6)), ("u(2)", h2_u(2), (1,)), ("g(2)", h2_g(2), (1,)))
HEIS_HORIZON = 16
ZN_RADII = (4, 12)
SCAN_RADIUS = 12
DEADEND_M = range(1, 7)
BACKTRACK_M = range(1, 6)
# 0.1 to 0.5 s each: the slowest tenth of a round's operations, where the
# 90th percentile falls.
DENSITY = tuple((k, r) for r in (1, 2) for k in (40, 44, 48, 52, 56))
MODES = ("sphere", "ball")


class Curvature(Workload):
    name = "curvature"
    min_completed = 100

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self._spheres: dict = {}

    def setup(self) -> None:
        rng = self.rng
        self.l2 = l2_oracle()
        self.h2 = h2_oracle()
        self.heis = heis_oracle()
        self.zn = {n: make_zn(n) for n in (2, 3)}
        self.tables = {
            "L2": bfs_metric(self.l2, 12),
            "L2-lengths": bfs_metric(self.l2, 0),  # every L2 length falls through to the closed form
            "H2": bfs_metric(self.h2, 13),
            "Heis": bfs_metric(self.heis, HEIS_HORIZON),
            2: bfs_metric(self.zn[2], 12),
            3: bfs_metric(self.zn[3], 12),
        }
        self.l2_jobs = []
        for r in L2_RADII:
            for mode in MODES:
                m = rng.randint(2, 6)
                self.l2_jobs.append((m, rng.randint(1, m - 1), r, mode))
        h2_pool = list(self.tables["H2"].layers[3] + self.tables["H2"].layers[4])
        self.h2_jobs = [(name, g, r, mode) for name, g, rs in H2_FIXED for r in rs for mode in MODES]
        self.h2_jobs += [(repr(g), g, 4, MODES[i % 2]) for i, g in enumerate(rng.sample(h2_pool, 2))]
        self.heis_jobs = []
        for r in (1, 2, 3):
            pool = [g for g in self.tables["Heis"].dist if g.a > g.b > 0 and g.c >= 0 and heis_length(g) <= HEIS_HORIZON - 2 * r]
            pool.sort()
            self.heis_jobs += [(g, r, mode) for g, mode in zip(rng.sample(pool, 2), MODES)]
        self.zn_jobs = []
        for n in (2, 3):
            pool = sorted(g for g in self.tables[n].dist if 0 < checks.l1_length(g) <= 5)
            self.zn_jobs += [(n, rng.choice(pool), r, mode) for r, mode in zip(ZN_RADII, MODES)]
        kappa(self.l2, self.tables["L2"], ll_dm_tk(3, 1), 1)  # warm-up call

    def spheres(self, key, oracle, horizon) -> list:
        if key not in self._spheres:
            self._spheres[key] = checks.own_spheres(oracle, horizon)
        return self._spheres[key]

    def _kappa(self, rec, chk, counts, label, oracle, table, g, r, mode, length_table=None, check=None):
        if counts is not None:
            oracle = counting_oracle(oracle, counts)
            table = counting_table(table, counts)
            length_table = None if length_table is None else counting_table(length_table, counts)

        def run():
            with rec.tracer.span("curvature.kappa"):
                return kappa(oracle, table, g, r, mode, length_table)

        rep = rec.op(f"kappa {label} r={r} {mode}", run)
        if rep is None:
            return
        self.add("conjugates", len(rep.breakdown))
        chk.extend(self.checked_once(f"kappa {label} r={r} {mode}", hash((rep.kappa, rep.breakdown)), lambda: check(rep)))

    @staticmethod
    def _conjugators(spheres, r, mode) -> set:
        if mode == "sphere":
            return set(spheres[r])
        return set().union(*spheres[: r + 1])

    def round(self, rec, chk, counts=None) -> None:
        light = self._kappa_ops(rec, chk, counts) + self._deadend_ops(rec, chk, counts)
        for op in interleave(light, self._density_ops(rec, chk)):
            op()

    def _kappa_ops(self, rec, chk, counts) -> list:
        ops = []
        l2s = self.spheres("L2", self.l2, 12)
        for m, k, r, mode in self.l2_jobs:
            g = ll_dm_tk(m, k)

            def check(rep, m=m, k=k, r=r, mode=mode, g=g):
                f = checks.check_kappa(rep, g, r, self._conjugators(l2s, r, mode), checks.l2_len, self.l2)
                f += checks.check_bipartite_conjugates(rep, r)
                if r < m - k and not rep.kappa > 0:
                    f.append(f"kappa_{r} of d_{m} t^{k} is {rep.kappa}, not positive")
                return f

            ops.append(lambda m=m, k=k, g=g, r=r, mode=mode, check=check: self._kappa(
                rec, chk, counts, f"L2 d({m})*t^{k}", self.l2, self.tables["L2"], g, r, mode,
                self.tables["L2-lengths"], check))
        h2s = self.spheres("H2", self.h2, 5)
        for name, g, r, mode in self.h2_jobs:
            ops.append(lambda name=name, g=g, r=r, mode=mode: self._kappa(
                rec, chk, counts, f"H2 {name}", self.h2, self.tables["H2"], g, r, mode,
                check=lambda rep: checks.check_kappa(rep, g, r, self._conjugators(h2s, r, mode))))
        hs = self.spheres("Heis", self.heis, 3)
        for g, r, mode in self.heis_jobs:
            ops.append(lambda g=g, r=r, mode=mode: self._kappa(
                rec, chk, counts, f"Heis {tuple(g)}", self.heis, self.tables["Heis"], g, r, mode,
                check=lambda rep: checks.check_kappa(rep, g, r, self._conjugators(hs, r, mode))))
        for n, g, r, mode in self.zn_jobs:
            zs = self.spheres(n, self.zn[n], 12)

            def check(rep, g=g, r=r, mode=mode, zs=zs, n=n):
                f = checks.check_kappa(rep, g, r, self._conjugators(zs, r, mode), checks.l1_length, self.zn[n])
                return f + ([] if rep.kappa == 0 else [f"kappa = {rep.kappa} on abelian Z{n}"])

            ops.append(lambda n=n, g=g, r=r, mode=mode, check=check: self._kappa(
                rec, chk, counts, f"Z{n} {g}", self.zn[n], self.tables[n], g, r, mode, check=check))
        return ops

    def _deadend_ops(self, rec, chk, counts) -> list:
        oracle, table = self.l2, self.tables["L2"]
        if counts is not None:
            oracle, table = counting_oracle(oracle, counts), counting_table(table, counts)
        l2s = self.spheres("L2", self.l2, 12)
        span = rec.tracer.span

        def scan():
            with span("deadend.scan"):
                return list(deadend.scan(oracle, table, SCAN_RADIUS, 12))

        def report(m):
            with span("deadend.report"):
                return deadend.report(oracle, table, ll_make_dm(m), 2 * m + 3)

        def backtracks(m):
            with span("deadend.backtrack_elements"):
                return deadend.backtrack_elements(oracle, table, ll_make_dm(m), 2 * m + 3)

        def scan_op():
            found = rec.op("deadend.scan", scan)
            if found is not None:
                self.add("dead_ends", len(found))
                chk.extend(self.checked_once("scan", hash(tuple(found)),
                                              lambda: checks.check_scan(self.l2, found, l2s, SCAN_RADIUS)))

        def report_op(m):
            rep = rec.op(f"deadend.report d_{m}", lambda: report(m))
            if rep is not None:
                chk.extend(self.checked_once(f"report d_{m}", hash(rep), lambda: self._check_report(rep, m, l2s)))

        def backtracks_op(m):
            got = rec.op(f"backtracks d_{m}", lambda: backtracks(m))
            if got is not None:
                chk.extend(self.checked_once(
                    f"backtracks d_{m}", hash(frozenset(got)),
                    lambda: checks.check_backtracks(self.l2, ll_make_dm(m), got, 2 * m + 1, l2s)))

        ops = [scan_op]
        ops += [lambda m=m: report_op(m) for m in DEADEND_M]
        ops += [lambda m=m: backtracks_op(m) for m in BACKTRACK_M]
        return ops

    def _density_ops(self, rec, chk) -> list:
        def density(k, r):
            with rec.tracer.span("heisenberg.heis_density_experiment"):
                return heis_density_experiment(k, r)

        def density_op(k, r):
            rep = rec.op(f"density k={k} r={r}", lambda: density(k, r))
            if rep is not None:
                self.add("density_elements", sum(rep.sign_counts.values()))
                chk.extend(self.checked_once(f"density k={k} r={r}", json.dumps(rep.to_json_dict()),
                                              lambda: checks.check_density(rep, k, r)))

        return [lambda k=k, r=r: density_op(k, r) for k, r in DENSITY]

    def _check_report(self, rep, m, l2s) -> list[str]:
        f = checks.check_deadend_report(self.l2, rep, m, l2s)
        # Strict depth k guarantees kappa_r >= 0 for r < k.
        for r in range(1, rep.strict_depth):
            k = kappa(self.l2, self.tables["L2"], rep.element, r, "sphere", self.tables["L2-lengths"]).kappa
            if k < 0:
                f.append(f"kappa_{r}(d_{m}) = {k} < 0 below strict depth {rep.strict_depth}")
        return f

    def per_layer(self, totals: dict, rounds: int, counts) -> dict[str, float]:
        kap = totals.get("curvature.kappa", 0.0)
        conj = self.work.get("conjugates", 0.0)
        return {
            "curvature.kappa.s": kap / rounds,
            "curvature.conjugates": conj / rounds,
            "curvature.conjugates_per_s": conj / kap if kap else 0.0,
            "deadend.scan.s": totals.get("deadend.scan", 0.0) / rounds,
            "deadend.report.s": totals.get("deadend.report", 0.0) / rounds,
            "deadend.backtrack_elements.s": totals.get("deadend.backtrack_elements", 0.0) / rounds,
            "deadend.dead_ends": self.work.get("dead_ends", 0.0) / rounds,
            "heisenberg.density.s": totals.get("heisenberg.heis_density_experiment", 0.0) / rounds,
            "heisenberg.density.elements": self.work.get("density_elements", 0.0) / rounds,
        }
