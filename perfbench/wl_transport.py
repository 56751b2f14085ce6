"""transport: exact transport distances and the optimal-plan probe on prebuilt tables.

A round has three kinds of operation, all through ``transport_distance``
(cap 1000) or ``question_probe``:

* many cheap problems, kappa* from the identity to seed-sampled elements of
  small balls at sphere radius 1, which set the median latency;
* a fixed set of enumeration-heavy problems that finish today, which set
  the 90th percentile;
* a fixed set of inputs on which the row-minimum search of
  ``transport.enumerate_optimal`` finds no optimum within 10 s although the
  assignment itself is solved in under 1 ms; each runs under a time limit
  and counts as failed.

The tables are built in set-up, so BFS is not timed here.
"""

from __future__ import annotations


import checks
from common import Workload, counting_oracle, counting_table, interleave
from curvlab import ball, bfs_metric, kappa, sphere
from curvlab.literals import get_group, parse_element
from curvlab.transport import MeasureSpec, enumerate_optimal, question_probe, solve_assignment, transport_distance

CAP = 1000
LIMIT_S = 0.3  # per-operation time limit for the inputs that never finish today

# Table horizons: enough for every cost entry |u^-1 x^-1 y v| of the problems below.
HORIZONS = {"Z2": 12, "Z3": 8, "F2": 7, "S3": 3, "L2": 9, "W3": 6, "H2": 8, "Heis": 14}
SAMPLES_PER_GROUP = 16  # cheap problems per group and round
SAMPLE_BALL = 3  # cheap problems go from the identity to elements of B_3
PROBE_GROUPS = ("Z2", "F2", "L2", "H2")  # question_probe at radius 1 on 3 sampled elements each

# (group, x, mode, radius): from x to the identity, each 0.05 to 2 s today.
# With the cheap problems above, the seven slowest and about half of the
# plateau make the slowest tenth of a round's completed operations, so the
# 90th percentile falls inside the plateau, whose problems all take about
# the same time (0.10 to 0.16 s).
HEAVY = (
    ("Heis", "(4,1,2)", "ball", 2),
    ("W3", "w: s1 t", "sphere", 2),
    ("L2", "d(4)*t^1", "sphere", 3),
    ("Z2", "(1,1)", "sphere", 8),
    ("Z2", "(1,2)", "sphere", 6),
    ("L2", "d(2)", "sphere", 3),
    ("F2", "a b^-1", "sphere", 2),
    # below the plateau
    ("Z2", "(2,3)", "ball", 6),  # n = 85
    ("Z2", "(2,3)", "ball", 5),
    ("Z2", "(1,3)", "sphere", 5),
    ("H2", "g(1)", "ball", 2),
)
PLATEAU = tuple(("L2", f"d({m})", "sphere", 3) for m in range(3, 19))

# (group, x, mode, radius): no optimum within 10 to 15 s today
TIME_LIMITED = (
    ("L2", "d(3)", "ball", 3),  # n = 22
    ("F2", "a", "sphere", 3),  # n = 36
    ("Z3", "(1,1,0)", "ball", 2),  # n = 25
    ("Heis", "(3,1,1)", "sphere", 2),  # n = 12
)


INDEPENDENT_LENGTH = {"Z2": checks.l1_length, "Z3": checks.l1_length, "F2": lambda w: len(checks.free_reduce(w))}


class Transport(Workload):
    name = "transport"
    min_completed = 100

    def setup(self) -> None:
        self.oracles = {gid: get_group(gid) for gid in HORIZONS}
        self.tables = {gid: bfs_metric(self.oracles[gid], h) for gid, h in HORIZONS.items()}
        self.cheap = []
        for gid in HORIZONS:
            pool = [g for g in ball(self.tables[gid], SAMPLE_BALL) if g != self.oracles[gid].identity]
            picks = sorted(self.rng.sample(range(len(pool)), min(SAMPLES_PER_GROUP, len(pool))))
            self.cheap.extend((gid, pool[i]) for i in picks)
        self.probes = []
        for gid in PROBE_GROUPS:
            pool = [g for g in ball(self.tables[gid], 2) if g != self.oracles[gid].identity]
            self.probes.append((gid, [pool[i] for i in sorted(self.rng.sample(range(len(pool)), 3))]))
        def parse(problems):
            return [(gid, parse_element(gid, x), mode, r) for gid, x, mode, r in problems]

        # Plateau problems spread between the others, so that they sample the whole round.
        self.heavy = interleave(parse(PLATEAU), parse(HEAVY))
        self.limited = parse(TIME_LIMITED)
        o = self.oracles["Z2"]
        transport_distance(o, self.tables["Z2"], MeasureSpec(o.identity, (1, 0)))  # warm-up call

    def _transport(self, rec, chk, counts, gid, x, y, mode, r, *, limit=None, known_fault=False):
        oracle, table = self.oracles[gid], self.tables[gid]
        if counts is not None:
            oracle, table = counting_oracle(oracle, counts), counting_table(table, counts)
        spec = MeasureSpec(x, y, mode, r)
        label = f"{gid} {x!r}->{y!r} {mode} r={r}"

        # The time-limited inputs return no matrix to time apart, so their spans are kept out of the split.
        name = "transport.transport_distance" + (".time_limited" if known_fault else "")

        def run():
            with rec.tracer.span(name):
                return transport_distance(oracle, table, spec, cap=CAP)

        res = rec.op(label, run, limit=limit, known_fault=known_fault)
        if res is None:
            return None

        def check():
            f = checks.check_transport(res, CAP)
            if gid in INDEPENDENT_LENGTH:
                f += checks.check_cost_matrix(res, INDEPENDENT_LENGTH[gid], self.oracles[gid])
            return f

        chk.extend(self.checked_once(label, hash((res.cost, res.permutations, res.t1)), check))
        self.add("rows", len(res.translators))
        self.add("optima", len(res.permutations))
        if rec.traced:
            # Traced rounds time the assignment and the enumeration apart on the returned matrix.
            cost = [list(row) for row in res.cost]
            with rec.tracer.span("transport.solve_assignment"):
                optimum = solve_assignment(cost)
            with rec.tracer.span("transport.enumerate_optimal"):
                enumerate_optimal(cost, optimum, CAP)
        return res

    def round(self, rec, chk, counts=None) -> None:
        light = [lambda gid=gid, g=g: self._cheap(rec, chk, counts, gid, g) for gid, g in self.cheap]
        light += [lambda gid=gid, els=els: self._probe(rec, chk, counts, gid, els) for gid, els in self.probes]
        heavy = [
            lambda gid=gid, x=x, mode=mode, r=r: self._transport(
                rec, chk, counts, gid, x, self.oracles[gid].identity, mode, r)
            for gid, x, mode, r in self.heavy
        ]
        heavy += [
            lambda gid=gid, x=x, mode=mode, r=r: self._transport(
                rec, chk, counts, gid, x, self.oracles[gid].identity, mode, r, limit=LIMIT_S, known_fault=True)
            for gid, x, mode, r in self.limited
        ]
        for op in interleave(light, heavy):
            op()

    def _cheap(self, rec, chk, counts, gid, g) -> None:
        o = self.oracles[gid]
        res = self._transport(rec, chk, counts, gid, o.identity, g, "sphere", 1)
        if res is not None:
            chk.extend(self.checked_once(f"{gid} {g!r} kappa_1", None, lambda: self._check_kappa1(gid, g, res)))

    def _check_kappa1(self, gid, g, res) -> list[str]:
        """Transport curvature dominates comparison curvature: kappa* >= kappa_1."""
        k1 = kappa(self.oracles[gid], self.tables[gid], g, 1, "sphere").kappa
        return [] if res.kappa_star >= k1 else [f"kappa* {res.kappa_star} < kappa_1 {k1}"]

    def _probe(self, rec, chk, counts, gid, elements) -> None:
        oracle, table = self.oracles[gid], self.tables[gid]
        if counts is not None:
            oracle, table = counting_oracle(oracle, counts), counting_table(table, counts)

        def run():
            with rec.tracer.span("transport.question_probe"):
                return question_probe(oracle, table, 1, elements, cap=CAP)

        report = rec.op(f"probe {gid}", run)
        if report is None:
            return
        label = f"probe {gid} {elements!r}"
        chk.extend(self.checked_once(label, hash(report.rows), lambda: self._check_probe(gid, report)))

    def _check_probe(self, gid, report) -> list[str]:
        oracle, table = self.oracles[gid], self.tables[gid]
        ws = [w for r in range(2) for w in sphere(table, r)]
        bounds = [(0, 1), (1, len(ws))]
        f = []
        for row in report.rows:
            cost = []
            for u in ws:
                left = oracle.compose(oracle.invert(u), row.element)
                cost.append([table.dist[oracle.compose(left, v)] for v in ws])
            f += checks.check_probe_row(row, cost, bounds, CAP)
        return f

    def per_layer(self, totals: dict, rounds: int, counts) -> dict[str, float]:
        td = totals.get("transport.transport_distance", 0.0)
        solve = totals.get("transport.solve_assignment", 0.0)
        enum = totals.get("transport.enumerate_optimal", 0.0)
        return {
            "transport.enumerate_optimal.s": enum / rounds,
            "transport.solve_assignment.s": solve / rounds,
            "transport.cost_matrix.s": (td - solve - enum) / rounds,
            "transport.question_probe.s": totals.get("transport.question_probe", 0.0) / rounds,
            "transport.optima": self.work.get("optima", 0.0) / rounds,
            "transport.rows": self.work.get("rows", 0.0) / rounds,
        }
