"""Transport curvature: exact optimal assignment between uniform measures.

For basepoints x, y and a common support shape (the sphere or ball of radius
r), the measures are uniform on {x*w} and {y*w}.  Because both are uniform of
equal size, an optimal transport plan is a permutation, so the infimum is an
exact assignment optimum over the integer cost matrix d(x*u, y*v).  The
transport curvature is kappa* = 1 - T1/d(x, y) (Ollivier's coarse Ricci
curvature); it always dominates the comparison curvature, whose plan is the
identity permutation.

The assignment is solved by the Hungarian method in its shortest augmenting
path form (Kuhn 1955), in O(n^3) integer arithmetic.  Besides the optimum
and one optimal matching it returns integer dual potentials u, v with
c_ij - u_i - v_j >= 0 everywhere.  By complementary slackness the optimal
permutations are exactly the perfect matchings of the tight graph, the pairs
with c_ij - u_i - v_j = 0.  They are listed in lexicographic order by fixing
rows in order and trying tight columns in ascending order, while keeping one
perfect matching of the rows not yet fixed; a branch that moves a row off
its partner repairs that matching with one augmenting path, and is dropped
when no path exists (in the manner of Uno 1997).  Every branch taken
therefore leads to an optimum, and between two optima each tight pair is
tried at most once, so the delay is polynomial: O(n^4) in the worst case,
against the exponential search of a cost bound alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .core import (
    DomainError,
    Element,
    GroupOracle,
    MetricTable,
    sphere,
    rational_str,
    sphere_or_ball,
    word_length,
)

Support = Literal["sphere", "ball"]

INF = float("inf")  # slack of a column no tree row reaches yet; every real slack is an int


@dataclass(frozen=True)
class MeasureSpec:
    """Uniform measures at x and y supported on translated spheres or balls."""

    x: Element
    y: Element
    support: Support = "sphere"
    radius: int = 1


@dataclass(frozen=True)
class TransportResult:
    spec: MeasureSpec
    translators: tuple[Element, ...]  # the common w-support, in encode order
    cost: tuple[tuple[int, ...], ...]
    t1: Fraction
    permutations: tuple[tuple[int, ...], ...]  # optimal index bijections, lexicographic
    truncated: bool  # True when more optima exist than the cap lets through
    identity_optimal: bool
    distance: int  # d(x, y); 0 when x == y
    kappa_star: Optional[Fraction]  # None when x == y

    def to_json_dict(self, format_element=repr) -> dict:
        return {
            "kind": "transport",
            "x": format_element(self.spec.x),
            "y": format_element(self.spec.y),
            "support": self.spec.support,
            "radius": self.spec.radius,
            "cost": [list(row) for row in self.cost],
            "t1": rational_str(self.t1),
            "t1_float": float(self.t1),
            "optimal_permutations": [list(p) for p in self.permutations],
            "truncated": self.truncated,
            "identity_optimal": self.identity_optimal,
            "distance": self.distance,
            "kappa_star": None if self.kappa_star is None else rational_str(self.kappa_star),
            "kappa_star_float": None if self.kappa_star is None else float(self.kappa_star),
        }


def hungarian(cost) -> tuple[int, list[int], list[int], list[int]]:
    """Minimum assignment of a square integer matrix, with its dual certificate.

    Returns (optimum, match, u, v): ``match[i]`` is row i's column in one
    optimal assignment, and the integer potentials satisfy
    c_ij - u_i - v_j >= 0 for all i, j, with equality on the matching, so
    that sum(u) + sum(v) = optimum.
    """
    n = len(cost)
    # 1-based rows and columns; column 0 is a virtual start holding the row being inserted.
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: the row matched to column j, 0 when free
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [INF] * (n + 1)  # least reduced cost reaching each column from the tree
        way = [0] * (n + 1)  # the tree column preceding each column on its best path
        done = [False] * (n + 1)
        while owner[j0]:
            done[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = INF, 0
            for j in range(1, n + 1):
                if not done[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the virtual column
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[owner[j] - 1] = j - 1
    return sum(cost[i][match[i]] for i in range(n)), match, u[1:], v[1:]


def solve_assignment(cost: list[list[int]]) -> int:
    """Exact minimum assignment cost of a square integer matrix."""
    return hungarian(cost)[0]


def _reroute(tight, col, row, fixed, i: int, j: int) -> bool:
    """Give row i column j, keeping the matching perfect by moving only unfixed rows.

    Searches one augmenting path from j's owner to i's old column through
    tight, unfixed columns other than j; returns False, leaving the matching
    as it was, when there is none.
    """
    target, start = col[i], row[j]
    via = {}  # column -> the row whose tight edge reached it
    stack = [start]
    while stack and target not in via:
        r = stack.pop()
        for c in tight[r]:
            if c != j and not fixed[c] and c not in via:
                via[c] = r
                if c == target:
                    break
                stack.append(row[c])
    if target not in via:
        return False
    c = target  # walk the path back, shifting each row onto the column it reached
    while True:
        r = via[c]
        prev = col[r]
        col[r], row[c] = c, r
        if r == start:
            break
        c = prev
    col[i], row[j] = j, i
    return True


def _tight_matchings(tight, match: list[int], limit: int) -> list[tuple[int, ...]]:
    """The first ``limit`` perfect matchings of ``tight``, lexicographically.

    ``tight[i]`` lists row i's columns in ascending order and ``match`` is one
    perfect matching.  Rows are fixed in order, each to its tight columns in
    ascending order; every branch taken keeps a perfect matching of the
    whole graph that agrees with the fixed rows, so it ends in an output.
    """
    n = len(tight)
    col = list(match)
    row = [0] * n
    for i, j in enumerate(col):
        row[j] = i
    fixed = [False] * n  # columns held by rows 0..i-1
    nxt = [0] * (n + 1)  # per depth: the index into tight[i] to try next
    out: list[tuple[int, ...]] = []
    i = 0
    while i >= 0 and len(out) < limit:
        if i == n:
            out.append(tuple(col))
            i -= 1
            continue
        if nxt[i]:
            fixed[col[i]] = False  # back from the branch that fixed row i
        options = tight[i]
        while nxt[i] < len(options):
            j = options[nxt[i]]
            nxt[i] += 1
            if not fixed[j] and (j == col[i] or _reroute(tight, col, row, fixed, i, j)):
                fixed[j] = True
                i += 1
                nxt[i] = 0
                break
        else:
            nxt[i] = 0
            i -= 1
    return out


def _optimal_plans(cost, match, u, v, cap: int) -> tuple[list[tuple[int, ...]], bool]:
    if cap < 0:
        raise DomainError(f"the cap on listed optima must be at least 0, got {cap}")
    n = len(cost)
    tight = [[j for j in range(n) if cost[i][j] - u[i] == v[j]] for i in range(n)]
    plans = _tight_matchings(tight, match, cap + 1)
    return plans[:cap], len(plans) > cap


def enumerate_optimal(cost, optimum: int, cap: int = 1000) -> tuple[list[tuple[int, ...]], bool]:
    """All permutations achieving the optimum, lexicographically, up to cap.

    The flag is True exactly when more than ``cap`` optimal permutations
    exist.  ``optimum`` must be the minimum assignment cost of ``cost``.
    """
    best, match, u, v = hungarian(cost)
    if optimum != best:
        raise DomainError(f"{optimum} is not the minimum assignment cost {best}")
    return _optimal_plans(cost, match, u, v, cap)


def transport_distance(
    oracle: GroupOracle,
    table: MetricTable,
    spec: MeasureSpec,
    *,
    cap: int = 1000,
) -> TransportResult:
    """Exact T1 between the uniform measures of ``spec``, with all optimal plans.

    The identity permutation is the comparison-distance plan; whether it is
    among the optima is reported on the result.
    """
    ws = sphere_or_ball(table, spec.radius, spec.support)
    xi = oracle.invert(spec.x)
    shift = oracle.compose(xi, spec.y)  # x^-1 y; costs are |u^-1 (x^-1 y) v|
    cost = []
    for u in ws:
        ui = oracle.invert(u)
        row = []
        left = oracle.compose(ui, shift)
        for v in ws:
            row.append(word_length(oracle, oracle.compose(left, v), table))
        cost.append(row)
    optimum, match, u_pot, v_pot = hungarian(cost)
    perms, truncated = _optimal_plans(cost, match, u_pot, v_pot, cap)
    n = len(ws)
    identity_cost = sum(cost[i][i] for i in range(n))
    d = word_length(oracle, shift, table)
    t1 = Fraction(optimum, n)
    return TransportResult(
        spec=spec,
        translators=ws,
        cost=tuple(tuple(row) for row in cost),
        t1=t1,
        permutations=tuple(perms),
        truncated=truncated,
        identity_optimal=identity_cost == optimum,
        distance=d,
        kappa_star=None if d == 0 else 1 - t1 / d,
    )


@dataclass(frozen=True)
class ProbeRow:
    element: Element
    identity_optimal: bool
    sphere_preserving_exists: bool
    block_plan_matches_ball: bool
    optima_count: int
    truncated: bool


@dataclass(frozen=True)
class ProbeReport:
    """Empirical answers, over a sample, to the optimal-plan structure questions.

    Never a theorem: reports whether the identity plan was always optimal,
    whether some ball optimum preserves every sphere, and whether stitching
    per-sphere optima together already achieves the ball optimum.
    """

    group_id: str
    radius: int
    rows: tuple[ProbeRow, ...]

    @property
    def identity_always_optimal(self) -> bool:
        return all(row.identity_optimal for row in self.rows)

    @property
    def identity_counterexamples(self) -> tuple[Element, ...]:
        return tuple(row.element for row in self.rows if not row.identity_optimal)

    def to_json_dict(self, format_element=repr) -> dict:
        return {
            "kind": "probe",
            "group": self.group_id,
            "radius": self.radius,
            "identity_always_optimal": self.identity_always_optimal,
            "identity_counterexamples": [
                format_element(e) for e in self.identity_counterexamples[:10]
            ],
            "rows": [
                {
                    "element": format_element(row.element),
                    "identity_optimal": row.identity_optimal,
                    "sphere_preserving_exists": row.sphere_preserving_exists,
                    "block_plan_matches_ball": row.block_plan_matches_ball,
                    "optima_count": row.optima_count,
                    "truncated": row.truncated,
                }
                for row in self.rows
            ],
        }


def question_probe(
    oracle: GroupOracle,
    table: MetricTable,
    r: int,
    elements,
    *,
    cap: int = 1000,
) -> ProbeReport:
    """Probe the optimal plans from the identity to each sampled g, over the ball B_r."""
    rows = []
    layer_sizes = [len(sphere(table, i)) for i in range(r + 1)]
    bounds = []
    start = 0
    for size in layer_sizes:
        bounds.append((start, start + size))
        start += size
    for g in elements:
        res = transport_distance(oracle, table, MeasureSpec(oracle.identity, g, "ball", r), cap=cap)
        # Stitch per-sphere optima: cost of the best sphere-preserving plan.
        # A sphere-preserving ball optimum exists exactly when this reaches the ball optimum.
        block_cost = 0
        for i, (lo, hi) in enumerate(bounds):
            if i == 0:
                block_cost += res.cost[0][0]
                continue
            sub = [[res.cost[u][v] for v in range(lo, hi)] for u in range(lo, hi)]
            block_cost += solve_assignment(sub)
        blocks_optimal = Fraction(block_cost, len(res.translators)) == res.t1
        rows.append(
            ProbeRow(
                element=g,
                identity_optimal=res.identity_optimal,
                sphere_preserving_exists=blocks_optimal,
                block_plan_matches_ball=blocks_optimal,
                optima_count=len(res.permutations),
                truncated=res.truncated,
            )
        )
    return ProbeReport(oracle.group_id, r, tuple(rows))
