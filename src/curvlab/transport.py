"""Transport curvature: exact optimal assignment between uniform measures.

For basepoints x, y and a common support shape (the sphere or ball of radius
r), the measures are uniform on {x*w} and {y*w}.  Because both are uniform of
equal size, an optimal transport plan is a permutation, so the infimum is an
exact assignment optimum over the integer cost matrix d(x*u, y*v).  The
transport curvature is kappa* = 1 - T1/d(x, y) (Ollivier's coarse Ricci
curvature); it always dominates the comparison curvature, whose plan is the
identity permutation.

The assignment is solved by the Hungarian method in its shortest augmenting
path form (Kuhn 1955), in O(n^3) integer arithmetic; each search scans only
the columns outside its tree.  Besides the optimum and one optimal matching
it returns integer dual potentials u, v with c_ij - u_i - v_j >= 0
everywhere.  By complementary slackness the optimal permutations are exactly
the perfect matchings of the tight graph, the pairs with
c_ij - u_i - v_j = 0.  They are listed in lexicographic order by one loop
over a stack that holds, for each fixed row, an iterator over its tight
columns in ascending order.  The loop keeps one perfect matching of the tight
graph that agrees with the fixed rows: the top row takes the next column of
its iterator, and a column other than its partner only when one augmenting
path through the unfixed rows repairs the matching (in the manner of Uno
1997).  That path is most often a direct swap, the partner of the new column
taking the top row's old one, which is tried before any search.  A taken
column pushes the next row's iterator, and an exhausted iterator is popped
and frees its parent row's column.  Every branch taken therefore leads to an
optimum, and between two optima each tight pair is tried at most once, so
the delay is polynomial: O(n^4) in the worst case, against the exponential
search of a cost bound alone.

The last five rows are not walked.  Their plans depend only on the set of
columns the rows above them leave free, not on the prefix or the matching,
so once row n - 6 has a column the walk appends the prefix to each tight
matching of the last rows onto the free columns.  One function, ``tails``,
lists those matchings in order, memoized on the ascending free columns;
the walk hands it only free sets that have a completion.  Only a miss at a
set of five columns adds keys, at most its 31 nonempty subsets, and each
holds at most as many suffixes as that set has plans, all of which are
listed: the memo holds at most 31 * (cap + 120) suffixes of at most five
columns.  The walk is not recursive and ``tails`` recurses at most six
deep, so a matrix of any size stays within Python's recursion limit.  A
transport support has at most MAX_TRANSPORT_ROWS rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, pairwise
from typing import Optional

from .core import (
    DomainError,
    Element,
    GroupOracle,
    MetricTable,
    Support,
    sphere,
    rational_str,
    sphere_or_ball,
    word_length,
)

INF = float("inf")  # slack of a column no tree row reaches yet; every real slack is an int

# Bound on the rows of a transport support.  The slowest admitted F_n sphere,
# F4 at radius 3 with 392 rows from the generator a, takes 9.9 to 10.1 s as a
# CLI call on 2 cores with Python 3.11 (F2 at radius 5, 324 rows, 6.7 to
# 7.2 s); F2 at radius 6 has 972 rows.
MAX_TRANSPORT_ROWS = 400


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
    translators: tuple[Element, ...]  # the common w-support, in layer (element) order
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

    Each row is inserted by one shortest augmenting path search.  Only the
    columns outside the search tree are scanned, in ascending order, so ties
    break towards the lowest column.  Each open column's slack is stored with
    the search's running shift ``reach`` added, so that after a scan
    ``reach`` is the least stored slack; the duals of the tree rows and
    columns are shifted once, when the search ends, each by the part of
    ``reach`` gained after it joined.
    """
    n = len(cost)
    u = [0] * n
    v = [0] * n
    owner = [-1] * n  # owner[j]: the row matched to column j, -1 when free
    for i in range(n):
        slack = [INF] * n  # least reduced cost from the tree to each open column, plus reach when it was set
        way = [-1] * n  # the tree column preceding each column on its best path; -1 for row i itself
        open_cols = list(range(n))
        tree = []  # (row, column it holds or -1, reach when it joined)
        i0, j0, reach = i, -1, 0
        while i0 >= 0:
            tree.append((i0, j0, reach))
            row, base = cost[i0], reach - u[i0]
            best, j1 = INF, -1
            for j in open_cols:
                s = slack[j]
                cur = row[j] - v[j] + base
                if cur < s:
                    slack[j] = s = cur
                    way[j] = j0
                if s < best:
                    best, j1 = s, j
            reach = best
            open_cols.remove(j1)
            i0, j0 = owner[j1], j1
        for r, c, joined in tree:
            u[r] += reach - joined
            if c >= 0:
                v[c] -= reach - joined
        while j0 >= 0:  # augment along the path back to row i
            j1 = way[j0]
            owner[j0] = owner[j1] if j1 >= 0 else i
            j0 = j1
    match = [0] * n
    for j in range(n):
        match[owner[j]] = j
    return sum(cost[i][match[i]] for i in range(n)), match, u, v


def solve_assignment(cost: list[list[int]]) -> int:
    """Exact minimum assignment cost of a square integer matrix."""
    return hungarian(cost)[0]


def _reroute(tight, mask, col, row, fixed, i: int, j: int) -> bool:
    """Give row i column j, keeping the matching perfect by moving only unfixed rows.

    When j's owner has i's old column tight, the two rows swap columns.
    Otherwise searches one augmenting path from j's owner to i's old column
    through tight, unfixed columns other than j; returns False, leaving the
    matching as it was, when there is none.
    """
    target, source = col[i], row[j]
    if mask[source][target]:
        col[source], row[target] = target, source
        col[i], row[j] = j, i
        return True
    via = {}  # column -> the row whose tight edge reached it
    stack = [source]
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
        if r == source:
            break
        c = prev
    col[i], row[j] = j, i
    return True


def _optimal_plans(cost, match, u, v, cap: int) -> tuple[list[tuple[int, ...]], bool]:
    """The first ``cap`` optimal permutations, lexicographically, and whether more exist.

    ``match`` is one optimal assignment and u, v its integer duals.  The rows
    from ``deep = max(n - 5, 0)`` on are listed by ``tails``, memoized on
    their ascending free columns.  Above row ``deep`` the walk keeps one
    iterator over the tight columns of each fixed row on a stack; every
    branch taken keeps a perfect matching of the tight graph that agrees
    with the fixed rows, so the free columns it hands to ``tails`` have at
    least one completion.
    """
    if cap < 0:
        raise DomainError(f"the cap on listed optima must be at least 0, got {cap}")
    n = len(cost)
    mask = [bytearray([c - ui == vj for c, vj in zip(cost[i], v)]) for i, ui in enumerate(u)]
    memo = {(): [()]}  # ascending free columns of the last rows -> their tight matchings onto them, in order

    def tails(free):
        found = memo.get(free)
        if found is None:
            m = mask[n - len(free)]  # the first of the rows these columns complete
            found = memo[free] = []
            for k, j in enumerate(free):
                if m[j]:
                    for t in tails(free[:k] + free[k + 1 :]):
                        found.append((j,) + t)
        return found

    deep = max(n - 5, 0)
    if deep == 0:
        plans = tails(tuple(range(n)))  # the empty matrix has one plan, the empty permutation
        return plans[:cap], len(plans) > cap
    tight = [list(compress(range(n), m)) for m in mask]
    col = list(match)
    row = [0] * n
    for i, j in enumerate(col):
        row[j] = i
    fixed = [False] * n  # columns held by the rows below the top of the stack
    plans = []
    stack = [iter(tight[0])]
    while stack and len(plans) <= cap:
        i = len(stack) - 1
        for j in stack[i]:
            if not fixed[j] and (j == col[i] or _reroute(tight, mask, col, row, fixed, i, j)):
                if i + 1 == deep:
                    head = tuple(col[:deep])
                    plans.extend(head + t for t in tails(tuple(sorted(col[deep:]))))
                else:
                    fixed[j] = True
                    stack.append(iter(tight[i + 1]))
                break
        else:
            stack.pop()
            if i:
                fixed[col[i - 1]] = False  # back from the branch that fixed row i - 1
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
    if len(ws) > MAX_TRANSPORT_ROWS:
        raise DomainError(
            f"the {spec.support} of radius {spec.radius} has {len(ws)} rows, more than the "
            f"{MAX_TRANSPORT_ROWS} a transport problem may have; lower --radius"
        )
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
        kappa_star=None if d == 0 else Fraction(d * n - optimum, d * n),
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
            "identity_counterexamples": [format_element(e) for e in self.identity_counterexamples],
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
    # (start, end) of each sphere S_0 .. S_r among the ball's rows and columns
    bounds = list(pairwise(accumulate((len(sphere(table, i)) for i in range(r + 1)), initial=0)))
    for g in elements:
        res = transport_distance(oracle, table, MeasureSpec(oracle.identity, g, "ball", r), cap=cap)
        # Stitch per-sphere optima: cost of the best sphere-preserving plan.
        # A sphere-preserving ball optimum exists exactly when this reaches the ball optimum.
        block_cost = sum(solve_assignment([row[lo:hi] for row in res.cost[lo:hi]]) for lo, hi in bounds)
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
