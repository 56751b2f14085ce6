"""Output checks made apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks use the group arithmetic of an oracle (compose,
invert, generators) as a primitive, but never the program's BFS, transport
solver, curvature averages or dead-end search: those are recomputed here, or
tested against a property the method must have.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional

MAX_MESSAGES = 5


def _first(failures: list[str]) -> list[str]:
    if len(failures) > MAX_MESSAGES:
        return failures[:MAX_MESSAGES] + [f"... and {len(failures) - MAX_MESSAGES} more"]
    return failures


# ---------------------------------------------------------------------------
# Independent lengths and balls


def l1_length(v) -> int:
    return sum(abs(c) for c in v)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def lamplighter_length(lamps, pos: int) -> int:
    """|g| in Z_2 wr Z over {a, t, t^-1}: light every lamp, sweeping one side first."""
    if not lamps:
        return abs(pos)
    right = max(0, max(lamps))
    left = max(0, -min(lamps))
    return len(lamps) + min(2 * left + right + abs(pos - right), 2 * right + left + abs(pos + left))


def own_spheres(oracle, horizon: int) -> list[set]:
    """S_0..S_horizon by a plain breadth-first search over the oracle's arithmetic."""
    seen = {oracle.identity}
    layers = [[oracle.identity]]
    for _ in range(horizon):
        nxt = []
        for el in layers[-1]:
            for gen in oracle.generators:
                h = oracle.compose(el, gen)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        layers.append(nxt)
    return [set(layer) for layer in layers]


# ---------------------------------------------------------------------------
# Tables


def check_word_metric(oracle, table) -> list[str]:
    """Every layer-r element has a neighbour in layer r-1, and all its neighbours lie in r-1..r+1.

    With the identity alone in layer 0 this pins every distance to the true
    word length (the first condition bounds it above, the second below), and
    it also shows that no element within the horizon is missing.
    """
    f: list[str] = []
    dist = table.dist
    if tuple(table.layers[0]) != (oracle.identity,):
        f.append("layer 0 is not exactly the identity")
    if sum(len(layer) for layer in table.layers) != len(dist):
        f.append("layers and distance map differ in size (an element is repeated or missing)")
    for r, layer in enumerate(table.layers):
        for el in layer:
            if dist.get(el) != r:
                f.append(f"{el!r} sits in layer {r} but has distance {dist.get(el)}")
                continue
            down = False
            for gen in oracle.generators:
                d = dist.get(oracle.compose(el, gen))
                if d is None:
                    if r < table.horizon:
                        f.append(f"a neighbour of {el!r} (layer {r}) is missing from the ball")
                    continue
                if abs(d - r) > 1:
                    f.append(f"{el!r} in layer {r} has a neighbour in layer {d}")
                down = down or d == r - 1
            if r > 0 and not down:
                f.append(f"{el!r} in layer {r} has no neighbour in layer {r - 1}")
    return _first(f)


def check_lengths(table, length: Callable, domain: Optional[Callable] = None) -> list[str]:
    """Every distance (on ``domain``, when given) equals ``length(element)``."""
    f = [
        f"{el!r}: table {d}, expected {length(el)}"
        for el, d in table.dist.items()
        if (domain is None or domain(el)) and length(el) != d
    ]
    return _first(f)


def check_layer_sizes(table, size_of: Callable[[int], int]) -> list[str]:
    got = [len(layer) for layer in table.layers]
    want = [size_of(r) for r in range(table.horizon + 1)]
    return [] if got == want else [f"layer sizes {got} != {want}"]


def zn_sphere_size(n: int, r: int) -> int:
    """Lattice points of L1 norm exactly r in Z^n."""
    if r == 0:
        return 1
    # choose the k nonzero coordinates, their signs, and a composition of r into k parts
    from math import comb

    return sum(comb(n, k) * 2**k * comb(r - 1, k - 1) for k in range(1, min(n, r) + 1))


def free_sphere_size(n: int, r: int) -> int:
    return 1 if r == 0 else 2 * n * (2 * n - 1) ** (r - 1)


def check_free_elements(table) -> list[str]:
    f = [
        f"{el!r} is not a reduced word of length {d}"
        for el, d in table.dist.items()
        if free_reduce(el) != tuple(el) or len(el) != d
    ]
    return _first(f)


def check_tables_equal(built, loaded) -> list[str]:
    f: list[str] = []
    if (loaded.group_id, loaded.horizon) != (built.group_id, built.horizon):
        f.append(f"loaded {loaded.group_id}/{loaded.horizon} != built {built.group_id}/{built.horizon}")
    if len(loaded.layers) != len(built.layers):
        return f + [f"{len(loaded.layers)} layers loaded, {len(built.layers)} built"]
    for r, (a, b) in enumerate(zip(built.layers, loaded.layers)):
        if tuple(a) != tuple(b):
            f.append(f"layer {r} differs: {len(b)} elements loaded, {len(a)} built")
    if loaded.dist != built.dist:
        f.append("distance maps differ")
    return _first(f)


# ---------------------------------------------------------------------------
# Transport


def plan_cost(cost, perm) -> int:
    return sum(row[j] for row, j in zip(cost, perm))


def has_negative_cycle(cost, perm) -> bool:
    """Whether reassigning columns along some cycle of rows lowers the plan's cost.

    Edge i -> k (row i takes row k's column) weighs
    cost[i][perm[k]] - cost[i][perm[i]]; a plan is optimal exactly when this
    graph has no negative cycle.  Bellman-Ford from a zero potential on every
    row; still relaxing after n passes means a negative cycle.
    """
    n = len(cost)
    d = [0] * n
    for _ in range(n):
        base = [d[i] - cost[i][perm[i]] for i in range(n)]
        changed = False
        for k in range(n):
            col = perm[k]
            best = min(base[i] + cost[i][col] for i in range(n))
            if best < d[k]:
                d[k] = best
                changed = True
        if not changed:
            return False
    return True


def brute_force_optima(cost) -> tuple[int, list[tuple[int, ...]]]:
    """The optimum and every optimal permutation, in lexicographic order."""
    n = len(cost)
    best = None
    optima: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        c = plan_cost(cost, perm)
        if best is None or c < best:
            best, optima = c, [perm]
        elif c == best:
            optima.append(perm)
    return best, optima


def check_transport(result, cap: int, brute_force_max: int = 8) -> list[str]:
    f: list[str] = []
    cost = [list(row) for row in result.cost]
    n = len(cost)
    if n != len(result.translators) or any(len(row) != n for row in cost):
        return [f"cost matrix is not {n} x {n}"]
    total = result.t1 * n
    if total.denominator != 1:
        return [f"n*T1 = {total} is not an integer"]
    optimum = total.numerator
    perms = list(result.permutations)
    if not perms:
        return ["no optimal permutation returned"]
    if len(perms) > cap:
        f.append(f"{len(perms)} permutations returned, cap is {cap}")
    for p in perms:
        if sorted(p) != list(range(n)):
            f.append(f"{p} is not a bijection of {n} points")
        elif plan_cost(cost, p) != optimum:
            f.append(f"{p} costs {plan_cost(cost, p)}, not n*T1 = {optimum}")
    for a, b in zip(perms, perms[1:]):
        if not tuple(a) < tuple(b):
            f.append(f"permutations not strictly increasing: {a} then {b}")
            break
    identity_cost = sum(cost[i][i] for i in range(n))
    if optimum > identity_cost:
        f.append(f"T1*n = {optimum} exceeds the identity plan's cost {identity_cost}")
    if result.identity_optimal != (identity_cost == optimum):
        f.append("identity_optimal disagrees with the identity plan's cost")
    if sorted(perms[0]) == list(range(n)) and has_negative_cycle(cost, perms[0]):
        f.append(f"plan {perms[0]} is not optimal: its residual graph has a negative cycle")
    if n <= brute_force_max:
        best, optima = brute_force_optima(cost)
        if best != optimum:
            f.append(f"brute-force optimum {best} != n*T1 = {optimum}")
        elif [tuple(p) for p in perms] != optima[:cap]:
            f.append(f"optimum list differs from brute force ({len(perms)} vs {len(optima)})")
        elif result.truncated != (len(optima) >= cap):
            f.append(f"truncated = {result.truncated} with {len(optima)} optima and cap {cap}")
    if result.distance > 0 and result.kappa_star != 1 - result.t1 / result.distance:
        f.append(f"kappa* {result.kappa_star} != 1 - T1/d")
    return _first(f)


def check_cost_matrix(result, length: Callable, oracle) -> list[str]:
    """cost[i][j] = |u_i^-1 x^-1 y v_j| with lengths from ``length``."""
    x, y = result.spec.x, result.spec.y
    shift = oracle.compose(oracle.invert(x), y)
    ws = result.translators
    f = []
    for i, u in enumerate(ws):
        left = oracle.compose(oracle.invert(u), shift)
        for j, v in enumerate(ws):
            want = length(oracle.compose(left, v))
            if result.cost[i][j] != want:
                f.append(f"cost[{i}][{j}] = {result.cost[i][j]}, expected {want}")
    return _first(f)


def check_probe_row(row, cost, layer_bounds, cap: int) -> list[str]:
    """Recompute a probe row's answers by brute force over its ball cost matrix."""
    best, optima = brute_force_optima(cost)
    n = len(cost)
    identity = sum(cost[i][i] for i in range(n))

    def preserves(p):
        return all(lo <= p[i] < hi for lo, hi in layer_bounds for i in range(lo, hi))

    block = 0
    for lo, hi in layer_bounds:
        sub = [[cost[u][v] for v in range(lo, hi)] for u in range(lo, hi)]
        block += brute_force_optima(sub)[0]
    want = {
        "identity_optimal": identity == best,
        "sphere_preserving_exists": any(preserves(p) for p in optima[:cap]),
        "block_plan_matches_ball": block == best,
        "optima_count": min(len(optima), cap),
        "truncated": len(optima) >= cap,
    }
    return [
        f"probe {key} = {getattr(row, key)}, expected {value}"
        for key, value in want.items()
        if getattr(row, key) != value
    ]


# ---------------------------------------------------------------------------
# Curvature


def check_kappa(report, g, r: int, conjugators: set, length: Optional[Callable] = None, oracle=None) -> list[str]:
    """The report is the exact mean over exactly the conjugator set, and kappa follows from it."""
    f: list[str] = []
    lengths = [n for _, n in report.breakdown]
    if len(lengths) != len(conjugators):
        f.append(f"breakdown has {len(lengths)} entries, the conjugator set {len(conjugators)}")
    elif {w for w, _ in report.breakdown} != conjugators:
        f.append("breakdown conjugators differ from the independently enumerated set")
    if not lengths:
        return f + ["empty breakdown"]
    if report.comparison != Fraction(sum(lengths), len(lengths)):
        f.append(f"comparison {report.comparison} is not the mean of the breakdown")
    base = report.base_length
    if base <= 0 or report.kappa != (base - report.comparison) / base:
        f.append(f"kappa {report.kappa} != (|g| - comparison)/|g|")
    if length is not None:
        if base != length(g):
            f.append(f"|g| = {base}, expected {length(g)}")
        for w, n in report.breakdown:
            want = length(oracle.conjugate(g, w))
            if n != want:
                f.append(f"|w^-1 g w| for w = {w!r} is {n}, expected {want}")
    return _first(f)


def check_bipartite_conjugates(report, r: int) -> list[str]:
    """In a bipartite Cayley graph every conjugate has the parity of |g|, within 2r of it."""
    base = report.base_length
    f = [
        f"conjugate by {w!r} has length {n} (|g| = {base}, r = {r})"
        for w, n in report.breakdown
        if (n - base) % 2 or abs(n - base) > 2 * r
    ]
    return _first(f)


# ---------------------------------------------------------------------------
# Dead ends (lamplighter, with lengths from ``lamplighter_length``)


def l2_len(el) -> int:
    return lamplighter_length(el.lamps, el.pos)


def own_strict_depth(oracle, g, spheres: list[set]) -> int:
    base = l2_len(g)
    k = 0
    for r in range(1, len(spheres)):
        if all(l2_len(oracle.compose(g, w)) <= base - r for w in spheres[r]):
            k = r
        else:
            break
    return k


def check_deadend_report(oracle, rep, m: int, spheres: list[set]) -> list[str]:
    """depth(d_m) = 2m + 1 with a witness that escapes only at its end; strict depth recomputed."""
    f: list[str] = []
    g = rep.element
    base = l2_len(g)
    if rep.base_length != base:
        f.append(f"|d_{m}| = {rep.base_length}, expected {base}")
    if rep.depth != 2 * m + 1:
        f.append(f"depth(d_{m}) = {rep.depth}, expected {2 * m + 1}")
    if rep.witness is None or len(rep.witness) != rep.depth:
        f.append(f"witness {rep.witness} does not have length depth = {rep.depth}")
    else:
        cur = g
        for i, label in enumerate(rep.witness):
            cur = oracle.compose(cur, oracle.generator(label))
            longer = l2_len(cur) > base
            if longer != (i == len(rep.witness) - 1):
                f.append(f"witness of d_{m} leaves |d_{m}| at step {i + 1} of {len(rep.witness)}")
                break
    # No path shorter than the depth escapes: the whole ball of radius depth - 1 stays within |g|.
    radius = 2 * m
    if radius < len(spheres):
        for r in range(1, radius + 1):
            if any(l2_len(oracle.compose(g, w)) > base for w in spheres[r]):
                f.append(f"d_{m} escapes at radius {r} < depth")
                break
    want_strict = own_strict_depth(oracle, g, spheres)
    if rep.strict_depth != want_strict:
        f.append(f"strict depth of d_{m} = {rep.strict_depth}, expected {want_strict}")
    if not rep.is_dead_end:
        f.append(f"d_{m} reported as not a dead end")
    return _first(f)


def own_is_dead_end(oracle, g) -> bool:
    base = l2_len(g)
    return all(l2_len(oracle.compose(g, a)) <= base for a in oracle.generators)


def check_scan(oracle, reports, spheres: list[set], radius: int) -> list[str]:
    got = [rep.element for rep in reports]
    want = {g for r in range(1, radius + 1) for g in spheres[r] if own_is_dead_end(oracle, g)}
    f = []
    if len(got) != len(set(got)):
        f.append("scan reports an element twice")
    if set(got) != want:
        f.append(f"scan found {len(set(got))} dead ends, expected {len(want)}")
    return f


def check_backtracks(oracle, g, got: set, depth: int, spheres: list[set]) -> list[str]:
    base = l2_len(g)
    want = set()
    for r in range(1, depth):
        for w in spheres[r]:
            h = oracle.compose(g, w)
            if l2_len(h) <= base:
                want.add(h)
    if got != want:
        return [f"{len(got)} backtrack elements, expected {len(want)}"]
    return []


# ---------------------------------------------------------------------------
# Heisenberg density


def sector_count(k: int, r: int) -> int:
    """Elements (A, B, C) of the radius-r margin-guarded sector with word length <= k.

    Conditions: A > B > 0, A - B >= 2r, A >= 5r, A/(5r) <= B <= 2A/(5r),
    A*r <= C <= A^2 - A*B - A*r; in that range the length is
    2*ceil(C/A) + A + B, so length <= k bounds C by A*floor((k - A - B)/2).
    """
    total = 0
    for a in range(5 * r, k + 1):
        for b in range(1, a):
            if a - b < 2 * r or 5 * r * b < a or 5 * r * b > 2 * a:
                continue
            top = min(a * a - a * b - a * r, a * ((k - a - b) // 2))
            total += max(0, top - a * r + 1)
    return total


def check_density(report, k: int, r: int) -> list[str]:
    f = []
    counted = sum(report.sign_counts.values())
    if counted != sum(report.predicted_counts.values()):
        f.append("sign and prediction tallies count different elements")
    want = sector_count(k, r)
    if counted != want:
        f.append(f"density (k={k}, r={r}) visited {counted} elements, the sector has {want}")
    if report.mismatches:
        f.append(f"{len(report.mismatches)} sign predictions contradict the exact kappa")
    return f
