import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
import transport_reference

from curvlab import transport
from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import DomainError, ball, bfs_metric, sphere_or_ball
from curvlab.curvature import kappa
from curvlab.lamplighter import l2_oracle, ll_dm_tk
from curvlab.literals import get_group, parse_element
from curvlab.transport import (
    MAX_TRANSPORT_ROWS,
    MeasureSpec,
    _optimal_plans,
    enumerate_optimal,
    hungarian,
    question_probe,
    solve_assignment,
    transport_distance,
)


def brute_minimum(cost):
    n = len(cost)
    return min(sum(cost[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def test_solver_matches_brute_force():
    rng = random.Random(101)
    for trial in range(80):
        n = 2 + trial % 6
        cost = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
        assert solve_assignment(cost) == brute_minimum(cost)
        optimum, match, u, v = hungarian(cost)  # the integer duals certify the optimum
        assert sorted(match) == list(range(n))
        assert all(cost[i][j] - u[i] - v[j] >= 0 for i in range(n) for j in range(n))
        assert all(cost[i][match[i]] == u[i] + v[match[i]] for i in range(n))
        assert sum(u) + sum(v) == optimum


def test_enumeration_complete_and_lexicographic():
    rng = random.Random(55)
    for trial in range(320):
        n = 1 + trial % 7
        high = (1, 2, 3, 6, 20)[trial % 5]  # 0-1 costs tie heavily, 0-20 costs rarely
        cost = [[rng.randint(0, high) for _ in range(n)] for _ in range(n)]
        opt = solve_assignment(cost)
        expected = [
            p
            for p in itertools.permutations(range(n))
            if sum(cost[i][p[i]] for i in range(n)) == opt
        ]  # itertools.permutations is lexicographic
        for cap in (0, 1, 2, 3, 50, 1000):
            perms, truncated = enumerate_optimal(cost, opt, cap=cap)
            assert perms == expected[:cap]
            assert truncated == (len(expected) > cap)


def assert_same_as_reference(cost):
    """``hungarian`` and the plan walk give exactly what the reference versions give, at caps 0 to 3 and past the count."""
    solved = hungarian(cost)
    assert solved == transport_reference.hungarian(cost)
    _, match, u, v = solved
    listed, _ = transport_reference._optimal_plans(cost, match, u, v, 1000)
    for cap in (0, 1, 2, 3, len(listed) + 1):  # one above the count, or past the 1 000 listed
        assert _optimal_plans(cost, match, u, v, cap) == transport_reference._optimal_plans(cost, match, u, v, cap)


def test_solver_and_walk_match_the_reference_on_every_small_matrix():
    # every matrix over {0, 1, 2} with at most 3 rows: 1 + 3 + 81 + 19 683 matrices
    for n in range(4):
        for entries in itertools.product(range(3), repeat=n * n):
            assert_same_as_reference([list(entries[i * n : (i + 1) * n]) for i in range(n)])


def test_solver_and_walk_match_the_reference_on_random_matrices():
    rng = random.Random(211)
    for trial in range(600):
        n = 4 + trial % 6
        high = (1, 2, 3, 6, 20)[trial % 5]
        assert_same_as_reference([[rng.randint(0, high) for _ in range(n)] for _ in range(n)])


# The fixed problems of the benchmark's transport workload (perfbench/wl_transport.py):
# (group, x, mode, radius) from x to the identity, and the table horizon each group needs.
BENCHMARK_HEAVY = (
    ("Heis", "(4,1,2)", "ball", 2),
    ("W3", "w: s1 t", "sphere", 2),
    ("L2", "d(4)*t^1", "sphere", 3),
    ("Z2", "(1,1)", "sphere", 8),
    ("Z2", "(1,2)", "sphere", 6),
    ("L2", "d(2)", "sphere", 3),
    ("F2", "a b^-1", "sphere", 2),
    ("Z2", "(2,3)", "ball", 6),
    ("Z2", "(2,3)", "ball", 5),
    ("Z2", "(1,3)", "sphere", 5),
    ("H2", "g(1)", "ball", 2),
)
BENCHMARK_PLATEAU = tuple(("L2", f"d({m})", "sphere", 3) for m in range(3, 19))
BENCHMARK_HORIZONS = {"Z2": 12, "F2": 7, "L2": 9, "W3": 6, "H2": 8, "Heis": 14, "F3": 3}
# the top of the medium scale, free groups with closed-form lengths: 108 and 150 rows
MEDIUM_TOP = (("F2", "a", "sphere", 4), ("F3", "a", "sphere", 3))


def test_solver_and_walk_match_the_reference_on_the_benchmark_problems():
    tables = {}
    for gid, x, mode, r in BENCHMARK_HEAVY + BENCHMARK_PLATEAU + MEDIUM_TOP:
        oracle = get_group(gid)
        if gid not in tables:
            tables[gid] = bfs_metric(oracle, BENCHMARK_HORIZONS[gid])
        spec = MeasureSpec(parse_element(gid, x), oracle.identity, mode, r)
        cost = [list(row) for row in transport_distance(oracle, tables[gid], spec, cap=0).cost]
        assert_same_as_reference(cost)


def test_support_above_the_row_cap_is_refused():
    f2 = make_free(2)
    table = bfs_metric(f2, 6)
    assert len(sphere_or_ball(table, 5, "ball")) == 485 > MAX_TRANSPORT_ROWS
    with pytest.raises(DomainError, match=f"the ball of radius 5 has 485 rows, more than the {MAX_TRANSPORT_ROWS}"):
        transport_distance(f2, table, MeasureSpec(f2.identity, f2.generator("a"), "ball", 5))


def test_enumeration_cap():
    cost = [[0] * 5 for _ in range(5)]
    perms, truncated = enumerate_optimal(cost, 0, cap=7)
    assert len(perms) == 7 and truncated
    zero3 = [[0] * 3 for _ in range(3)]  # all 6 permutations are optimal
    assert enumerate_optimal(zero3, 0, cap=6) == (list(itertools.permutations(range(3))), False)
    perms, truncated = enumerate_optimal(zero3, 0, cap=5)
    assert len(perms) == 5 and truncated
    with pytest.raises(DomainError, match="not the minimum assignment cost"):
        enumerate_optimal(zero3, 1)
    assert enumerate_optimal(zero3, 0, cap=0) == ([], True)  # at cap 0, truncated says that optima exist
    assert enumerate_optimal([], 0, cap=3) == ([()], False)  # the empty matrix has one plan
    assert enumerate_optimal([], 0, cap=0) == ([], True)
    s3 = make_s3()
    t3 = bfs_metric(s3, 3)
    spec = MeasureSpec(s3.generator("s"), s3.identity)
    res = transport_distance(s3, t3, spec, cap=0)
    assert res.permutations == () and res.truncated
    for call in (
        lambda: enumerate_optimal(zero3, 0, cap=-1),
        lambda: transport_distance(s3, t3, spec, cap=-1),
        lambda: question_probe(s3, t3, 1, [s3.generator("s")], cap=-1),
    ):
        with pytest.raises(DomainError, match="must be at least 0, got -1"):
            call()


def test_enumeration_walk_is_not_recursive():
    # one level per row: 1 200 rows is past Python's default recursion limit of 1 000
    n = 1200
    cost = [[int(i != j) for j in range(n)] for i in range(n)]
    assert enumerate_optimal(cost, 0, cap=2) == ([tuple(range(n))], False)


def walk_counting_memo(cost, cap):
    """``_optimal_plans`` at ``cap``, with the number of suffixes its ``tails`` memo holds when it returns.

    A profile hook reads the walk's ``memo`` local on return.  Only a memo
    miss at a set of at most five free columns adds keys, at most its 31
    nonempty subsets, and each holds at most as many suffixes as that set
    has plans, all of which the walk lists: so at most 31 * (cap + 120).
    """
    _, match, u, v = hungarian(cost)
    counts = {}

    def hook(frame, event, arg):
        if frame.f_code.co_filename == transport.__file__ and frame.f_code.co_name == "_optimal_plans" and event == "return":
            counts["stored"] = sum(map(len, frame.f_locals["memo"].values()))

    sys.setprofile(hook)
    try:
        result = _optimal_plans(cost, match, u, v, cap)
    finally:
        sys.setprofile(None)
    assert counts["stored"] <= 31 * (cap + 120)
    return result, counts["stored"]


def test_walk_matches_the_reference_on_dense_ties_with_the_subtree_memo_bounded_by_the_walk():
    # 0-1 matrices tie densely, so the free-column sets of the last five rows recur under many prefixes
    rng = random.Random(32)
    for n in range(6, 17):
        matrices = [[[0] * n for _ in range(n)]]
        matrices += [[[int(rng.random() < p) for _ in range(n)] for _ in range(n)] for p in (0.2, 0.5, 0.8)]
        for cost in matrices:
            _, match, u, v = hungarian(cost)
            count = len(transport_reference._optimal_plans(cost, match, u, v, 1000)[0])
            for cap in (0, 1, 3, count, count + 1):
                result, _ = walk_counting_memo(cost, cap)
                assert result == transport_reference._optimal_plans(cost, match, u, v, cap)
    # every pair tight, at caps that fall inside the plans of one free set: 6 rows at 50, 7 at 150, 8 at 1 000
    for n, cap in ((6, 50), (7, 150), (8, 1000)):
        zero = [[0] * n for _ in range(n)]
        _, match, u, v = hungarian(zero)
        result, stored = walk_counting_memo(zero, cap)
        assert result == transport_reference._optimal_plans(zero, match, u, v, cap)
        assert result == (list(itertools.permutations(range(n)))[:cap], True)
    # 8 rows: the prefixes (0, 1, 2) to (0, 1, 7), (0, 2, 3) and (0, 2, 4) miss eight five-column sets
    assert stored == 1710


@pytest.mark.parametrize(
    "gid,x,mode,r,bound",
    [
        ("F2", "a b^-1", "sphere", 2, 450),  # 12 rows; 844 calls when the walk went down to row n - 3
        ("L2", "d(3)", "sphere", 3, 200),  # 12 rows; 319 calls then
        ("Heis", "(4,1,2)", "ball", 2, 200),  # 17 rows; 1 059 calls then
    ],
)
def test_the_last_five_rows_make_no_search_for_a_column(monkeypatch, gid, x, mode, r, bound):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return reroute(*args)

    reroute = transport._reroute
    monkeypatch.setattr(transport, "_reroute", counted)
    oracle = get_group(gid)
    res = transport_distance(oracle, bfs_metric(oracle, r), MeasureSpec(parse_element(gid, x), oracle.identity, mode, r))
    assert len(res.permutations) == 1000 and res.truncated
    assert len(calls) <= bound


@pytest.mark.parametrize(
    "gid,x,mode,r,horizon",
    [
        ("L2", "d(3)", "ball", 3, 3),  # n = 22
        ("F2", "a", "sphere", 3, 3),  # n = 36
        ("Z3", "(1,1,0)", "ball", 2, 2),  # n = 25
        ("Heis", "(3,1,1)", "sphere", 2, 10),  # n = 12
    ],
)
def test_tight_graph_enumeration_is_fast_where_row_minimum_search_was_not(gid, x, mode, r, horizon):
    # A row-minimum depth-first search found no optimum on these within 10 s.
    oracle = get_group(gid)
    table = bfs_metric(oracle, horizon)
    spec = MeasureSpec(parse_element(gid, x), oracle.identity, mode, r)
    t0 = time.perf_counter()
    res = transport_distance(oracle, table, spec, cap=1000)
    assert time.perf_counter() - t0 < 0.5
    n = len(res.translators)
    assert len(res.permutations) == 1000 and res.truncated
    for p in res.permutations:
        assert sorted(p) == list(range(n))
        assert sum(res.cost[i][p[i]] for i in range(n)) == res.t1 * n
    assert list(res.permutations) == sorted(set(res.permutations))


def test_solver_invariant_under_relabeling():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(2, 6)
        cost = [[rng.randint(0, 15) for _ in range(n)] for _ in range(n)]
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[cost[i][j] for j in cols] for i in rows]
        assert solve_assignment(cost) == solve_assignment(shuffled)


def test_equal_basepoints():
    oracle = make_zn(2)
    table = bfs_metric(oracle, 2)
    res = transport_distance(oracle, table, MeasureSpec((1, 0), (1, 0)))
    assert res.t1 == 0
    assert res.identity_optimal
    assert res.kappa_star is None


def test_s3_worked_example():
    oracle = make_s3()
    table = bfs_metric(oracle, 3)
    s = oracle.generator("s")
    res = transport_distance(oracle, table, MeasureSpec(s, oracle.identity, "sphere", 1))
    assert res.t1 == 1
    assert res.kappa_star == 0
    assert not res.identity_optimal
    assert res.permutations == ((1, 0),)  # the s <-> t swap
    assert kappa(oracle, table, s, 1).comparison == 2
    assert kappa(oracle, table, s, 1).kappa == -1

    sts = oracle.evaluate(["s", "t", "s"])
    res2 = transport_distance(oracle, table, MeasureSpec(sts, oracle.identity, "sphere", 1))
    assert res2.identity_optimal
    assert res2.t1 == 1
    assert res2.kappa_star == Fraction(2, 3)


def test_t1_never_exceeds_identity_plan():
    oracle = make_free(2)
    table = bfs_metric(oracle, 3)
    rng = random.Random(3)
    pool = ball(table, 2)
    for _ in range(30):
        x, y = (pool[rng.randrange(len(pool))] for _ in range(2))
        res = transport_distance(oracle, table, MeasureSpec(x, y, "sphere", 1))
        n = len(res.translators)
        identity_cost = Fraction(sum(res.cost[i][i] for i in range(n)), n)
        assert res.t1 <= identity_cost


def test_free_group_psi_contains_identity_and_swap():
    oracle = make_free(2)
    table = bfs_metric(oracle, 3)
    a = oracle.generator("a")
    res = transport_distance(oracle, table, MeasureSpec(oracle.identity, a, "sphere", 1))
    assert res.identity_optimal
    idx = {w: i for i, w in enumerate(res.translators)}
    swap = list(range(4))
    swap[idx[(2,)]], swap[idx[(-2,)]] = idx[(-2,)], idx[(2,)]
    assert tuple(swap) in res.permutations


def test_kappa_star_equals_comparison_on_abelian_and_free():
    z2 = make_zn(2)
    tz = bfs_metric(z2, 3)
    rng = random.Random(13)
    for _ in range(50):
        x = (rng.randint(-4, 4), rng.randint(-4, 4))
        y = (rng.randint(-4, 4), rng.randint(-4, 4))
        if x == y:
            continue
        g = z2.compose(z2.invert(x), y)
        assert transport_distance(z2, tz, MeasureSpec(x, y)).kappa_star == kappa(z2, tz, g, 1).kappa == 0
    f2 = make_free(2)
    tf = bfs_metric(f2, 3)
    for g in ball(tf, 3):
        if g == ():
            continue
        assert transport_distance(f2, tf, MeasureSpec(f2.identity, g)).kappa_star == kappa(f2, tf, g, 1).kappa


def test_zn_transport_curvature_vanishes_at_radii_one_and_two():
    """Z^n is flat: kappa* = 0 for every x in B_1 and y = x g, g in B_2, on spheres and balls of radius 1 and 2.

    The certificate holds at every radius.  f(v) = sum_i sign(y_i - x_i) v_i is 1-Lipschitz for the L1 word
    metric, and f is linear, so its mean over y + S_r minus its mean over x + S_r is f(y) - f(x) = d(x, y) (the
    same for B_r).  By Kantorovich-Rubinstein duality T1 >= d(x, y); the translation plan x + w -> y + w moves
    each point by d(x, y), so it attains the bound, T1 = d(x, y) and kappa*_r = 1 - T1 / d(x, y) = 0.
    """
    for n in (2, 3):
        oracle = make_zn(n)
        table = bfs_metric(oracle, 2)
        for g in ball(table, 2):
            if g == oracle.identity:
                continue
            assert kappa(oracle, table, g, 1).kappa == 0
            for x, r, mode in itertools.product(ball(table, 1), (1, 2), ("sphere", "ball")):
                spec = MeasureSpec(x, oracle.compose(x, g), mode, r)
                assert transport_distance(oracle, table, spec, cap=0).kappa_star == 0


def test_kappa_star_dominates_comparison():
    oracles = [make_zn(2), make_free(2), make_s3(), l2_oracle()]
    for oracle in oracles:
        table = bfs_metric(oracle, 3)
        for g in ball(table, 2):
            if g == oracle.identity:
                continue
            for mode in ("sphere", "ball"):
                ks = transport_distance(
                    oracle, table, MeasureSpec(oracle.identity, g, mode, 1)
                ).kappa_star
                kc = kappa(oracle, table, g, 1, mode).kappa
                assert ks >= kc


def test_lamplighter_backtrack_transport():
    oracle = l2_oracle()
    table = bfs_metric(oracle, 2)
    g = ll_dm_tk(4, 1)
    res = transport_distance(oracle, table, MeasureSpec(oracle.identity, g, "sphere", 1))
    assert res.kappa_star is not None
    assert res.kappa_star >= kappa(oracle, table, g, 1).kappa > 0


def test_probe_reports():
    z2 = make_zn(2)
    tz = bfs_metric(z2, 5)
    sample = [g for g in ball(tz, 3) if g != (0, 0)]
    rep = question_probe(z2, tz, 1, sample)
    assert rep.identity_always_optimal
    assert all(row.sphere_preserving_exists for row in rep.rows)
    assert all(row.block_plan_matches_ball for row in rep.rows)
    capped = question_probe(z2, tz, 1, sample, cap=1)  # the answers do not depend on the cap
    assert all(row.truncated for row in capped.rows)
    assert [r.sphere_preserving_exists for r in capped.rows] == [r.sphere_preserving_exists for r in rep.rows]

    s3 = make_s3()
    t3 = bfs_metric(s3, 3)
    rep3 = question_probe(s3, t3, 1, [g for g in range(1, 6)])
    assert not rep3.identity_always_optimal
    assert s3.generator("s") in rep3.identity_counterexamples

    f2 = make_free(2)
    tf = bfs_metric(f2, 5)
    repf = question_probe(f2, tf, 1, [g for g in ball(tf, 4) if g != ()])
    assert repf.identity_always_optimal
