import itertools
import random
import time
from fractions import Fraction

import pytest

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import DomainError, ball, bfs_metric
from curvlab.curvature import kappa
from curvlab.lamplighter import l2_oracle, ll_dm_tk
from curvlab.literals import get_group, parse_element
from curvlab.transport import (
    MeasureSpec,
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
        for cap in (1, 3, 50, 1000):
            perms, truncated = enumerate_optimal(cost, opt, cap=cap)
            assert perms == expected[:cap]
            assert truncated == (len(expected) > cap)


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
