import json
import random
from fractions import Fraction

import pytest

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import DomainError, ball, bfs_metric, rational_str, sphere, word_length
from curvlab.curvature import kappa
from curvlab.deadend import report
from curvlab.lamplighter import l2_oracle, ll_dm_tk, ll_make_dm


def test_identity_element_rejected():
    oracle = make_zn(2)
    table = bfs_metric(oracle, 2)
    with pytest.raises(DomainError, match="undefined at the identity"):
        kappa(oracle, table, (0, 0), 1)


def test_comparison_distance_examples():
    z2 = make_zn(2)
    tz = bfs_metric(z2, 3)
    assert kappa(z2, tz, (1, 1), 3, "sphere").comparison == 2
    assert kappa(z2, tz, (1, 1), 3, "ball").comparison == 2

    l2 = l2_oracle()
    tl = bfs_metric(l2, 2)
    assert kappa(l2, tl, ll_dm_tk(3, 1), 1).comparison == Fraction(52, 3)

    f2 = make_free(2)
    tf = bfs_metric(f2, 2)
    assert kappa(f2, tf, f2.evaluate(["a", "b"]), 1).comparison == 3


def test_kappa_examples():
    z2 = make_zn(2)
    tz = bfs_metric(z2, 2)
    assert kappa(z2, tz, (2, 3), 1).kappa == 0

    f2 = make_free(2)
    tf = bfs_metric(f2, 2)
    assert kappa(f2, tf, f2.evaluate(["a", "b"]), 1).kappa == Fraction(-1, 2)

    l2 = l2_oracle()
    tl = bfs_metric(l2, 1)
    rep = kappa(l2, tl, ll_dm_tk(3, 1), 1)
    assert rep.kappa == Fraction(1, 27)
    assert sorted(length for _, length in rep.breakdown) == [16, 18, 18]


def test_kappa_dm_family_closed_form():
    # kappa_1(d_m t^k) = 2 / (3 (6m - k + 1)) and kappa_2 doubles the defect
    l2 = l2_oracle()
    tl = bfs_metric(l2, 2)
    for m in (3, 4, 5):
        for k in range(1, m - 2):
            base = 6 * m - k + 1
            assert kappa(l2, tl, ll_dm_tk(m, k), 1).kappa == Fraction(2, 3 * base)
            assert kappa(l2, tl, ll_dm_tk(m, k), 2).kappa == Fraction(4, 3 * base)


def test_gencon_examples():
    s3 = make_s3()
    t3 = bfs_metric(s3, 3)
    assert kappa(s3, t3, s3.generator("s"), 1).comparison == 2
    z3 = make_zn(3)
    tz = bfs_metric(z3, 2)
    for g in ball(tz, 2):
        if g != z3.identity:
            assert kappa(z3, tz, g, 1).comparison == word_length(z3, g, tz)


def test_report_invariants():
    l2 = l2_oracle()
    tl = bfs_metric(l2, 2)
    rep = kappa(l2, tl, ll_make_dm(2), 2, "ball")
    assert rep.comparison == Fraction(
        sum(length for _, length in rep.breakdown), len(rep.breakdown)
    )
    assert rep.kappa == Fraction(rep.base_length - rep.comparison, rep.base_length)
    assert rep.kappa <= 1
    assert len(rep.breakdown) == len(ball(tl, 2))


def test_ball_sphere_consistency():
    # B_r average recombines from the per-sphere sums, with |g| at radius 0
    oracle = l2_oracle()
    table = bfs_metric(oracle, 3)
    g = ll_dm_tk(4, 1)
    base = word_length(oracle, g, table)
    for r in (1, 2, 3):
        total = base  # the identity conjugator
        count = 1
        for i in range(1, r + 1):
            layer = kappa(oracle, table, g, i, "sphere").breakdown
            total += sum(length for _, length in layer)
            count += len(layer)
        assert kappa(oracle, table, g, r, "ball").comparison == Fraction(total, count)


def test_translation_invariance():
    # averaging d(hw, hgw) over w equals the comparison distance at (e, g)
    oracle = l2_oracle()
    table = bfs_metric(oracle, 2)
    rng = random.Random(17)
    pool = ball(table, 2)
    g = ll_dm_tk(3, 1)
    for _ in range(10):
        h = pool[rng.randrange(len(pool))]
        total = 0
        for w in sphere(table, 2):
            x = oracle.compose(h, w)
            y = oracle.compose(oracle.compose(h, g), w)
            total += word_length(oracle, oracle.compose(oracle.invert(x), y), table)
        assert Fraction(total, len(sphere(table, 2))) == kappa(oracle, table, g, 2, "sphere").comparison


def test_strict_dead_end_nonnegative_curvature():
    # the descent proposition, end to end on the d_m family
    oracle = l2_oracle()
    table = bfs_metric(oracle, 3)
    for m in (2, 3, 4):
        g = ll_make_dm(m)
        k = report(oracle, table, g, 1).strict_depth
        assert k == 2 if m > 1 else 1
        for r in range(1, k):
            assert kappa(oracle, table, g, r).kappa >= 0
        # in fact conjugation never changes d_m lengths at small radii
        assert kappa(oracle, table, g, 1).kappa == 0
        assert kappa(oracle, table, g, 2).kappa == 0


def test_json_and_csv_serialization():
    l2 = l2_oracle()
    tl = bfs_metric(l2, 1)
    rep = kappa(l2, tl, ll_dm_tk(3, 1), 1)
    payload = rep.to_json_dict()
    assert payload["kappa"] == "1/27"
    assert payload["base_length"] == 18
    json.dumps(payload)  # serializable
    rows = rep.csv_rows()
    assert len(rows) == 3
    assert all(row[6] == "1/27" for row in rows)


def test_positive_curvature_at_radius_10():
    # d_6 t^2 at radius 10, past r < m - k: still positive, in both modes
    l2 = l2_oracle()
    tl = bfs_metric(l2, 10)
    assert rational_str(kappa(l2, tl, ll_dm_tk(6, 2), 10, "sphere").kappa) == "622/21245"
    assert rational_str(kappa(l2, tl, ll_dm_tk(6, 2), 10, "ball").kappa) == "2514/50995"
