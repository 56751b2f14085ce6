import random

import pytest

from curvlab.core import DomainError, bfs_metric
from curvlab.lamplighter import (
    LampConfig,
    WreathConfig,
    l2_oracle,
    ll_dm_tk,
    ll_embed_in_dead_end,
    ll_geodesic,
    ll_length,
    ll_make_dm,
    wr_length,
    wr_make_dm,
    zn_wreath_oracle,
)

# frozen first-run regression; cross-checked against the closed form below
L2_LAYER_SIZES_B8 = (1, 3, 6, 12, 22, 40, 71, 123, 212)
W3_LAYER_SIZES_B6 = (1, 4, 10, 26, 58, 130, 286)


def test_dm_lengths():
    assert ll_length(ll_make_dm(3)) == 19
    assert ll_length(LampConfig((), -5)) == 5
    for m in range(1, 7):
        for k in range(1, m):
            assert ll_length(ll_dm_tk(m, k)) == 6 * m - k + 1


def test_escape_profile_frozen():
    assert [ll_length(ll_dm_tk(3, i)) for i in range(8)] == [19, 18, 17, 16, 17, 18, 19, 20]


def test_bfs_agreement_and_frozen_layers():
    oracle = l2_oracle()
    table = bfs_metric(oracle, 8)
    assert table.layer_sizes() == L2_LAYER_SIZES_B8
    for el, d in table.dist.items():
        assert ll_length(el) == d
    w3 = zn_wreath_oracle(3)
    wt = bfs_metric(w3, 6)
    assert wt.layer_sizes() == W3_LAYER_SIZES_B6
    for el, d in wt.dist.items():
        assert wr_length(el) == d


def test_geodesic_round_trip():
    oracle = l2_oracle()
    cases = [
        ll_make_dm(2),
        LampConfig((0,), 0),
        LampConfig((1,), 2),
        LampConfig((-4, -1, 3), -2),
        LampConfig((), 7),
        LampConfig((2, 5), 0),
    ]
    rng = random.Random(5)
    for _ in range(40):
        lamps = tuple(sorted(rng.sample(range(-6, 7), rng.randint(0, 5))))
        cases.append(LampConfig(lamps, rng.randint(-7, 7)))
    for cfg in cases:
        word = ll_geodesic(cfg)
        assert oracle.evaluate(word) == cfg
        assert len(word) == ll_length(cfg)


def test_geodesic_examples():
    assert ll_geodesic(LampConfig((0,), 0)) == ("a",)
    assert ll_geodesic(LampConfig((1,), 2)) == ("t", "a", "t")
    assert len(ll_geodesic(ll_make_dm(2))) == 13


def test_make_dm_validation():
    with pytest.raises(ValueError):
        ll_make_dm(0)
    with pytest.raises(ValueError):
        wr_make_dm(3, {-1: 1, 0: 0, 1: 2})  # identity state
    with pytest.raises(ValueError):
        wr_make_dm(3, {0: 1, 1: 1})  # not an interval [-m, m]
    with pytest.raises(ValueError, match="not an element of the lamp group"):
        wr_make_dm(3, {-1: 1, 0: 3, 1: 2})


def test_wreath_dm_lengths():
    dm = wr_make_dm(3, {i: 1 for i in range(-2, 3)})
    assert wr_length(dm) == 13
    dm1 = wr_make_dm(3, {i: 2 for i in range(-1, 2)})
    assert wr_length(dm1) == 7
    oracle = zn_wreath_oracle(3)
    # every lamp of dm1 holds state 2, so the L2 geodesic of its support spells it with s2 for a
    word = tuple("s2" if lab == "a" else lab for lab in ll_geodesic(LampConfig((-1, 0, 1), 0)))
    assert oracle.evaluate(word) == dm1
    assert len(word) == 7


def test_wreath_corollary_conjugation_never_lengthens():
    # lamps on all of [-m, m] with arbitrary nontrivial states and |shift| < m:
    # every generator conjugate is no longer than the element
    oracle = zn_wreath_oracle(3)
    rng = random.Random(9)
    for m in (2, 3):
        for shift in range(-(m - 1), m):
            for _ in range(5):
                states = {i: rng.choice((1, 2)) for i in range(-m, m + 1)}
                g = WreathConfig(tuple(sorted(states.items())), shift)
                base = wr_length(g)
                for gen in oracle.generators:
                    conj = oracle.conjugate(g, gen)
                    assert wr_length(conj) <= base


def test_conjugation_lemma_translation():
    # t^r w t^-r preserves length when lamps +-m are lit and m > |pos| + r
    oracle = l2_oracle()
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(2, 6)
        interior = rng.sample(range(-m + 1, m), rng.randint(0, 2 * m - 1))
        lamps = tuple(sorted(set([-m, m] + interior)))
        k = rng.randint(-m + 1, m - 1)
        max_r = m - abs(k) - 1
        if max_r < 1:
            continue
        r = rng.randint(1, max_r)
        w = LampConfig(lamps, k)
        tr = oracle.evaluate(["t"] * r)
        conj = oracle.compose(oracle.compose(tr, w), oracle.invert(tr))
        assert ll_length(conj) == ll_length(w)


def test_embed_in_dead_end():
    oracle = l2_oracle()
    cases = {
        LampConfig((0,), 0): 1,
        ll_make_dm(2): 2,
        LampConfig((1, 3), 2): 3,
    }
    for w, expected_m in cases.items():
        m, ext = ll_embed_in_dead_end(w)
        assert m == expected_m
        full = ll_geodesic(w) + ext
        assert oracle.evaluate(full) == ll_make_dm(m)
        assert len(full) == ll_length(ll_make_dm(m))
    assert ll_embed_in_dead_end(ll_make_dm(2))[1] == ()


def test_embed_random_words():
    oracle = l2_oracle()
    rng = random.Random(21)
    embedded = rejected = 0
    for _ in range(40):
        lamps = tuple(sorted(rng.sample(range(-4, 5), rng.randint(0, 4))))
        w = LampConfig(lamps, rng.randint(-4, 4))
        try:
            m, ext = ll_embed_in_dead_end(w)
        except DomainError as exc:
            assert "not a geodesic prefix" in str(exc)
            # independent check: no M up to well past the span satisfies the
            # prefix equation
            for mm in range(1, 20):
                target = ll_make_dm(mm)
                rest = oracle.compose(oracle.invert(w), target)
                assert ll_length(rest) != ll_length(target) - ll_length(w)
            rejected += 1
            continue
        full = ll_geodesic(w) + ext
        assert oracle.evaluate(full) == ll_make_dm(m)
        assert len(full) == ll_length(ll_make_dm(m))
        embedded += 1
    assert embedded > 5 and rejected > 5


def test_embed_gap_word_rejected():
    # both passes of the skipped lamp are spent, so no d_M extension exists
    with pytest.raises(DomainError, match="not a geodesic prefix of any d_M"):
        ll_embed_in_dead_end(LampConfig((0, 2), 0))
