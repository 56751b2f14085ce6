import random

import pytest

from curvlab.core import ball, bfs_metric, sphere, word_length
from curvlab.curvature import kappa
from curvlab.houghton import (
    SIGMA,
    HoughtonElement,
    bead_shift,
    h2_compose,
    h2_g,
    h2_h,
    h2_invert,
    h2_min_length_bound,
    h2_moved_points,
    h2_oracle,
    h2_transposition,
    h2_u,
    h2_u_word,
)

# frozen first-run regression for the growth of H_2 over {sigma, s, s^-1}
H2_LAYER_SIZES_B8 = (1, 3, 6, 12, 24, 48, 91, 172, 325)


def h2_apply(x, p):
    """The image of the bead p under x."""
    return dict(x.moves).get(p, bead_shift(p, x.shift))


def h2_h_word(k, m, orientation, descending):
    """One of the four concatenated u_l spellings of h(k, m)."""
    ls = range(k, m - 1, -1) if descending else range(m, k + 1)
    return tuple(lab for l in ls for lab in h2_u_word(l, orientation))


@pytest.fixture(scope="module")
def table8():
    return bfs_metric(h2_oracle(), 8)


def test_bead_shift_skips_zero():
    assert bead_shift(-1, 1) == 1
    assert bead_shift(1, -1) == -1
    assert bead_shift(-2, 3) == 2
    assert bead_shift(2, -3) == -2
    for p in (-3, -1, 1, 4):
        assert bead_shift(bead_shift(p, 5), -5) == p


def test_sigma_is_involution():
    assert h2_compose(SIGMA, SIGMA) == HoughtonElement(0, ())


def test_shift_inverse():
    oracle = h2_oracle()
    s = oracle.generator("s")
    assert h2_compose(s, h2_invert(s)) == oracle.identity


def test_apply_matches_composition():
    rng = random.Random(23)
    oracle = h2_oracle()
    labels = oracle.labels
    for _ in range(30):
        word = [labels[rng.randrange(3)] for _ in range(8)]
        el = oracle.evaluate(word)
        # the word acts by applying its letters left to right
        for p in (-4, -1, 1, 2, 5):
            q = p
            for lab in word:
                q = h2_apply(oracle.generator(lab), q)
            assert h2_apply(el, p) == q


def test_u_spellings():
    assert h2_u_word(1) == ("sigma",)
    assert len(h2_u_word(2)) == 11
    for l in (1, 2, 3, 4):
        assert len(h2_u_word(l, "neg")) == 10 * l - 9
        neg = h2_u(l, "neg")
        pos = h2_u(l, "pos")
        assert neg == pos == h2_transposition(l)
    with pytest.raises(ValueError):
        h2_u_word(0)
    with pytest.raises(ValueError):
        h2_u_word(2, "sideways")


def test_u2_length_is_geodesic(table8):
    # |u_2| = 11 is confirmed at horizon 12 in the acceptance suite; here we
    # check it is not shorter than 9 (the B_8 sweep)
    assert table8.distance(h2_u(2)) is None


def test_h_family():
    assert h2_g(1) == SIGMA
    g2 = h2_g(2)
    assert g2.shift == 0
    assert h2_moved_points(g2) == frozenset({-2, -1, 1, 2})
    h22 = h2_h(2, 2)
    assert h22 == h2_transposition(2)
    oracle = h2_oracle()
    for orientation in ("neg", "pos"):
        for descending in (True, False):
            word = h2_h_word(3, 2, orientation, descending)
            assert oracle.evaluate(word) == h2_h(3, 2)
    with pytest.raises(ValueError):
        h2_h(2, 3)
    with pytest.raises(ValueError):
        h2_h(2, 0)


def test_moved_points_and_bound():
    assert h2_moved_points(HoughtonElement(0, ())) == frozenset()
    assert h2_min_length_bound(HoughtonElement(0, ())) == 0
    assert h2_moved_points(SIGMA) == frozenset({-1, 1})
    assert h2_min_length_bound(SIGMA) == 1


def test_length_bound_lemma_b8(table8):
    for el, d in table8.dist.items():
        assert d >= h2_min_length_bound(el), el


def test_frozen_layer_sizes(table8):
    assert table8.layer_sizes() == H2_LAYER_SIZES_B8


def test_sigma_commutes_with_disjoint_support(table8):
    oracle = h2_oracle()
    count = 0
    for el in ball(table8, 6):
        if el.shift == 0 and not h2_moved_points(el) & {-1, 1}:
            assert h2_compose(SIGMA, el) == h2_compose(el, SIGMA)
            count += 1
    assert count > 1  # the identity plus at least one nontrivial element


def test_h22_conjugation_and_curvature():
    oracle = h2_oracle()
    table = bfs_metric(oracle, 12)
    h22 = h2_h(2, 2)
    base = word_length(oracle, h22, table)
    assert base == 11
    lengths = []
    for w in sphere(table, 1):
        lengths.append(word_length(oracle, oracle.conjugate(h22, w), table))
        assert lengths[-1] <= base
    assert sorted(lengths) == [9, 9, 11]
    rep = kappa(oracle, table, h22, 1)
    assert rep.kappa > 0


def test_parsed_element_roundtrip_under_inverse():
    rng = random.Random(31)
    oracle = h2_oracle()
    labels = oracle.labels
    gens = oracle.generators
    inverse_label = {lab: labels[gens.index(oracle.invert(gen))] for lab, gen in zip(labels, gens)}
    for _ in range(40):
        word = [labels[rng.randrange(3)] for _ in range(10)]
        el = oracle.evaluate(word)
        back = oracle.evaluate([inverse_label[lab] for lab in reversed(word)])
        assert back == h2_invert(el)
        assert h2_compose(el, back) == oracle.identity
