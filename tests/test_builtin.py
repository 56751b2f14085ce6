from fractions import Fraction

import pytest

from curvlab.builtin import S3_TABLE, make_free, make_s3, make_zn
from curvlab.core import CurvlabError, DomainError, ball, bfs_metric, word_length
from curvlab.curvature import kappa
from curvlab.deadend import backtrack_elements
from curvlab.heisenberg import (
    MalcevTriple,
    heis_case_label,
    heis_ceil_jump,
    heis_density_experiment,
    heis_sign_predict,
)
from curvlab.houghton import h2_h, h2_transposition, h2_u_word
from curvlab.lamplighter import LampConfig, l2_oracle, ll_embed_in_dead_end, ll_make_dm, wr_make_dm, zn_wreath_oracle
from curvlab.transport import MeasureSpec, transport_distance


def test_zn_length_is_l1():
    z2 = make_zn(2)
    assert z2.closed_length((2, -3)) == 5
    z5 = make_zn(5)
    assert z5.closed_length((1, -1, 0, 2, -2)) == 6


def test_free_reduction():
    f2 = make_free(2)
    w = f2.evaluate(["a", "b", "a^-1"])
    assert w == (1, 2, -1)
    assert f2.closed_length(w) == 3
    assert f2.evaluate(["a", "a^-1"]) == ()
    assert f2.compose((1, 2), (-2, -1)) == ()


def test_s3_table_is_latin_square_and_relators():
    for row in S3_TABLE:
        assert sorted(row) == list(range(6))
    for j in range(6):
        assert sorted(S3_TABLE[i][j] for i in range(6)) == list(range(6))
    s3 = make_s3()
    s, t = s3.generator("s"), s3.generator("t")
    assert s3.compose(s, s) == s3.identity
    assert s3.compose(t, t) == s3.identity
    assert s3.evaluate(["s", "t", "s"]) == s3.evaluate(["t", "s", "t"])


def test_s3_generators_generate():
    table = bfs_metric(make_s3(), 3)
    assert len(table.dist) == 6
    assert word_length(make_s3(), make_s3().evaluate(["s", "t", "s"]), table) == 3


def test_free_gencon_formula():
    f2 = make_free(2)
    assert kappa(f2, bfs_metric(f2, 2), f2.evaluate(["a", "b"]), 1).comparison == 3
    # brute force over the 6 conjugators of a in F_3: (1+1+3+3+3+3)/6
    f3 = make_free(3)
    total = sum(f3.closed_length(f3.conjugate((1,), w)) for w in f3.generators)
    assert Fraction(total, 6) == Fraction(7, 3) == kappa(f3, bfs_metric(f3, 1), (1,), 1).comparison


@pytest.mark.parametrize("n", [2, 3])
def test_free_gencon_matches_generic(n):
    # the generator-conjugation average of a nonempty reduced word is |g| + 2 - 2/n
    oracle = make_free(n)
    table = bfs_metric(oracle, 3)
    for g in ball(table, 3):
        if g == ():
            continue
        assert kappa(oracle, table, g, 1).comparison == len(g) + 2 - Fraction(2, n)


def test_zn_curvature_vanishes():
    oracle = make_zn(2)
    table = bfs_metric(oracle, 3)
    for g in ball(table, 3):
        if g == (0, 0):
            continue
        for r in (1, 2, 3):
            for mode in ("sphere", "ball"):
                assert kappa(oracle, table, g, r, mode).kappa == 0


def test_free_kappa_closed_form():
    for n in (2, 3):
        oracle = make_free(n)
        table = bfs_metric(oracle, 2)
        for g in ball(table, 2):
            if g == ():
                continue
            expected = Fraction(-(2 - Fraction(2, n)), len(g))
            assert kappa(oracle, table, g, 1).kappa == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_zn(0),
        lambda: make_free(0),
        lambda: zn_wreath_oracle(1),
        lambda: ll_make_dm(0),
        lambda: wr_make_dm(3, {}),
        lambda: wr_make_dm(3, {-1: 1, 0: 0, 1: 2}),
        lambda: h2_u_word(0),
        lambda: h2_u_word(2, "up"),
        lambda: h2_transposition(0),
        lambda: h2_h(1, 2),
        lambda: heis_ceil_jump(5, 0, 7, 1),
        lambda: ll_embed_in_dead_end(LampConfig((0, 2), 0)),
    ],
    ids=[
        "make_zn", "make_free", "zn_wreath_oracle", "ll_make_dm", "wr_make_dm-empty", "wr_make_dm-identity-state",
        "h2_u_word", "h2_u_word-orientation", "h2_transposition", "h2_h", "heis_ceil_jump",
        "ll_embed_in_dead_end",
    ],
)
def test_builder_argument_errors_are_library_errors(call):
    # one error hierarchy: out-of-range builder arguments raise DomainError, a CurvlabError and a ValueError
    with pytest.raises(DomainError) as excinfo:
        call()
    assert isinstance(excinfo.value, CurvlabError) and isinstance(excinfo.value, ValueError)


def _backtracks(oracle, element):
    return backtrack_elements(oracle, bfs_metric(oracle, 3), element, 12)


@pytest.mark.parametrize(
    "call, phrase",
    [
        (lambda: kappa(make_zn(2), bfs_metric(make_zn(2), 1), (0, 0), 1), "undefined at the identity"),
        (lambda: _backtracks(l2_oracle(), LampConfig((), 1)), "not a dead end"),
        (lambda: _backtracks(make_s3(), make_s3().evaluate(["s", "t", "s"])), "exhausted S3"),
        (lambda: ll_embed_in_dead_end(LampConfig((0, 2), 0)), "not a geodesic prefix"),
        (lambda: heis_ceil_jump(5, 4, 21, 3), "needs B\\*t <= A"),
        (lambda: heis_ceil_jump(10, 2, 20, 1), "divides"),
        (lambda: heis_case_label(10, 2, 0, 1), "remainder 0 outside"),
        (lambda: heis_sign_predict(MalcevTriple(3, 1, 1), 1), "outside the radius-1 sector"),
        (lambda: heis_density_experiment(2, 1), "sector is empty"),
        (lambda: kappa(make_zn(2), bfs_metric(make_zn(2), 1), (1, 0), 1, "disk"), "mode must be 'sphere' or 'ball'"),
        (
            lambda: transport_distance(make_zn(2), bfs_metric(make_zn(2), 1), MeasureSpec((1, 0), (0, 0), "disk")),
            "mode must be 'sphere' or 'ball'",
        ),
    ],
    ids=[
        "kappa-identity", "backtracks-not-dead-end",
        "backtracks-exhausted", "ll_embed_in_dead_end", "heis_ceil_jump-sector",
        "heis_ceil_jump-remainder", "heis_case_label-remainder", "heis_sign_predict-sector", "density-empty-sector",
        "kappa-mode", "transport-mode",
    ],
)
def test_undefined_quantities_raise_domain_error(call, phrase):
    # every argument outside the domain of the requested quantity raises the one DomainError
    with pytest.raises(DomainError, match=phrase):
        call()
