import pytest

from curvlab import deadend
from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import OutOfHorizonError, ball, bfs_metric, word_length
from curvlab.houghton import h2_g, h2_h, h2_oracle
from curvlab.lamplighter import l2_oracle, ll_dm_tk, ll_make_dm


@pytest.fixture(scope="module")
def l2():
    oracle = l2_oracle()
    return oracle, bfs_metric(oracle, 8)


def test_is_dead_end(l2):
    oracle, table = l2
    assert deadend.is_dead_end(oracle, table, ll_make_dm(3))
    assert not deadend.is_dead_end(oracle, table, oracle.generator("t"))
    assert not deadend.is_dead_end(oracle, table, ll_dm_tk(3, 1))


def test_escape_depth_of_dm_is_2m_plus_1(l2):
    # the valley around d_m: lengths only recover after walking past the far lamp
    oracle, table = l2
    for m in (1, 2, 3, 4):
        assert deadend.depth(oracle, table, ll_make_dm(m), 2 * m + 2) == 2 * m + 1


def test_depth_of_non_dead_end_is_one(l2):
    oracle, table = l2
    assert deadend.depth(oracle, table, oracle.generator("t"), 3) == 1


def test_depth_horizon_marker(l2):
    oracle, table = l2
    d = deadend.depth(oracle, table, ll_make_dm(3), max_depth=4)
    assert d is None


def test_witness_realizes_depth(l2):
    oracle, table = l2
    for g in (ll_make_dm(2), oracle.generator("t"), ll_dm_tk(4, 2)):
        rep = deadend.report(oracle, table, g, max_depth=10)
        assert rep.witness is not None
        assert len(rep.witness) == rep.depth
        end = oracle.compose(g, oracle.evaluate(rep.witness))
        assert word_length(oracle, end, table) > rep.base_length


def test_strict_depth_values(l2):
    oracle, table = l2
    assert deadend.strict_depth(oracle, table, ll_make_dm(1)) == 1
    for m in (2, 3, 4):
        # a_{-1} in S_3 only sheds one lamp, so the uniform descent stops at 2
        assert deadend.strict_depth(oracle, table, ll_make_dm(m)) == 2
    assert deadend.strict_depth(oracle, table, oracle.generator("t")) == 0
    # |d_3 t t^-1| = |d_3| > |d_3 t| - 1 fails the descent at radius 1? no:
    # the descent condition is on sphere elements; t^-1 in S_1 sends d_3 t to d_3
    assert deadend.strict_depth(oracle, table, ll_dm_tk(3, 1)) == 0


def test_depth_one_iff_not_dead_end_b6():
    for oracle in (make_zn(2), make_free(2), make_s3(), l2_oracle()):
        table = bfs_metric(oracle, 7)
        for g in ball(table, 6):
            if g == oracle.identity:
                continue
            d = deadend.depth(oracle, table, g, max_depth=3)
            dead = deadend.is_dead_end(oracle, table, g)
            if d == 1:
                assert not dead
            else:
                assert dead


def test_s3_longest_element_is_dead_end():
    oracle = make_s3()
    table = bfs_metric(oracle, 3)
    sts = oracle.evaluate(["s", "t", "s"])
    assert deadend.is_dead_end(oracle, table, sts)
    # finite group: no escape exists at all
    d = deadend.depth(oracle, table, sts, max_depth=6)
    assert d is None
    assert deadend.strict_depth(oracle, table, sts) == 3


def test_backtracks_of_dm(l2):
    oracle, table = l2
    g = ll_make_dm(2)
    bts = deadend.backtrack_elements(oracle, table, g, bound=6)
    for i in (-1, 1):
        assert ll_dm_tk(2, i) in bts
    base = word_length(oracle, g, table)
    for w in bts:
        assert word_length(oracle, w, table) <= base
    # escape depth 5 admits continuations of length up to 4, and inside the
    # valley every one of them stays within |d_2|
    assert len(bts) == len(ball(table, 4)) - 1 == 43


def test_backtracks_not_dead_end_error(l2):
    oracle, table = l2
    with pytest.raises(deadend.NotADeadEndError):
        deadend.backtrack_elements(oracle, table, oracle.generator("t"), 4)


def test_backtracks_bound_too_small(l2):
    oracle, table = l2
    with pytest.raises(OutOfHorizonError):
        deadend.backtrack_elements(oracle, table, ll_make_dm(2), bound=3)


def test_houghton_g2_backtracks():
    oracle = h2_oracle()
    table = bfs_metric(oracle, 12)
    g2 = h2_g(2)
    assert deadend.depth(oracle, table, g2, 4) == 3
    bts = deadend.backtrack_elements(oracle, table, g2, bound=4)
    assert h2_h(2, 2) in bts  # the h_{2,2} truncation
    assert len(bts) == 9  # frozen from the first exhaustive run
    base = word_length(oracle, g2, table)
    for w in bts:
        assert word_length(oracle, w, table) <= base


def test_scan_streams_reports(l2):
    oracle, table = l2
    reports = list(deadend.scan(oracle, table, 7, max_depth=3))
    assert len(reports) == 1  # only d_1 in B_7
    rep = reports[0]
    assert rep.element == ll_make_dm(1)
    assert rep.is_dead_end
    assert rep.depth == 3
    assert rep.strict_depth == 1
    payload = rep.to_json_dict()
    assert payload["is_dead_end"] is True
