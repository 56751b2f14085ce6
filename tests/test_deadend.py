import dataclasses
from math import inf

import deadend_reference as ref
import pytest
from bfs_reference import counting_steps

from curvlab import deadend
from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import (
    DomainError,
    MetricTable,
    OutOfHorizonError,
    ResourceLimitError,
    ball,
    bfs_metric,
    sphere,
    word_length,
)
from curvlab.houghton import h2_g, h2_h, h2_oracle
from curvlab.lamplighter import l2_oracle, ll_dm_tk, ll_length, ll_make_dm
from curvlab.literals import get_group


@pytest.fixture(scope="module")
def l2():
    oracle = l2_oracle()
    return oracle, bfs_metric(oracle, 8)


def test_is_dead_end(l2):
    oracle, table = l2
    assert deadend.report(oracle, table, ll_make_dm(3), 1).is_dead_end
    assert not deadend.report(oracle, table, oracle.generator("t"), 1).is_dead_end
    assert not deadend.report(oracle, table, ll_dm_tk(3, 1), 1).is_dead_end


def test_escape_depth_of_dm_is_2m_plus_1(l2):
    # the valley around d_m: lengths only recover after walking past the far lamp
    oracle, table = l2
    for m in (1, 2, 3, 4):
        assert deadend.report(oracle, table, ll_make_dm(m), 2 * m + 2).depth == 2 * m + 1


def test_depth_of_non_dead_end_is_one(l2):
    oracle, table = l2
    assert deadend.report(oracle, table, oracle.generator("t"), 3).depth == 1


def test_depth_horizon_marker(l2):
    oracle, table = l2
    d = deadend.report(oracle, table, ll_make_dm(3), max_depth=4).depth
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
    assert deadend.report(oracle, table, ll_make_dm(1), 1).strict_depth == 1
    for m in (2, 3, 4):
        # a_{-1} in S_3 only sheds one lamp, so the uniform descent stops at 2
        assert deadend.report(oracle, table, ll_make_dm(m), 1).strict_depth == 2
    assert deadend.report(oracle, table, oracle.generator("t"), 1).strict_depth == 0
    # |d_3 t t^-1| = |d_3| > |d_3 t| - 1 fails the descent at radius 1? no:
    # the descent condition is on sphere elements; t^-1 in S_1 sends d_3 t to d_3
    assert deadend.report(oracle, table, ll_dm_tk(3, 1), 1).strict_depth == 0


def test_depth_one_iff_not_dead_end_b6():
    for oracle in (make_zn(2), make_free(2), make_s3(), l2_oracle()):
        table = bfs_metric(oracle, 7)
        for g in ball(table, 6):
            if g == oracle.identity:
                continue
            d = deadend.report(oracle, table, g, max_depth=3).depth
            dead = deadend.report(oracle, table, g, 1).is_dead_end
            if d == 1:
                assert not dead
            else:
                assert dead


def test_s3_longest_element_is_dead_end():
    oracle = make_s3()
    table = bfs_metric(oracle, 3)
    sts = oracle.evaluate(["s", "t", "s"])
    assert deadend.report(oracle, table, sts, 1).is_dead_end
    # finite group: no escape exists at all
    d = deadend.report(oracle, table, sts, max_depth=6).depth
    assert d is None
    assert deadend.report(oracle, table, sts, 1).strict_depth == 3


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
    with pytest.raises(DomainError, match="^the element is not a dead end$"):
        deadend.backtrack_elements(oracle, table, oracle.generator("t"), 4)


def test_backtracks_bound_too_small(l2):
    oracle, table = l2
    with pytest.raises(OutOfHorizonError, match="^the escape depth exceeds the bound 3; raise the bound"):
        deadend.backtrack_elements(oracle, table, ll_make_dm(2), bound=3)


def test_houghton_g2_backtracks():
    oracle = h2_oracle()
    table = bfs_metric(oracle, 12)
    g2 = h2_g(2)
    assert deadend.report(oracle, table, g2, 4).depth == 3
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


# group id -> (radius of the ball scanned, dead ends in it); the S3 ball is the whole group, and
# W3 B_6 and H2 B_8 hold no dead end, so their balls reach the first ones
SCAN_BALLS = {"L2": (9, 3), "W3": (7, 8), "H2": (12, 6), "Heis": (6, 4), "F2": (5, 0), "Z2": (6, 0), "S3": (3, 1)}


@pytest.mark.parametrize("group_id", SCAN_BALLS)
def test_scan_is_the_dead_end_filter_of_report(group_id):
    radius, dead_ends = SCAN_BALLS[group_id]
    oracle = get_group(group_id)
    table = bfs_metric(oracle, radius)
    reports = [deadend.report(oracle, table, g, 4) for r in range(1, radius + 1) for g in sphere(table, r)]
    dead = [rep for rep in reports if rep.is_dead_end]
    assert list(deadend.scan(oracle, table, radius, 4)) == dead
    assert len(dead) == dead_ends


@pytest.mark.parametrize(
    "make, g, max_depth",
    [(make_s3, 5, 12), (l2_oracle, ll_make_dm(3), 4), (h2_oracle, h2_g(2), 2)],  # S3 element 5 is s t s
    ids=["S3", "L2", "H2"],
)
def test_escape_search_skips_the_step_back_to_each_parent(make, g, max_depth):
    oracle = make()
    table = bfs_metric(oracle, 12)
    counted, calls = counting_steps(oracle)
    _, layers, _, witness = deadend._search(counted, table, g, max_depth)
    assert witness is None  # the search ran out of group or of depth, so it multiplied all but its last layer
    expanded = sum(map(len, layers[:-1]))
    assert len(calls) == len(oracle.generators) * expanded - (expanded - 1)


# ---------------------------------------------------------------------------
# the escape search against the table-based reference


def _assert_matches_reference(oracle, table, g, max_depth=12):
    witness = ref.escape(oracle, table, g, max_depth)
    # the table holds a whole finite group, so a search without an escape runs out of elements, not of depth
    exhausted = witness is None and not table.layers[-1] and max_depth >= table.horizon
    want = deadend.DeadEndReport(
        element=g,
        base_length=word_length(oracle, g, table),
        is_dead_end=ref.is_dead_end(oracle, table, g),
        depth=None if witness is None else len(witness),
        strict_depth=ref.strict_depth(oracle, table, g),
        witness=witness,
        group_exhausted=exhausted,
    )
    assert want.strict_depth < table.horizon  # the reference's spheres were not cut by the horizon
    assert deadend.report(oracle, table, g, max_depth) == want
    shallow = deadend.report(oracle, table, g, 1)  # the least depth bound settles both
    assert (shallow.is_dead_end, shallow.strict_depth) == (want.is_dead_end, want.strict_depth)
    if not want.is_dead_end:
        with pytest.raises(DomainError, match="not a dead end"):
            deadend.backtrack_elements(oracle, table, g, max_depth)
    elif exhausted:
        with pytest.raises(DomainError, match=f"exhausted {oracle.group_id}"):
            deadend.backtrack_elements(oracle, table, g, max_depth)
    elif witness is None:
        with pytest.raises(OutOfHorizonError, match="exceeds the bound"):
            deadend.backtrack_elements(oracle, table, g, max_depth)
    else:
        assert deadend.backtrack_elements(oracle, table, g, max_depth) == ref.backtrack_elements(
            oracle, table, g, max_depth
        )
    return want


@pytest.fixture(scope="module")
def l2_h12():
    oracle = l2_oracle()
    return oracle, bfs_metric(oracle, 12)


def test_escape_search_matches_reference_on_l2_dead_ends(l2_h12):
    oracle, table = l2_h12
    dead = [g for g in ball(table, 9) if g != oracle.identity and ref.is_dead_end(oracle, table, g)]
    assert len(dead) > 1
    for g in dead:
        assert _assert_matches_reference(oracle, table, g).is_dead_end
    for m in range(1, 6):
        assert _assert_matches_reference(oracle, table, ll_make_dm(m)).depth == 2 * m + 1


def test_escape_search_matches_reference_on_houghton_g2():
    oracle = h2_oracle()
    rep = _assert_matches_reference(oracle, bfs_metric(oracle, 12), h2_g(2))
    assert rep.is_dead_end and rep.depth == 3


@pytest.mark.parametrize("make", [make_s3, lambda: make_zn(2), lambda: make_free(2)], ids=["S3", "Z2", "F2"])
def test_escape_search_matches_reference_on_small_balls(make):
    oracle = make()
    table = bfs_metric(oracle, 6)
    for g in ball(table, 4):
        if g != oracle.identity:
            _assert_matches_reference(oracle, table, g)


def test_escape_search_evaluates_a_length_only_where_an_escape_is_possible(l2_h12):
    # with a horizon-0 table every length is a closed-form call; past the strict depth an element
    # shorter than |g| has products no longer than g, so only the products of slack-0 elements are measured
    calls = []

    def counted(x):
        calls.append(x)
        return ll_length(x)

    asked = []

    class AskedTable(MetricTable):  # a table that overrides ``distance`` sees every length the search takes
        def distance(self, element):
            asked.append(element)
            return super().distance(element)

    oracle = dataclasses.replace(l2_oracle(), closed_length=counted)
    table = bfs_metric(oracle, 0)
    table = AskedTable(table.group_id, table.horizon, table.layers, table.dist)
    d6 = ll_make_dm(6)
    _, layers, _, _ = deadend._search(oracle, table, d6, 14)
    reached = sum(map(len, layers))
    calls.clear()
    asked.clear()
    rep = deadend.report(oracle, table, d6, 14)
    assert (reached, len(calls)) == (4167, 522)
    assert asked == calls  # each off the table, so asked of the table first
    assert rep == _assert_matches_reference(oracle, l2_h12[1], d6, max_depth=14)
    assert (rep.depth, rep.strict_depth) == (13, 2)


def _lit_sites(g):
    """The lit lamp sites of an L2 or W_n element, in increasing order."""
    return [lamp if isinstance(lamp, int) else lamp[0] for lamp in g.lamps]


@pytest.mark.parametrize("group_id, radius, dead_ends", [("L2", 18, 160), ("W3", 12, 176)])
def test_lamplighter_dead_ends_and_their_depths_in_closed_form(group_id, radius, dead_ends):
    # Cleary and Taback: x = (H, q) is a dead end iff q = 0, the lamp at 0 is lit and lit lamps lie on both
    # sides of 0; its depth is 2 min(u, L, R) + 1, with -L and R the extreme lit sites and u the least |j|
    # over the unlit sites j in [-L, R] (infinite when there is none)
    oracle = get_group(group_id)
    table = bfs_metric(oracle, radius)
    want = {}
    for r in range(1, radius + 1):
        for g in sphere(table, r):
            lit = _lit_sites(g)
            if g.pos == 0 and 0 in lit and lit[0] < 0 < lit[-1]:
                L, R = -lit[0], lit[-1]
                u = min((abs(j) for j in set(range(-L, R + 1)).difference(lit)), default=inf)
                want[g] = 2 * min(u, L, R) + 1
    got = {rep.element: rep.depth for rep in deadend.scan(oracle, table, radius, 2 * radius + 3)}
    assert got == want
    assert len(got) == dead_ends
    assert sum(map(len, table.layers)) == {"L2": 85806, "W3": 44523}[group_id]


def test_strict_depth_is_not_capped_by_the_horizon():
    oracle = l2_oracle()
    d3 = ll_make_dm(3)
    # every layer of the escape search gets its lengths from the closed form
    assert deadend.report(oracle, bfs_metric(oracle, 1), d3, 12).strict_depth == 2


def test_backtracks_are_not_capped_by_the_horizon(l2_h12):
    oracle, table = l2_h12
    g = ll_make_dm(2)
    small = deadend.backtrack_elements(oracle, bfs_metric(oracle, 3), g, 12)
    assert small == deadend.backtrack_elements(oracle, table, g, 12)
    assert len(small) == 43


@pytest.mark.parametrize("bound", [12, 3, 2, 1])
def test_backtracks_of_an_element_that_exhausts_its_group(bound):
    # no element of S3 is longer than s t s, so no bound gives backtracks; below the
    # strict depth 3 the search still runs to the end of the group
    oracle = make_s3()
    with pytest.raises(DomainError, match="^the escape search exhausted S3 without reaching a longer element; "):
        deadend.backtrack_elements(oracle, bfs_metric(oracle, 3), oracle.evaluate(["s", "t", "s"]), bound)


def test_strict_depth_is_not_capped_by_max_depth():
    oracle = make_s3()
    rep = deadend.report(oracle, bfs_metric(oracle, 3), oracle.evaluate(["s", "t", "s"]), max_depth=2)
    assert rep.depth is None and rep.strict_depth == 3


@pytest.mark.parametrize("bad", [0, -3])
def test_depth_bounds_below_one_are_rejected(l2, bad):
    oracle, table = l2
    g = ll_make_dm(2)
    with pytest.raises(DomainError, match="at least 1"):
        deadend.report(oracle, table, g, bad)
    with pytest.raises(DomainError, match="at least 1"):
        deadend.backtrack_elements(oracle, table, g, bad)
    with pytest.raises(DomainError, match="at least 1"):
        deadend.scan(oracle, table, 0, bad)  # checked at the call, even for an empty scan


def test_escape_search_holds_at_most_its_budget(l2):
    # the layers of d_4 before its escape at depth 9 hold 490 elements, and those of d_1, the one dead end of B_8, 10
    oracle, table = l2
    d4 = ll_make_dm(4)
    assert deadend.report(oracle, table, d4, 9, budget=490) == deadend.report(oracle, table, d4, 9)
    backtracks = deadend.backtrack_elements(oracle, table, d4, 9)
    assert deadend.backtrack_elements(oracle, table, d4, 9, budget=490) == backtracks
    assert list(deadend.scan(oracle, table, 8, 12, budget=10)) == list(deadend.scan(oracle, table, 8, 12))
    over = "^the escape search holds more than 489 elements within depth 8; raise the budget$"
    with pytest.raises(ResourceLimitError, match=over):
        deadend.report(oracle, table, d4, 9, budget=489)
    with pytest.raises(ResourceLimitError, match=over):
        deadend.backtrack_elements(oracle, table, d4, 9, budget=489)
    with pytest.raises(ResourceLimitError, match="more than 9 elements within depth 2"):
        list(deadend.scan(oracle, table, 8, 12, budget=9))
