"""Generator steps and conjugate lengths, each checked against ``compose`` for every built-in oracle.

Each built-in oracle but S3 passes its own fast steps: ``steps[i](x) ==
compose(x, generators[i])``.  L2, W_n, Heis and Z^n also pass
``conjugate_lengths``: its j-th length is the closed length of
``compose(compose(invert(w), g), w)`` for the j-th w.  Steps are checked
against ``compose`` exhaustively on a ball of at least 10^3 elements (S3: the
whole group), conjugate lengths on every pair of such a ball, and both with
hypothesis on elements far outside those balls, next to the group axioms that
``compose`` itself must satisfy.
"""

import dataclasses
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import literals
from curvlab.builtin import make_s3, make_zn
from curvlab.core import DomainError, ball, bfs_metric, bfs_tree, sphere
from curvlab.curvature import kappa
from curvlab.heisenberg import MalcevTriple
from curvlab.lamplighter import LampConfig, WreathConfig, ll_dm_tk
from curvlab.literals import get_group

# group id -> radius of a ball of at least 10^3 elements (S3: the whole group)
BALLS = {
    "Z1": 500, "Z2": 22, "Z3": 9, "F1": 500, "F2": 6, "F3": 5, "S3": 4,
    "L2": 10, "W2": 10, "W3": 8, "H2": 9, "Heis": 8,
}
ORACLES = {gid: get_group(gid) for gid in BALLS}
# group id -> radius of the least ball of at least 10^3 elements, for the oracles that pass conjugate_lengths
CONJUGATE_BALLS = {"Z1": 500, "Z2": 22, "Z3": 9, "L2": 10, "W3": 7, "Heis": 7}
FAR = st.integers(-(10**12), 10**12)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _products(oracle):
    """Elements composed from lists of (generator, power) pairs with ``compose`` alone."""
    return st.lists(st.tuples(st.sampled_from(oracle.generators), st.integers(1, 40)), max_size=12).map(
        lambda word: reduce(oracle.compose, (gen for gen, power in word for _ in range(power)), oracle.identity)
    )


def _lamps(states):
    """Finitely many lamps at distant indices, in the canonical sorted form."""
    return st.dictionaries(FAR, states, max_size=8).map(lambda lit: tuple(sorted(lit.items())))


def _elements(group_id):
    oracle = ORACLES[group_id]
    if group_id.startswith("Z"):
        return st.tuples(*[FAR] * len(oracle.identity))
    if group_id == "Heis":
        return st.builds(MalcevTriple, FAR, FAR, FAR)
    if group_id == "L2":
        return st.builds(LampConfig, _lamps(st.just(1)).map(lambda lit: tuple(i for i, _ in lit)), FAR)
    if group_id.startswith("W"):
        return st.builds(WreathConfig, _lamps(st.integers(1, int(group_id[1:]) - 1)), FAR)
    return _products(oracle)  # F_n, S3 and H2: products of random words


@pytest.mark.parametrize("group_id", list(BALLS))
def test_steps_equal_compose_on_a_ball(group_id):
    oracle = ORACLES[group_id]
    reference = dataclasses.replace(oracle, right_steps=None)  # steps derived from compose
    table = bfs_metric(reference, BALLS[group_id])
    assert len(table.dist) >= 1000 or (group_id == "S3" and not table.layers[-1])
    assert bfs_metric(oracle, BALLS[group_id]).layers == table.layers
    for x in ball(table, table.horizon):
        for step, gen in zip(oracle.steps, oracle.generators):
            assert step(x) == oracle.compose(x, gen)


@pytest.mark.parametrize("group_id", list(BALLS))
@SETTINGS
@given(data=st.data())
def test_steps_equal_compose_far_from_the_identity(group_id, data):
    oracle = ORACLES[group_id]
    x = data.draw(_elements(group_id))
    for step, gen in zip(oracle.steps, oracle.generators):
        product = step(x)
        assert product == oracle.compose(x, gen)
        assert type(product) is type(oracle.identity)


@pytest.mark.parametrize("group_id", list(BALLS))
@SETTINGS
@given(data=st.data())
def test_group_axioms(group_id, data):
    oracle = ORACLES[group_id]
    compose, e = oracle.compose, oracle.identity
    x, y, z = (data.draw(_elements(group_id)) for _ in range(3))
    assert compose(compose(x, y), z) == compose(x, compose(y, z))
    assert compose(e, x) == x == compose(x, e)
    assert compose(x, oracle.invert(x)) == e == compose(oracle.invert(x), x)
    assert (oracle.encode(x) == oracle.encode(y)) == (x == y)


@pytest.mark.parametrize("group_id", list(BALLS))
@SETTINGS
@given(data=st.data())
def test_elements_are_totally_ordered(group_id, data):
    # the BFS and the cache order each layer by <, which must be a total order consistent with ==
    oracle = ORACLES[group_id]
    x = data.draw(_elements(group_id))
    gen = data.draw(st.sampled_from(oracle.generators))
    equal = oracle.compose(oracle.compose(x, gen), oracle.invert(gen))  # x again, built anew
    y, z = (data.draw(st.one_of(_elements(group_id), st.just(equal))) for _ in range(2))
    for u, v in ((x, y), (y, z), (x, z)):
        assert [u < v, u == v, v < u].count(True) == 1
    if x < y < z:
        assert x < z


def test_group_oracle_checks_its_steps():
    z1 = make_zn(1)
    with pytest.raises(DomainError, match="one step per generator"):
        dataclasses.replace(z1, right_steps=z1.steps[:1])
    with pytest.raises(DomainError, match="taking the identity to that generator"):
        dataclasses.replace(z1, right_steps=z1.steps[::-1])


def test_replacing_compose_rederives_the_steps():
    s3 = make_s3()
    assert s3.right_steps is None
    calls = []

    def compose(x, y):
        calls.append((x, y))
        return s3.compose(x, y)

    counted = dataclasses.replace(s3, compose=compose)
    calls.clear()  # construction checks each step at the identity
    assert bfs_metric(counted, 3).layers == bfs_metric(s3, 3).layers
    # the BFS multiplies each element of S_0, S_1 and S_2 (1 + 2 + 2 of them) by both generators,
    # except the 4 elements past the identity by the generator back to their parent
    assert len(calls) == 2 * (1 + 2 + 2) - 4
    # explicit steps are kept: replacing compose does not slow them down
    heis = ORACLES["Heis"]
    assert dataclasses.replace(heis, compose=compose).steps == heis.steps


def _by_compose(oracle, g, w):
    return oracle.compose(oracle.compose(oracle.invert(w), g), w)


@pytest.mark.parametrize("group_id", list(BALLS))
def test_conjugate_makes_two_compose_calls(group_id):
    oracle = ORACLES[group_id]
    calls = []

    def compose(x, y):
        calls.append((x, y))
        return oracle.compose(x, y)

    counted = dataclasses.replace(oracle, compose=compose)
    pairs = [(g, w) for g in sphere(bfs_metric(oracle, 2), 2) for w in oracle.generators]
    calls.clear()  # construction checks derived steps at the identity
    assert [counted.conjugate(g, w) for g, w in pairs] == [_by_compose(oracle, g, w) for g, w in pairs]
    assert len(calls) == 2 * len(pairs)


def test_replacing_compose_keeps_conjugate_lengths():
    for group_id in CONJUGATE_BALLS:
        oracle = ORACLES[group_id]
        assert dataclasses.replace(oracle, compose=make_s3().compose).conjugate_lengths is oracle.conjugate_lengths
    # construction calls neither conjugate_lengths nor compose
    heis = ORACLES["Heis"]

    def refuse(*args):
        raise AssertionError("called at construction")

    assert dataclasses.replace(heis, compose=refuse, conjugate_lengths=refuse).conjugate_lengths is refuse


@pytest.mark.parametrize("group_id", list(CONJUGATE_BALLS))
def test_conjugate_lengths_equal_compose_on_every_pair_of_a_ball(group_id):
    oracle = ORACLES[group_id]
    table, tree = bfs_tree(oracle, CONJUGATE_BALLS[group_id])
    elements = ball(table, table.horizon)
    assert len(elements) >= 1000 and len(elements) - len(table.layers[-1]) < 1000
    n, compose, steps, length = len(oracle.steps), oracle.compose, oracle.steps, oracle.closed_length
    back = [oracle.generators[j] for j in oracle.inverses]
    for g in elements:
        # w = p s for the tree parent p of w, so w^-1 g w = s^-1 (p^-1 g p) s: one compose and one step a pair
        layer = [g]
        conjugates = [g]
        for codes in tree:
            layer = [steps[code % n](compose(back[code % n], layer[code // n])) for code in codes]
            conjugates += layer
        assert oracle.conjugate_lengths(g, elements) == list(map(length, conjugates)), g


def _one_at_a_time(oracle, g, ws):
    return [oracle.closed_length(_by_compose(oracle, g, w)) for w in ws]


@pytest.mark.parametrize("group_id", list(CONJUGATE_BALLS))
@SETTINGS
@given(data=st.data())
def test_conjugate_lengths_far_from_the_identity(group_id, data):
    oracle = ORACLES[group_id]
    g = data.draw(_elements(group_id))
    ws = data.draw(st.lists(_elements(group_id), max_size=6))
    assert oracle.conjugate_lengths(g, ws) == _one_at_a_time(oracle, g, ws)


def test_l2_conjugate_lengths_on_every_pair_of_a_ball():
    l2 = ORACLES["L2"]
    ws = ball(bfs_metric(l2, 5), 5)
    shuffled = random.Random(5).sample(ws, len(ws))
    for g in ws[1:]:
        assert l2.conjugate_lengths(g, ws) == _one_at_a_time(l2, g, ws), g
        assert l2.conjugate_lengths(g, shuffled) == _one_at_a_time(l2, g, shuffled), g
        assert l2.conjugate_lengths(g, ()) == []


@SETTINGS
@given(data=st.data())
def test_l2_conjugate_lengths_far_from_the_identity(data):
    l2 = ORACLES["L2"]
    g = data.draw(_elements("L2"))
    ws = data.draw(st.lists(_elements("L2"), max_size=6))
    # runs of equal lamps at several positions, as in a table, then the same conjugators out of order
    ws = [LampConfig(w.lamps, q) for w in ws for q in data.draw(st.lists(FAR, min_size=1, max_size=3))]
    ws += data.draw(st.permutations(ws))
    assert l2.conjugate_lengths(g, ws) == _one_at_a_time(l2, g, ws)


def test_kappa_reads_l2_conjugate_lengths_as_the_path_for_each_element():
    l2 = ORACLES["L2"]

    def refuse(*args):
        raise AssertionError("compose called")

    bulk = dataclasses.replace(l2, compose=refuse)  # kappa forms no conjugate
    one_at_a_time = dataclasses.replace(l2, conjugate_lengths=None)
    table = bfs_metric(l2, 12)
    rng = random.Random(26)
    for r in range(1, 13):
        for mode in ("sphere", "ball"):
            m = rng.randint(2, 6)
            g = ll_dm_tk(m, rng.randint(1, m - 1))
            assert kappa(bulk, table, g, r, mode) == kappa(one_at_a_time, table, g, r, mode), (g, r, mode)


WORD_LITERALS = {
    "Z2": "w: a1^3 a2^-1 a1^-1 a2^-2",
    "F2": "w: a b^-1 a^-1 b^2 a^-1",
    "L2": "w: a t a t^-1 a t^-3 a t",
    "W3": "w: s1 t s2 t^-2 s1^-1 s2^-1 t^3 s1",
    "H2": "w: s sigma s^-1 sigma s^2 sigma^-1 s^-1",
}


def test_word_literals_make_no_compose_or_invert_call(monkeypatch):
    # each letter is a generator step, and the label of an inverse letter is read through ``inverses``
    armed = []

    def refusing(oracle):
        def refuse(*args):
            if armed:
                raise AssertionError("compose or invert called")
            return oracle.compose(*args) if len(args) == 2 else oracle.invert(*args)

        return dataclasses.replace(oracle, compose=refuse, invert=refuse)

    family = literals._family
    families = {group_id: (refusing(ORACLES[group_id]), *family(group_id)[1:]) for group_id in WORD_LITERALS}
    monkeypatch.setattr(literals, "_family", families.__getitem__)
    armed.append(True)  # after construction
    for group_id, text in WORD_LITERALS.items():
        oracle = ORACLES[group_id]
        letters = []
        for token in text[2:].split():
            name, _, power = token.partition("^")
            gen = oracle.generator(name)
            letters += [oracle.invert(gen) if power.startswith("-") else gen] * abs(int(power or 1))
        assert literals.parse_element(group_id, text) == reduce(oracle.compose, letters, oracle.identity)


@pytest.mark.parametrize(
    "group_id, g, horizon",
    [("L2", ll_dm_tk(5, 2), 0), ("L2", LampConfig((-3, 1, 4), -2), 0), ("Heis", MalcevTriple(12, 3, 50), 3),
     ("W3", WreathConfig(((-2, 1), (0, 2), (3, 1)), 1), 0), ("Z3", (2, -1, 3), 0)],
    ids=["L2-d5t2", "L2-lamps", "Heis", "W3", "Z3"],
)
def test_kappa_with_conjugate_lengths_makes_no_compose_call(group_id, g, horizon):
    oracle = ORACLES[group_id]
    armed = []

    def refuse(x, y):
        if armed:
            raise AssertionError("compose called")
        return oracle.compose(x, y)

    refusing = dataclasses.replace(oracle, compose=refuse)
    reference = dataclasses.replace(oracle, conjugate_lengths=None)
    conjugators = bfs_metric(oracle, 3)
    lengths = bfs_metric(oracle, horizon)
    armed.append(True)  # after construction
    for r in (1, 2, 3):
        for mode in ("sphere", "ball"):
            assert kappa(refusing, conjugators, g, r, mode, lengths) == kappa(reference, conjugators, g, r, mode, lengths)
