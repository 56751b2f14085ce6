"""Generator steps: ``steps[i](x) == compose(x, generators[i])`` for every built-in oracle.

Each built-in oracle but S3 passes its own fast steps.  They are checked
against ``compose`` exhaustively on a ball of at least 10^3 elements (S3: the
whole group), and with hypothesis on elements far outside those balls, next
to the group axioms that ``compose`` itself must satisfy.
"""

import dataclasses
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.builtin import make_s3, make_zn
from curvlab.core import DomainError, ball, bfs_metric
from curvlab.heisenberg import MalcevTriple
from curvlab.lamplighter import LampConfig, WreathConfig
from curvlab.literals import get_group

# group id -> radius of a ball of at least 10^3 elements (S3: the whole group)
BALLS = {
    "Z1": 500, "Z2": 22, "Z3": 9, "F1": 500, "F2": 6, "F3": 5, "S3": 4,
    "L2": 10, "W2": 10, "W3": 8, "H2": 9, "Heis": 8,
}
ORACLES = {gid: get_group(gid) for gid in BALLS}
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
    # the BFS multiplies each element of S_0, S_1 and S_2 (1 + 2 + 2 of them) by both generators
    assert len(calls) == 2 * (1 + 2 + 2)
    # explicit steps are kept: replacing compose does not slow them down
    heis = ORACLES["Heis"]
    assert dataclasses.replace(heis, compose=compose).steps == heis.steps
