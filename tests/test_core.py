import dataclasses
import random

import pytest
from bfs_reference import naive_ball

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import (
    DomainError,
    OutOfHorizonError,
    ResourceLimitError,
    ball,
    bfs_metric,
    bfs_tree,
    sphere,
    word_length,
)
from curvlab.heisenberg import heis_oracle
from curvlab.houghton import h2_oracle
from curvlab.lamplighter import l2_oracle, zn_wreath_oracle
from curvlab.literals import get_group

ALL_ORACLES = [make_zn(2), make_free(2), make_s3(), l2_oracle(), h2_oracle(), heis_oracle(), zn_wreath_oracle(3)]


BUILTIN_IDS = ["Z1", "Z2", "Z3", "F1", "F2", "F3", "S3", "L2", "W2", "W3", "H2", "Heis"]


def test_group_oracle_rejects_bad_generating_sets():
    z1 = make_zn(1)
    assert dataclasses.replace(z1, labels=("x", "X")).generator("X") == (-1,)
    with pytest.raises(DomainError, match="nonempty"):
        dataclasses.replace(z1, labels=(), generators=())
    with pytest.raises(DomainError, match="distinct"):
        dataclasses.replace(z1, labels=("a1", "a1"))
    with pytest.raises(DomainError, match="one label per generator"):
        dataclasses.replace(z1, labels=("a1", "a1^-1", "b1"))
    with pytest.raises(DomainError, match="closed under inversion"):
        dataclasses.replace(z1, labels=("a1",), generators=((1,),))


@pytest.mark.parametrize("group_id", BUILTIN_IDS)
def test_builtin_generating_sets_are_labelled_and_symmetric(group_id):
    oracle = get_group(group_id)
    gens = oracle.generators
    assert len(oracle.labels) == len(set(oracle.labels)) == len(gens) == len(set(gens))
    # invert permutes the generators, and is an involution on them
    images = [gens.index(oracle.invert(gen)) for gen in gens]
    assert sorted(images) == list(range(len(gens)))
    assert all(images[images[i]] == i for i in range(len(gens)))


def test_free_group_sphere_sizes():
    table = bfs_metric(make_free(2), 3)
    # reduced words: 4 * 3^(r-1)
    assert table.layer_sizes() == (1, 4, 12, 36)


def test_z2_sphere_is_diamond():
    table = bfs_metric(make_zn(2), 4)
    assert [len(sphere(table, r)) for r in range(5)] == [1, 4, 8, 12, 16]


def test_l2_sphere_two():
    oracle = l2_oracle()
    table = bfs_metric(oracle, 2)
    expected = {
        oracle.evaluate(w)
        for w in (["a", "t"], ["t", "a"], ["t", "t"], ["a", "t^-1"], ["t^-1", "a"], ["t^-1", "t^-1"])
    }
    assert set(sphere(table, 2)) == expected
    assert len(expected) == 6


def test_sphere_ball_radius_zero():
    oracle = make_zn(2)
    table = bfs_metric(oracle, 2)
    assert sphere(table, 0) == (oracle.identity,)
    assert ball(table, 0) == (oracle.identity,)
    assert len(ball(table, 2)) == 1 + 4 + 8


def test_out_of_horizon_errors():
    oracle = make_s3()
    table = bfs_metric(oracle, 1)
    with pytest.raises(OutOfHorizonError):
        sphere(table, 2)
    with pytest.raises(OutOfHorizonError):
        word_length(oracle, oracle.evaluate(["s", "t"]), table)


def test_word_length_identity_and_closed_form():
    oracle = make_zn(3)
    table = bfs_metric(oracle, 1)
    assert word_length(oracle, oracle.identity, table) == 0
    # out of horizon but covered by the closed form
    assert word_length(oracle, (4, -5, 6), table) == 15


def test_budget_error():
    with pytest.raises(ResourceLimitError):
        bfs_metric(make_free(2), 5, budget=20)


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_bfs_tree_is_the_naive_ball_with_least_generator_steps(oracle):
    table, steps = bfs_tree(oracle, 4)
    assert (table.layers, table.dist) == naive_ball(oracle, 4)
    assert bfs_metric(oracle, 4) == table
    gens = oracle.generators
    for r in range(1, 5):
        prev = table.layers[r - 1]
        assert len(steps[r - 1]) == len(table.layers[r])
        for el, code in zip(table.layers[r], steps[r - 1]):
            p, i = divmod(code, len(gens))
            assert oracle.compose(prev[p], gens[i]) == el
            assert not any(oracle.compose(el, oracle.invert(gens[j])) in prev for j in range(i))


def test_bfs_determinism():
    t1 = bfs_metric(l2_oracle(), 5)
    t2 = bfs_metric(l2_oracle(), 5)
    assert t1.layers == t2.layers


def test_layers_reachable_from_previous():
    oracle = h2_oracle()
    table = bfs_metric(oracle, 4)
    for r in range(1, 5):
        prev = set(sphere(table, r - 1))
        for el in sphere(table, r):
            assert any(
                oracle.compose(el, gen) in prev for gen in oracle.generators
            ), el


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_oracle_group_laws(oracle):
    rng = random.Random(42)
    table = bfs_metric(oracle, 4)
    pool = ball(table, 4)
    for _ in range(60):
        x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert oracle.compose(oracle.compose(x, y), z) == oracle.compose(x, oracle.compose(y, z))
        assert oracle.invert(oracle.invert(x)) == x
        assert oracle.compose(x, oracle.invert(x)) == oracle.identity
        assert oracle.compose(oracle.identity, x) == x == oracle.compose(x, oracle.identity)


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_encode_injective_and_decodes(oracle):
    # no oracle decodes keys; injectivity is what lets a key stand for its element
    elements = ball(bfs_metric(oracle, 3), 3)
    keys = {oracle.encode(el) for el in elements}
    assert len(keys) == len(set(elements)) == len(elements)


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_encode_equal_for_equal_words(oracle):
    # compose random words two ways; equal elements must encode equally
    rng = random.Random(7)
    labels = oracle.labels
    for _ in range(40):
        word = [labels[rng.randrange(len(labels))] for _ in range(6)]
        cut = rng.randrange(1, 6)
        left = oracle.evaluate(word[:cut])
        right = oracle.evaluate(word[cut:])
        assert oracle.encode(oracle.compose(left, right)) == oracle.encode(oracle.evaluate(word))


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_triangle_inequality(oracle):
    rng = random.Random(3)
    table = bfs_metric(oracle, 4)
    pool = ball(table, 2)

    def dist(x, y):
        return word_length(oracle, oracle.compose(oracle.invert(x), y), table)

    for _ in range(50):
        x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert dist(x, z) <= dist(x, y) + dist(y, z)


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.group_id)
def test_sphere_sizes_basepoint_independent(oracle):
    # translating a layer by a fixed element keeps it a set of the same size,
    # disjoint from the translates of the other layers (vertex-transitivity)
    rng = random.Random(11)
    table = bfs_metric(oracle, 3)
    pool = ball(table, 2)
    for _ in range(5):
        h = pool[rng.randrange(len(pool))]
        translated = [
            {oracle.encode(oracle.compose(h, w)) for w in sphere(table, r)} for r in range(4)
        ]
        for r, layer in enumerate(translated):
            assert len(layer) == len(sphere(table, r))
            for s in range(r):
                assert not layer & translated[s]
