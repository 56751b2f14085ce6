"""Tests of the benchmark's own output checks: each must fail on a deliberately wrong result.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every test passes, 1 otherwise.  The functions are plain
``test_*`` functions, so ``python -m pytest perfbench/selftest.py`` runs
them too.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from curvlab import bfs_metric, kappa, l2_oracle, make_zn  # noqa: E402
from curvlab.core import MetricTable  # noqa: E402
from curvlab.lamplighter import ll_dm_tk  # noqa: E402
from curvlab.transport import MeasureSpec, transport_distance  # noqa: E402


def _l2_table(horizon=6):
    return l2_oracle(), bfs_metric(l2_oracle(), horizon)


def _move_to_next_layer(table, r):
    """The table with the first element of layer r moved into layer r + 1."""
    layers = [list(layer) for layer in table.layers]
    el = layers[r].pop(0)
    layers[r + 1].append(el)
    dist = dict(table.dist)
    dist[el] = r + 1
    return MetricTable(table.group_id, table.horizon, tuple(tuple(l) for l in layers), dist)


def test_word_metric_accepts_a_bfs_table():
    oracle, table = _l2_table()
    assert checks.check_word_metric(oracle, table) == []
    assert checks.check_lengths(table, oracle.closed_length) == []


def test_word_metric_rejects_an_element_in_the_wrong_layer():
    oracle, table = _l2_table()
    bad = _move_to_next_layer(table, 3)
    assert checks.check_word_metric(oracle, bad)
    assert checks.check_lengths(bad, oracle.closed_length)


def test_layer_sizes_reject_a_missing_element():
    zn = make_zn(3)
    table = bfs_metric(zn, 5)
    assert checks.check_layer_sizes(table, lambda r: checks.zn_sphere_size(3, r)) == []
    layers = list(table.layers)
    dropped = layers[5][0]
    layers[5] = layers[5][1:]
    dist = {k: v for k, v in table.dist.items() if k != dropped}
    bad = MetricTable(table.group_id, table.horizon, tuple(layers), dist)
    assert checks.check_layer_sizes(bad, lambda r: checks.zn_sphere_size(3, r))


def test_tables_equal_rejects_a_load_that_drops_an_element():
    _, table = _l2_table()
    assert checks.check_tables_equal(table, table) == []
    layers = list(table.layers)
    dropped = layers[4][-1]
    layers[4] = layers[4][:-1]
    dist = {k: v for k, v in table.dist.items() if k != dropped}
    loaded = MetricTable(table.group_id, table.horizon, tuple(layers), dist)
    assert checks.check_tables_equal(table, loaded)


def _z2_result():
    zn = make_zn(2)
    table = bfs_metric(zn, 8)
    return transport_distance(zn, table, MeasureSpec((1, 1), zn.identity, "sphere", 2))


def test_transport_accepts_the_program_result():
    res = _z2_result()
    assert len(res.permutations) > 1
    assert checks.check_transport(res, 1000) == []


def test_transport_rejects_a_repeated_permutation():
    res = _z2_result()
    perms = (res.permutations[0],) + res.permutations
    assert checks.check_transport(dataclasses.replace(res, permutations=perms), 1000)


def test_transport_rejects_a_non_optimal_permutation():
    res = _z2_result()
    n = len(res.cost)
    best = set(res.permutations)
    worse = next(
        p for p in ([(i + s) % n for i in range(n)] for s in range(n)) if tuple(p) not in best
    )
    cost = checks.plan_cost(res.cost, worse)
    bad = dataclasses.replace(res, permutations=(tuple(worse),), t1=Fraction(cost, n), identity_optimal=False)
    # The negative-cycle certificate alone catches it, without the brute force.
    assert any("negative cycle" in m for m in checks.check_transport(bad, 1000, brute_force_max=0))
    assert checks.check_transport(bad, 1000)


def test_kappa_rejects_a_value_off_by_one_over_the_sphere_size():
    oracle, table = _l2_table()
    g = ll_dm_tk(3, 1)
    rep = kappa(oracle, table, g, 2, "sphere", bfs_metric(oracle, 0))
    spheres = checks.own_spheres(oracle, 2)
    assert checks.check_kappa(rep, g, 2, spheres[2], checks.l2_len, oracle) == []
    bad = dataclasses.replace(rep, kappa=rep.kappa + Fraction(1, len(spheres[2])))
    assert checks.check_kappa(bad, g, 2, spheres[2], checks.l2_len, oracle)


def test_cli_check_rejects_a_wrong_length_of_d3():
    from wl_cli import Cli

    cli = Cli(0, os.path.join(HERE, "out", "selftest"))
    call = next(c for c in cli._calls() if c.sub == "length" and "d(3)" in c.argv)
    assert call.check({"length": 19}) == []
    assert call.check({"length": 18})


def test_sector_count_matches_the_density_sweep():
    from curvlab import heis_density_experiment

    rep = heis_density_experiment(30, 1)
    assert checks.check_density(rep, 30, 1) == []
    assert checks.check_density(rep, 31, 1)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
