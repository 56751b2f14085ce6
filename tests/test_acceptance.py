"""Acceptance suite: every criterion of ``curvlab verify`` at both tiers, through the CLI's runner.

Each test prints the criterion's pass/fail line (``pytest -s`` shows it).
Criterion 2 pins the depth of the lamplighter dead ends d_m for m <= 4: the
escape depth is 2m + 1 = 3, 5, 7, 9, matching the contract of the
``depth`` field of ``deadend.report`` (least k such that some k-generator
path from g strictly exceeds |g|), and the witness path descends exactly m
times.  See the README
section "Criterion 2: the depth of d_m".
"""

import dataclasses

import pytest

from curvlab import deadend, verify
from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import ball, bfs_metric
from curvlab.houghton import h2_g
from curvlab.lamplighter import l2_oracle


@pytest.mark.parametrize("tier", ["fast", "full"])
@pytest.mark.parametrize("criterion", verify.CRITERIA, ids=lambda criterion: str(criterion[0]))
def test_criterion(criterion, tier):
    res = verify.run_criterion(*criterion, tier)
    assert res.passed, res.details


def test_strict_depth_criterion_counts_its_pairs_and_fails_on_none(monkeypatch):
    _, notes = verify.criterion_9("full")
    assert notes[0].startswith("kappa_r >= 0 on 7 (element, r) pairs")
    # d_1, the only dead end in L2 B_7, has strict depth 1: no kappa_r to check
    monkeypatch.setattr(verify, "STRICT_DEPTH_BALLS", ((l2_oracle, 7),))
    failures, notes = verify.criterion_9("full")
    assert failures == ["no dead end of strict depth 2 or more, so no kappa_r was checked"]
    assert notes == ["kappa_r >= 0 on 0 (element, r) pairs with r below the strict depth in L2 B_7"]


@pytest.mark.parametrize("tier, radius, count", [("fast", 2, 96), ("full", 3, 335)])
def test_transport_criterion_measures_every_element_of_its_balls(monkeypatch, tier, radius, count):
    # kappa* >= kappa_1 is checked at every nonidentity g of B_radius in six groups, not at a sample of them
    measured = set()
    transport_distance = verify.transport_distance

    def recording(oracle, table, spec, **kwargs):
        if spec.x == oracle.identity:
            measured.add((oracle.group_id, spec.y))
        return transport_distance(oracle, table, spec, **kwargs)

    monkeypatch.setattr(verify, "transport_distance", recording)
    assert verify.criterion_8(tier)[0] == []
    groups = [make_zn(1), make_zn(2), make_zn(3), make_free(2), make_free(3), make_s3()]
    expected = {(o.group_id, g) for o in groups for g in ball(bfs_metric(o, radius), radius) if g != o.identity}
    assert len(expected) == count
    assert expected <= measured


@pytest.mark.parametrize("tier", ["fast", "full"])
def test_houghton_criterion_checks_the_dead_end_g2_at_both_tiers(monkeypatch, tier):
    report = deadend.report

    def g2_escapes(oracle, table, g, max_depth, **kwargs):
        rep = report(oracle, table, g, max_depth, **kwargs)
        return dataclasses.replace(rep, is_dead_end=False) if g == h2_g(2) else rep

    monkeypatch.setattr(deadend, "report", g2_escapes)
    failures, notes = verify.criterion_5(tier)
    assert failures == ["g_2 is not a dead end"]
    assert notes == ["|B_12| = 8064"]
