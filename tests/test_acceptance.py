"""Acceptance suite: every criterion of ``curvlab verify`` at both tiers, through the CLI's runner.

Each test prints the criterion's pass/fail line (``pytest -s`` shows it).
Criterion 2 pins the depth of the lamplighter dead ends d_m for m <= 4: the
escape depth is 2m + 1 = 3, 5, 7, 9, matching the contract of the
``depth`` field of ``deadend.report`` (least k such that some k-generator
path from g strictly exceeds |g|), and the witness path descends exactly m
times.  See the README
section "Criterion 2: the depth of d_m".
"""

import pytest

from curvlab import verify
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
