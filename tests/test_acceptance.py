"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criterion 2 pins the depth of the lamplighter dead ends d_m for m <= 4: the
escape depth is 2m + 1 = 3, 5, 7, 9, matching the contract of the
``depth`` field of ``deadend.report`` (least k such that some k-generator
path from g strictly exceeds |g|), and the witness path descends exactly m
times.  See the README
section "Criterion 2: the depth of d_m".
"""

from curvlab import verify


def _run(criterion_fn):
    res = criterion_fn("full")
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.cid}: {res.title} ({res.elapsed:.1f}s) - {res.details}")
    return res


def test_criterion_1_lamplighter_oracle_agreement():
    res = _run(verify.criterion_1)
    assert res.passed, res.details


def test_criterion_2_d3_dossier_and_depth_clause():
    res = _run(verify.criterion_2)
    assert res.passed, res.details


def test_criterion_3_lamplighter_positive_curvature():
    res = _run(verify.criterion_3)
    assert res.passed, res.details


def test_criterion_4_conjugation_lemmas():
    res = _run(verify.criterion_4)
    assert res.passed, res.details


def test_criterion_5_houghton():
    res = _run(verify.criterion_5)
    assert res.passed, res.details


def test_criterion_6_heisenberg_formula():
    res = _run(verify.criterion_6)
    assert res.passed, res.details


def test_criterion_7_heisenberg_signs_density():
    res = _run(verify.criterion_7)
    assert res.passed, res.details


def test_criterion_8_transport():
    res = _run(verify.criterion_8)
    assert res.passed, res.details


def test_criterion_9_strict_depth_proposition():
    res = _run(verify.criterion_9)
    assert res.passed, res.details
