import json
import random
from fractions import Fraction

import pytest
from density_reference import band_counts, census_by_length, csv_rows, density_per_element, sector_bands

from curvlab.core import DomainError, bfs_metric
from curvlab.curvature import kappa
from curvlab.heisenberg import (
    CSV_HEADER,
    MAX_DENSITY_K,
    MalcevTriple,
    SectorSpec,
    _band_counts,
    density_csv_rows,
    heis_case_label,
    heis_ceil_jump,
    heis_compose,
    heis_conjugate_deltas,
    heis_density_experiment,
    heis_invert,
    heis_kappa_exact,
    heis_length,
    heis_oracle,
    heis_sign_predict,
)

HEIS_LAYER_SIZES_B8 = (1, 4, 12, 36, 82, 164, 294, 476, 724)


def test_commutator_is_central_generator():
    a = MalcevTriple(1, 0, 0)
    b = MalcevTriple(0, 1, 0)
    c = heis_compose(heis_compose(heis_compose(heis_invert(a), heis_invert(b)), a), b)
    assert c == MalcevTriple(0, 0, 1)
    g = MalcevTriple(4, 2, 7)
    assert heis_compose(g, c) == heis_compose(c, g)


def test_conjugation_effects():
    oracle = heis_oracle()
    g = MalcevTriple(7, 3, 11)
    assert oracle.conjugate(g, MalcevTriple(0, 1, 0)) == MalcevTriple(7, 3, 18)  # +A
    assert oracle.conjugate(g, MalcevTriple(0, -1, 0)) == MalcevTriple(7, 3, 4)
    assert oracle.conjugate(g, MalcevTriple(1, 0, 0)) == MalcevTriple(7, 3, 8)  # -B
    assert oracle.conjugate(g, MalcevTriple(-1, 0, 0)) == MalcevTriple(7, 3, 14)
    # central conjugation is trivial
    c = MalcevTriple(0, 0, 1)
    assert oracle.conjugate(g, c) == g


def test_length_examples():
    assert heis_length(MalcevTriple(2, 1, 1)) == 5
    assert heis_length(MalcevTriple(5, 2, 10)) == 11
    assert heis_length(MalcevTriple(3, 1, 6)) == 8  # boundary, both branches
    assert heis_length(MalcevTriple(4, 1, 0)) == 5  # staircase word a^4 b
    with pytest.raises(DomainError, match=r"^\(1,2,3\) is outside the sector A > B > 0, C >= 0$"):
        heis_length(MalcevTriple(1, 2, 3))
    with pytest.raises(DomainError, match=r"^\(3,1,-1\) is outside the sector"):
        heis_length(MalcevTriple(3, 1, -1))


def test_branch_agreement_at_height_boundary():
    rng = random.Random(2)
    for _ in range(100):
        A = rng.randint(2, 80)
        B = rng.randint(1, A - 1)
        C = A * A - A * B
        low = 2 * (-(-C // A)) + A + B
        assert heis_length(MalcevTriple(A, B, C)) == low == 3 * A - B


def test_length_matches_bfs_with_frozen_layers():
    oracle = heis_oracle()
    table = bfs_metric(oracle, 8)
    assert table.layer_sizes() == HEIS_LAYER_SIZES_B8
    checked = 0
    for el, d in table.dist.items():
        A, B, C = el
        if A > B > 0 and C >= 0:
            assert heis_length(el) == d
            checked += 1
    assert checked > 30  # the acceptance suite repeats this on B_10
    assert table.distance(MalcevTriple(0, 0, 1)) == 4  # |[a, b]| = 4


def test_ceil_jump_examples():
    assert heis_ceil_jump(10, 2, 23, 1) == (3, 3)
    assert heis_ceil_jump(10, 2, 21, 1) == (3, 2)
    assert heis_ceil_jump(10, 2, 29, 1) == (4, 3)
    with pytest.raises(DomainError, match="^A = 10 divides C = 20$"):
        heis_ceil_jump(10, 2, 20, 1)
    with pytest.raises(DomainError, match=r"^case formula needs B\*t <= A, got B\*t = 12 > A = 5$"):
        heis_ceil_jump(5, 4, 21, 3)  # B*t > A: the two-branch form does not apply


def test_ceil_jump_sweep():
    for A in range(2, 30):
        for B in range(1, A):
            for t in (1, 2, 3):
                if B * t > A:
                    continue
                for s in range(1, A):
                    heis_ceil_jump(A, B, 7 * A + s, t)  # raises on disagreement


def test_case_labels_partition():
    for A in (10, 17):
        for B in (1, 2, 3):
            for t in (1, 2):
                if 2 * B * t > A:
                    continue
                labels = [heis_case_label(A, B, s, t) for s in range(1, A)]
                assert set(labels) <= {"X", "Y", "Z", "boundary"}
                assert labels.count("boundary") <= 2
                # X block, then Y block, then Z block
                stripped = [l for l in labels if l != "boundary"]
                assert stripped == sorted(stripped, key="XYZ".index)


def test_sector_spec():
    spec = SectorSpec(1)
    assert spec.admits(MalcevTriple(10, 2, 30))
    assert not spec.admits(MalcevTriple(10, 2, 5))  # C < A*r margin
    assert not spec.admits(MalcevTriple(10, 9, 30))  # band and gap violated
    assert not spec.admits(MalcevTriple(10, 2, 75))  # above the low-height margin
    assert heis_length(MalcevTriple(10, 2, 30)) == 18
    assert SectorSpec(1, k=15).admits(MalcevTriple(10, 2, 30)) is False  # length 18 > 15
    assert SectorSpec(1, k=18).admits(MalcevTriple(10, 2, 30)) is True


def test_sign_prediction_matches_exact_kappa():
    deltas = {r: heis_conjugate_deltas(r) for r in (1, 2)}
    for r in (1, 2):
        spec = SectorSpec(r)
        checked = 0
        for A in range(5 * r, 40):
            for B in range(1, A):
                for C in range(A * r, A * A - A * B - A * r + 1):
                    g = MalcevTriple(A, B, C)
                    if not spec.admits(g):
                        continue
                    predicted = heis_sign_predict(g, r)
                    if predicted == "mixed":
                        continue
                    kap = heis_kappa_exact(g, deltas[r])
                    sign = "+" if kap > 0 else ("-" if kap < 0 else "0")
                    assert predicted == sign, (g, predicted, kap)
                    checked += 1
        assert checked > 100


def test_kappa_exact_agrees_with_curvature_module():
    # the fast delta path must match the generic conjugate-average
    oracle = heis_oracle()
    table = bfs_metric(oracle, 2)
    deltas = heis_conjugate_deltas(2)
    for g in (MalcevTriple(12, 2, 40), MalcevTriple(15, 3, 60), MalcevTriple(20, 2, 100)):
        assert SectorSpec(2).admits(g)
        rep = kappa(oracle, table, g, 2, "sphere")
        assert rep.kappa == heis_kappa_exact(g, deltas)


def test_b_conjugation_pairs_cancel():
    # summed length change of b and b^-1 conjugation vanishes in the margin sector
    oracle = heis_oracle()
    for g in (MalcevTriple(10, 2, 30), MalcevTriple(9, 2, 40)):
        assert SectorSpec(1).admits(g)
        base = heis_length(g)
        up = heis_length(oracle.conjugate(g, MalcevTriple(0, 1, 0)))
        down = heis_length(oracle.conjugate(g, MalcevTriple(0, -1, 0)))
        assert (up - base) + (down - base) == 0


def test_density_experiment_small():
    rep = heis_density_experiment(40, 1)
    assert rep.all_signs_present()
    assert not rep.mismatches
    assert rep.band_fractions_ok()
    assert sum(rep.sign_counts.values()) == sum(rep.predicted_counts.values())
    payload = rep.to_json_dict()
    assert payload["all_signs_present"] is True
    assert payload["band_threshold"] == "1/5"


def test_density_csv_rows():
    rows = list(density_csv_rows(25, 1))
    assert rows
    assert len(rows) == sum(heis_density_experiment(25, 1).sign_counts.values())
    for row in rows[:50]:
        assert len(row) == len(CSV_HEADER)
        assert row[CSV_HEADER.index("length")] <= 25
        assert Fraction(row[CSV_HEADER.index("kappa")]) is not None


def test_density_errors():
    with pytest.raises(DomainError, match="^the radius-1 sector is empty within length 2$"):
        heis_density_experiment(2, 1)
    with pytest.raises(DomainError, match="^the radius-2 sector is empty within length 11$"):
        heis_density_experiment(11, 2)  # k > 2r but the margin sector is empty
    for r in (0, -1):
        with pytest.raises(DomainError, match="radius must be at least 1"):
            heis_density_experiment(25, r)
    with pytest.raises(DomainError, match=str(MAX_DENSITY_K)):
        heis_density_experiment(MAX_DENSITY_K + 1, 1)
    # the row function checks its arguments at the call, before any row is asked for
    for k, r, phrase in ((2, 1, "sector is empty"), (11, 2, "sector is empty"), (25, 0, "radius must be at least 1"),
                         (MAX_DENSITY_K + 1, 1, f"is at most {MAX_DENSITY_K}")):
        with pytest.raises(DomainError, match=phrase):
            density_csv_rows(k, r)


REFERENCE_K = {1: 60, 2: 60, 3: 70}


@pytest.mark.parametrize("r", sorted(REFERENCE_K))
def test_density_sweep_matches_the_per_element_reference(r):
    # one kappa per residue class C mod A must reproduce a heis_kappa_exact call per element
    full = density_per_element(REFERENCE_K[r], r)
    direct = density_per_element(30, r)
    compared = 0
    for k, want in census_by_length(full, 2 * r + 1):
        if k == 30:
            assert csv_rows(want[1]) == csv_rows(direct[1])
        if want is None:
            with pytest.raises(DomainError, match="sector is empty"):
                heis_density_experiment(k, r)
            continue
        want_report, want_records = want
        got = heis_density_experiment(k, r)
        assert json.dumps(got.to_json_dict()) == json.dumps(want_report.to_json_dict()), k
        assert got.mismatches == want_report.mismatches, k
        if k <= 45:
            assert list(density_csv_rows(k, r)) == csv_rows(want_records), k
        compared += 1
    assert compared == REFERENCE_K[r] - 7 * r  # the shortest sector element, (5r, 1, 5r^2), has length 7r + 1


def test_band_fraction_worst_case():
    # B = 1 bands only reach the 1/(5r) share with endpoint-inclusive counting
    rep = heis_density_experiment(40, 1)
    rows = {(row.A, row.B): row for row in rep.band_rows}
    assert (5, 1) in rows
    x, y, z = rows[(5, 1)].fractions()
    assert x == Fraction(1, 4) and z == Fraction(1, 4)
    assert min(x, y, z) >= Fraction(1, 5)


def test_band_counts_closed_form_matches_the_remainder_scan():
    # every band of every nonempty census with k <= MAX_DENSITY_K and r <= 7
    checked = 0
    for r in range(1, 8):
        bands = {(A, B) for k in range(2 * r + 1, MAX_DENSITY_K + 1) for A, B, _, _ in sector_bands(k, r)}
        assert bands
        for A, B in sorted(bands):
            assert _band_counts(A, B, r) == band_counts(A, B, r), (A, B, r)
            checked += 1
    assert checked > 1000
