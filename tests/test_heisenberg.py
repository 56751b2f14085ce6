import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from density_reference import band_counts, census_by_length, csv_rows, density_per_element, sector_bands

from curvlab import heisenberg
from curvlab.core import DomainError, bfs_metric
from curvlab.curvature import kappa
from curvlab.heisenberg import (
    CSV_HEADER,
    MAX_DENSITY_K,
    MalcevTriple,
    SectorSpec,
    _band_counts,
    _class_table,
    _classify,
    _sector_bands,
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
    assert heis_length(MalcevTriple(1, 2, 3)) == 7  # B > A: folds to (2, 1, 3)
    assert heis_length(MalcevTriple(3, 1, -1)) == 4  # C < 0: the staircase a a b a


@pytest.mark.parametrize(
    "g, length",
    [
        # A = B: the low branch is empty, so every positive height is on the high one
        ((2, 2, 0), 4), ((2, 2, -4), 4), ((2, 2, 1), 6), ((3, 3, 4), 10), ((3, 3, -5), 6),
        # B = 0: the low branch ends at C = A^2
        ((4, 0, 0), 4), ((4, 0, 1), 6), ((4, 0, 16), 12), ((4, 0, 17), 14), ((4, 0, -3), 6),
        # A = 0: powers of the commutator c, and the b-axis
        ((0, 0, 1), 4), ((0, 0, 2), 6), ((0, 0, -1), 4), ((0, 0, -2), 6), ((0, 0, 9), 12), ((0, 3, 0), 3), ((0, 3, 2), 5),
        # each sign of A, B and 2C + AB
        ((5, 2, 3), 9), ((-5, 2, 3), 7), ((5, -2, 3), 7), ((-5, -2, 3), 9),
        ((5, 2, -3), 7), ((5, 2, -8), 7), ((-5, 2, -3), 9), ((2, 5, 3), 9), ((-7, 3, -20), 16),
    ],
)
def test_length_at_the_boundaries_of_the_normalisation(g, length):
    assert heis_length(MalcevTriple(*g)) == length


def test_length_is_invariant_under_the_symmetries_it_folds_by():
    # the swap a <-> b and the flip a -> a^-1 are automorphisms, inversion an anti-automorphism; all preserve S
    def swap(g):
        return MalcevTriple(g.b, g.a, -g.c - g.a * g.b)

    def flip(g):
        return MalcevTriple(-g.a, g.b, -g.c)

    table = bfs_metric(heis_oracle(), 6)
    for x in table.dist:
        for y in table.layers[1]:
            assert swap(heis_compose(x, y)) == heis_compose(swap(x), swap(y))
            assert flip(heis_compose(x, y)) == heis_compose(flip(x), flip(y))
        orbit = {x}
        while True:
            grown = orbit | {f(g) for g in orbit for f in (swap, flip, heis_invert)}
            if grown == orbit:
                break
            orbit = grown
        signs = {(g.a > 0, g.b > 0, 2 * g.c + g.a * g.b > 0) for g in orbit}
        assert {heis_length(g) for g in orbit} == {table.dist[x]}
        assert len(signs) == 8 or 0 in (x.a, x.b, 2 * x.c + x.a * x.b)


def test_length_matches_bfs_on_every_element_of_b30():
    table = bfs_metric(heis_oracle(), 30)
    assert len(table.dist) == 345_149
    assert [el for el, d in table.dist.items() if heis_length(el) != d] == []


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
    assert all(oracle.closed_length(el) == d for el, d in table.dist.items())  # the acceptance suite repeats this on B_10
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
    assert not spec.admits(MalcevTriple(2, 5, 1))  # B > A
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
    # one kappa per run of remainders C mod A must reproduce a heis_kappa_exact call per element
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


@pytest.mark.parametrize("r", [1, 2, 3])
def test_every_band_is_exactly_its_admitted_row(r):
    # the interval lemma behind the per-band sector check, element by element at the largest census
    spec = SectorSpec(r, MAX_DENSITY_K)
    for A, B, c_lo, c_hi in _sector_bands(MAX_DENSITY_K, r):
        assert all(spec.admits(MalcevTriple(A, B, C)) for C in range(c_lo, c_hi + 1)), (A, B)
        assert not spec.admits(MalcevTriple(A, B, c_lo - 1)) and not spec.admits(MalcevTriple(A, B, c_hi + 1)), (A, B)


def test_a_band_that_is_not_its_admitted_row_is_refused():
    # the check raises instead of asserting, so python -O keeps it
    A, B, c_lo, c_hi = _sector_bands(40, 1)[0]
    for band in ((A, B, c_lo + 1, c_hi), (A, B, c_lo, c_hi + 1)):
        with pytest.raises(ArithmeticError, match=re.escape(f"band {band} is not the admitted interval of its row")):
            next(_class_table(40, 1, [band]))


def _class_pairs(r):
    """(A, B, C, cls) for every remainder C = c_lo .. c_lo + top - 1 of every band at the largest census, from its run."""
    for A, B, c_lo, _, runs in _class_table(MAX_DENSITY_K, r, _sector_bands(MAX_DENSITY_K, r)):
        for s0, s1, cls in runs:
            for C in range(c_lo + s0, c_lo + s1):
                yield A, B, C, cls


@pytest.mark.parametrize("r, classes", [(1, 49_372), (2, 33_688), (3, 24_239)])
def test_class_numerators_match_the_conjugate_lengths(r, classes):
    # the low-branch ceiling sum of every residue class of every band at the largest census
    # against n*|g| - sum |g^w| from heis_length, the conjugates of equal (alpha, beta) counted once each
    weights = Counter(heis_conjugate_deltas(r))
    n = sum(weights.values())
    checked = 0
    for A, B, C, cls in _class_pairs(r):
        want = n * heis_length(MalcevTriple(A, B, C)) - sum(
            m * heis_length(MalcevTriple(A, B, C + A * beta - alpha * B)) for (alpha, beta), m in weights.items()
        )
        assert (cls.numerator, cls.n) == (want, n), (A, B, C)
        checked += 1
    assert checked == classes


@pytest.mark.parametrize("r", [1, 2, 3])
def test_class_labels_match_the_classification_of_each_remainder(r):
    # each run of remainders is classified once, at its first remainder
    for A, B, C, cls in _class_pairs(r):
        assert (cls.labels, cls.predicted) == _classify(A, B, C % A, r), (A, B, C)
        assert cls.sign == {1: "+", 0: "0", -1: "-"}[(cls.numerator > 0) - (cls.numerator < 0)], (A, B, C)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_runs_tile_each_band_and_stay_within_the_cut_bound(r):
    # the runs lemma: every shift cut (-D mod A) + 1 is a cut, and at most 2 + 4r runs cover 0 .. top - 1 in order
    deltas = heis_conjugate_deltas(r)
    for A, B, c_lo, c_hi, runs in _class_table(MAX_DENSITY_K, r, _sector_bands(MAX_DENSITY_K, r)):
        top = min(A, c_hi - c_lo + 1)
        cuts = {s0 for s0, _, _ in runs} | {top}
        assert {cut for alpha, beta in deltas if (cut := -(A * beta - alpha * B) % A + 1) <= top} <= cuts, (A, B)
        assert len(runs) <= 2 + 4 * r, (A, B)
        assert [s0 for s0, _, _ in runs] == [0] + [s1 for _, s1, _ in runs[:-1]], (A, B)
        assert all(s0 < s1 for s0, s1, _ in runs) and runs[-1][1] == top, (A, B)


@pytest.mark.parametrize("r, signs, predicted", [
    (1, {"+": 189_116, "0": 273_029, "-": 189_967}, {"+": 176_868, "0": 260_781, "-": 176_868, "mixed": 37_595}),
    (2, {"+": 135_674, "0": 187_321, "-": 136_197}, {"+": 59_823, "0": 179_307, "-": 59_823, "mixed": 160_239}),
    (3, {"+": 96_054, "0": 131_858, "-": 96_415}, {"+": 26_519, "0": 126_359, "-": 26_519, "mixed": 144_930}),
])
def test_largest_census_tallies_are_pinned(r, signs, predicted):
    # the tallies at the largest admitted k, as the census by residue class gave them
    rep = heis_density_experiment(MAX_DENSITY_K, r)
    assert (rep.sign_counts, rep.predicted_counts, rep.mismatches) == (signs, predicted, [])


@pytest.mark.parametrize("k, r", [(30, 1), (36, 2)])
def test_mispredicted_classes_expand_into_every_member(monkeypatch, k, r):
    # swap the X and Z labels, so every pure X or Z class predicts the sign opposite to its exact one
    case_label = heisenberg.heis_case_label

    def swapped(A, B, s, t):
        label = case_label(A, B, s, t)
        return {"X": "Z", "Z": "X"}.get(label, label)

    monkeypatch.setattr(heisenberg, "heis_case_label", swapped)
    got = heis_density_experiment(k, r)
    want = density_per_element(k, r)[0]  # reaches the swapped labels through heis_sign_predict
    assert len(got.mismatches) > 100
    assert got.mismatches == want.mismatches
    assert got.mismatches == sorted(got.mismatches)
    assert got.to_json_dict() == want.to_json_dict()


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
