"""The Heisenberg density sweep computed element by element, for checking the library's sweep against.

Every sector element gets its own ``heis_kappa_exact`` and ``heis_sign_predict``
call; nothing is shared between elements of one residue class C mod A.
"""

from fractions import Fraction

from curvlab.heisenberg import (
    DensityReport,
    MalcevTriple,
    SectorElementRecord,
    SectorSpec,
    _band_counts,
    heis_case_label,
    heis_conjugate_deltas,
    heis_kappa_exact,
    heis_length,
    heis_sign_predict,
)


def _ceildiv(p, q):
    return -(-p // q)


def density_per_element(k, r, *, keep_elements=False):
    """The DensityReport of ``heis_density_experiment(k, r)``; None when the sector is empty."""
    deltas = heis_conjugate_deltas(r)
    report = DensityReport(r=r, k=k, threshold=Fraction(1, 5 * r))
    report.sign_counts = {"+": 0, "0": 0, "-": 0}
    report.predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    spec = SectorSpec(r, k)
    found_any = False
    for A in range(5 * r, k):
        for B in range(max(1, _ceildiv(A, 5 * r)), (2 * A) // (5 * r) + 1):
            if A - B < 2 * r:
                continue
            max_ceil = (k - A - B) // 2
            if max_ceil < r:
                continue
            c_hi = min(A * max_ceil, A * A - A * B - A * r)
            c_lo = A * r
            if c_hi < c_lo:
                continue
            report.band_rows.append(_band_counts(A, B, r))
            for C in range(c_lo, c_hi + 1):
                g = MalcevTriple(A, B, C)
                assert spec.admits(g)
                found_any = True
                s = C % A
                kap = heis_kappa_exact(g, deltas)
                sign = "+" if kap > 0 else ("-" if kap < 0 else "0")
                report.sign_counts[sign] += 1
                if s == 0:
                    predicted = "mixed"
                    labels = ("degenerate",)
                else:
                    labels = tuple(heis_case_label(A, B, s, t) for t in range(1, r + 1))
                    predicted = heis_sign_predict(g, r)
                report.predicted_counts[predicted] += 1
                if predicted in "+0-" and predicted != sign:
                    report.mismatches.append((g, predicted, sign))
                if keep_elements:
                    report.elements.append(SectorElementRecord(g, heis_length(g), s, labels, predicted, kap))
    return report if found_any else None


def restrict_to_length(report, k):
    """The report of the same sweep at word length k <= report.k, from its kept elements; None when empty.

    The sweep at k visits exactly the elements of the sweep at report.k whose
    length is at most k, in the same (A, B, C) order, and nothing recorded for
    an element depends on k.
    """
    out = DensityReport(r=report.r, k=k, threshold=report.threshold)
    out.sign_counts = {"+": 0, "0": 0, "-": 0}
    out.predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    out.elements = [rec for rec in report.elements if rec.length <= k]
    bands = {(rec.triple.a, rec.triple.b) for rec in out.elements}
    out.band_rows = [row for row in report.band_rows if (row.A, row.B) in bands]
    for rec in out.elements:
        out.sign_counts["+" if rec.kappa > 0 else ("-" if rec.kappa < 0 else "0")] += 1
        out.predicted_counts[rec.predicted] += 1
    out.mismatches = [m for m in report.mismatches if heis_length(m[0]) <= k]
    return out if out.elements else None
