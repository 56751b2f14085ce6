"""The Heisenberg density census computed element by element, for checking the library's class tally against.

Every sector element gets its own ``heis_kappa_exact`` and ``heis_sign_predict``
call; nothing is shared between elements of one residue class C mod A.  The
band rows come from a scan of every remainder, not from the library's closed
form.
"""

from fractions import Fraction

from curvlab.heisenberg import (
    BandRow,
    DensityReport,
    MalcevTriple,
    SectorSpec,
    heis_case_label,
    heis_conjugate_deltas,
    heis_kappa_exact,
    heis_length,
    heis_sign_predict,
)


def _ceildiv(p, q):
    return -(-p // q)


def band_counts(A, B, r):
    """The BandRow of (A, B) at radius r, by testing each remainder s = 1..A-1 at every t <= r."""
    x = y = z = boundary = 0
    for s in range(1, A):
        in_x = all(s <= B * t for t in range(1, r + 1))
        in_y = all(B * t <= s <= A - B * t for t in range(1, r + 1))
        in_z = all(s >= A - B * t for t in range(1, r + 1))
        x += in_x
        y += in_y
        z += in_z
        if any(s in (B * t, A - B * t) for t in range(1, r + 1)):
            boundary += 1
    return BandRow(A, B, x, y, z, boundary)


def sector_bands(k, r):
    """(A, B, c_lo, c_hi) of every (A, B) with a radius-r sector element of length <= k."""
    bands = []
    for A in range(5 * r, k):
        for B in range(max(1, _ceildiv(A, 5 * r)), (2 * A) // (5 * r) + 1):
            if A - B < 2 * r:
                continue
            max_ceil = (k - A - B) // 2
            if max_ceil < r:
                continue
            c_hi = min(A * max_ceil, A * A - A * B - A * r)
            c_lo = A * r
            if c_hi >= c_lo:
                bands.append((A, B, c_lo, c_hi))
    return bands


def density_per_element(k, r):
    """(report, records) of the census at (k, r); None when the sector is empty.

    ``report`` is the DensityReport of ``heis_density_experiment(k, r)``;
    ``records`` holds (g, length, s, labels, predicted, kappa) per element in
    (A, B, C) order.
    """
    deltas = heis_conjugate_deltas(r)
    report = DensityReport(r=r, k=k, threshold=Fraction(1, 5 * r))
    report.sign_counts = {"+": 0, "0": 0, "-": 0}
    report.predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    spec = SectorSpec(r, k)
    records = []
    for A, B, c_lo, c_hi in sector_bands(k, r):
        report.band_rows.append(band_counts(A, B, r))
        for C in range(c_lo, c_hi + 1):
            g = MalcevTriple(A, B, C)
            assert spec.admits(g)
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
            records.append((g, heis_length(g), s, labels, predicted, kap))
    return (report, records) if records else None


def census_by_length(census, first):
    """Yield (k, restricted) for k = first, ..., report.k.

    ``restricted`` is the (report, records) of the same census at word length
    k, or None when it is empty.  The sweep at k visits exactly the elements
    of the sweep at report.k whose length is at most k, in the same (A, B, C)
    order, and nothing recorded for an element depends on k.  So the tallies
    and bands of every k grow in one pass over the records in order of length.
    """
    report, records = census
    by_length = [[] for _ in range(report.k + 1)]
    for rec in records:
        by_length[rec[1]].append(rec)
    sign_counts = {"+": 0, "0": 0, "-": 0}
    predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    bands = set()
    for k, new in enumerate(by_length):
        for g, _, _, _, predicted, kap in new:
            sign_counts["+" if kap > 0 else ("-" if kap < 0 else "0")] += 1
            predicted_counts[predicted] += 1
            bands.add((g.a, g.b))
        if k < first:
            continue
        if not bands:
            yield k, None
            continue
        out = DensityReport(r=report.r, k=k, threshold=report.threshold)
        out.sign_counts = dict(sign_counts)
        out.predicted_counts = dict(predicted_counts)
        out.band_rows = [row for row in report.band_rows if (row.A, row.B) in bands]
        out.mismatches = [m for m in report.mismatches if heis_length(m[0]) <= k]
        yield k, (out, [rec for rec in records if rec[1] <= k])


def csv_rows(records):
    """The `curvlab density --format csv` rows, header excluded, of ``records``."""
    return [
        [g.a, g.b, g.c, length, s, ";".join(labels), predicted, f"{kap.numerator}/{kap.denominator}"]
        for g, length, s, labels, predicted, kap in records
    ]
