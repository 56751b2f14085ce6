"""The discrete Heisenberg group in Mal'cev coordinates.

An element is a^A b^B c^C with c = a^-1 b^-1 a b central; the product law is
(A1,B1,C1)(A2,B2,C2) = (A1+A2, B1+B2, C1+C2 - A2*B1).  Conjugation fixes A
and B and shifts C: by +A per b-conjugation, by -B per a-conjugation, which
is what drives the whole sign analysis.

The word length has a closed form on the whole group, ``heis_length``, with
a low and a high branch split at the height C = A^2 - A*B.  The density
experiment enumerates a margin-guarded sector where every radius-r conjugate
stays in the validated low branch, classifies the remainder s = C mod A into
the ceiling cases, and compares the predicted curvature sign against the
exact kappa computed from closed-form conjugate lengths.  In that sector
kappa's numerator depends on C only through C mod A, and it is a sum of
low-branch ceilings that, like the case labels, changes at only a few
remainders; so a class table holds one record per run of remainders of each
(A, B) band, with no conjugate built.  The report adds each run to
its tallies weighted by its member count and lists the elements of a run
only when its prediction contradicts the exact sign; the CSV rows are
expanded from the same runs, one element at a time, as they are written.
Word lengths up to MAX_DENSITY_K are admitted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import DomainError, GroupOracle, bfs_metric, rational_str, sphere
from .literals import HEIS_ID

MAX_DENSITY_K = 120  # bound on the census word length; the slowest admitted census, k = 120, r = 1 in CSV, takes 0.92-0.93 s on 2 cores


class MalcevTriple(NamedTuple):
    a: int
    b: int
    c: int


_new = tuple.__new__  # builds a NamedTuple without the call to its generated __new__


def heis_compose(x: MalcevTriple, y: MalcevTriple) -> MalcevTriple:
    return MalcevTriple(x.a + y.a, x.b + y.b, x.c + y.c - y.a * x.b)


def heis_invert(x: MalcevTriple) -> MalcevTriple:
    return MalcevTriple(-x.a, -x.b, -x.c - x.a * x.b)


def _ceildiv(p: int, q: int) -> int:
    return -(-p // q)


def heis_length(g: MalcevTriple) -> int:
    """Word length of g = a^A b^B c^C, for every g.

    Normalisation.  The group is free nilpotent of class 2 on a and b, so
    the swap a <-> b and the flip a -> a^-1 extend to automorphisms; they
    and inversion preserve S = {a, a^-1, b, b^-1}, so word length too.  With
    w = 2C + A*B they send (A, B, C) to (B, A, -C - A*B), (-A, B, -C) and
    (-A, -B, -C - A*B), each negating w.  The swap conjugates the flip to
    b -> b^-1, and both flips with inversion fix (A, B) and negate w, so g
    has the length of A' = max(|A|, |B|), B' = min(|A|, |B|) and
    C' = (|w| - A'B')/2, an integer as w = A'B' mod 2.

    On A' >= B' >= 0 the length is A' + B' for C' <= 0: no word is shorter,
    and the orders of A' letters a and B' letters b reach every C in
    [-A'B', 0] (each b before an a adds -1), while C' >= -A'B'/2.  Above, it
    is 2*ceil(C'/A') + A' + B' up to C' = A'^2 - A'B' and
    2*ceil(2*sqrt(C' + A'B')) - A' - B' beyond, the branches agreeing at the
    boundary (S. Blachere, "Word distance on the discrete Heisenberg group",
    Colloq. Math. 2003).  The tests check it against BFS on all of B_30.
    """
    A, B, C = g
    w = abs(2 * C + A * B)
    A, B = abs(A), abs(B)
    if A < B:
        A, B = B, A
    C = (w - A * B) // 2
    if C <= 0:
        return A + B
    if C <= A * A - A * B:
        return 2 * _ceildiv(C, A) + A + B
    n4 = 4 * (C + A * B)
    q = isqrt(n4)
    if q * q < n4:
        q += 1
    return 2 * q - A - B


def _heis_conjugate_lengths(g: MalcevTriple, ws: Sequence[MalcevTriple]) -> list[int]:
    """|w^-1 g w| for each w of ``ws``: w^-1 g w = (A, B, C + A*beta - alpha*B) for g = (A, B, C)."""
    A, B, C = g
    return [heis_length((A, B, C + A * beta - alpha * B)) for alpha, beta, _ in ws]


def heis_oracle() -> GroupOracle:
    return GroupOracle(
        group_id=HEIS_ID,
        labels=("a", "a^-1", "b", "b^-1"),
        generators=(
            MalcevTriple(1, 0, 0),
            MalcevTriple(-1, 0, 0),
            MalcevTriple(0, 1, 0),
            MalcevTriple(0, -1, 0),
        ),
        identity=MalcevTriple(0, 0, 0),
        compose=heis_compose,
        invert=heis_invert,
        closed_length=heis_length,
        right_steps=(  # x a, x a^-1, x b, x b^-1: the product law with y a generator
            lambda x: _new(MalcevTriple, (x[0] + 1, x[1], x[2] - x[1])),
            lambda x: _new(MalcevTriple, (x[0] - 1, x[1], x[2] + x[1])),
            lambda x: _new(MalcevTriple, (x[0], x[1] + 1, x[2])),
            lambda x: _new(MalcevTriple, (x[0], x[1] - 1, x[2])),
        ),
        conjugate_lengths=_heis_conjugate_lengths,
    )


# ---------------------------------------------------------------------------
# Ceiling case analysis.  Write C = kA + s with 1 <= s <= A - 1.  For
# 1 <= B*t <= A:
#   ceil((C + Bt)/A) = k+2 if s > A - Bt else k+1
#   ceil((C - Bt)/A) = k+1 if s > Bt     else k
# The three cases partition the remainders when 2*B*t <= A:
#   X_t: s <= Bt   (conjugate pair shortens; positive curvature share)
#   Y_t: Bt < s <= A - Bt   (pair balances; zero share)
#   Z_t: s > A - Bt   (pair lengthens; negative share)


def heis_ceil_jump(A: int, B: int, C: int, t: int) -> tuple[int, int]:
    """(ceil((C+Bt)/A), ceil((C-Bt)/A)), via the case formula, checked directly."""
    if A <= 0 or B <= 0 or t <= 0:
        raise DomainError("need A, B, t positive")
    if B * t > A:
        raise DomainError(f"case formula needs B*t <= A, got B*t = {B * t} > A = {A}")
    s = C % A
    if s == 0:
        raise DomainError(f"A = {A} divides C = {C}")
    k = C // A
    plus = k + (2 if s > A - B * t else 1)
    minus = k + (1 if s > B * t else 0)
    direct = (_ceildiv(C + B * t, A), _ceildiv(C - B * t, A))
    if (plus, minus) != direct:
        raise ArithmeticError(f"case formula disagrees with direct ceiling at {(A, B, C, t)}")
    return plus, minus


def heis_case_label(A: int, B: int, s: int, t: int) -> str:
    """X / Y / Z / boundary for the remainder s at occurrence count t.

    The interval endpoints s = Bt and s = A - Bt are shared between adjacent
    cases and labelled 'boundary'; they are reported separately and excluded
    from sign prediction.
    """
    if not 1 <= s <= A - 1:
        raise DomainError(f"remainder {s} outside 1..{A - 1}")
    if s == B * t or s == A - B * t:
        return "boundary"
    if s < B * t:
        return "X"
    if s < A - B * t:
        return "Y"
    return "Z"


def _sector_row(A: int, B: int, r: int, k: Optional[int]) -> Optional[tuple[int, int]]:
    """(c_lo, c_hi), the heights C that ``SectorSpec(r, k)`` admits on the row (A, B); None when it admits none.

    The k bound is exact.  The band forces r >= 1, so every admitted C lies
    in [A*r, A^2 - A*B - A*r] and g is on the low branch, of length
    2*ceil(C/A) + A + B; there |g| <= k exactly when C <= A*((k - A - B) // 2).
    """
    if not (A > B > 0 and 5 * r <= A <= 5 * r * B <= 2 * A and A - B >= 2 * r):
        return None
    c_lo, c_hi = A * r, A * A - A * B - A * r
    if k is not None:
        c_hi = min(c_hi, A * ((k - A - B) // 2))
    return (c_lo, c_hi) if c_hi >= c_lo else None


@dataclass(frozen=True)
class SectorSpec:
    """The margin-guarded low-height sector for comparison radius r.

    Conditions on (A, B, C): A > B > 0, C > 0, C - A*r >= 0, A - B >= 2r,
    A >= 5r with the band A/(5r) <= B <= 2A/(5r), and the low-height
    condition with a top margin, C <= A^2 - A*B - A*r, so that every
    conjugate by a radius-r element keeps a valid low-branch length.
    ``k``, when given, additionally bounds the word length.
    """

    r: int
    k: Optional[int] = None

    def admits(self, g: MalcevTriple) -> bool:
        A, B, C = g
        row = _sector_row(A, B, self.r, self.k)
        return row is not None and row[0] <= C <= row[1]


def heis_conjugate_deltas(r: int) -> list[tuple[int, int]]:
    """(alpha, beta) exponent pairs of the sphere S_r; conjugation adds A*beta - alpha*B to C."""
    table = bfs_metric(heis_oracle(), r)
    return [(w.a, w.b) for w in sphere(table, r)]


_PURE = {"X": "+", "Y": "0", "Z": "-"}  # the sign predicted by one case at every t


def _classify(A: int, B: int, s: int, r: int) -> tuple[tuple[str, ...], str]:
    """(labels per t = 1..r, predicted sign) for the remainder s = C mod A.

    s = 0 is labelled 'degenerate'; it and any boundary label yield 'mixed'.
    """
    if s == 0:
        return ("degenerate",), "mixed"
    labels = tuple(heis_case_label(A, B, s, t) for t in range(1, r + 1))
    first = labels[0]
    if first != "boundary" and labels.count(first) == r:
        return labels, _PURE[first]
    return labels, "mixed"


def heis_sign_predict(g: MalcevTriple, r: int) -> str:
    """'+', '0', '-' when one case holds for every t <= r; 'mixed' otherwise.

    Remainder s = 0 and boundary labels yield 'mixed'; for the three pure
    outcomes the sign equals the sign of the exact kappa_r.
    """
    A, B, C = g
    if not SectorSpec(r).admits(g):
        raise DomainError(f"({A},{B},{C}) is outside the radius-{r} sector")
    return _classify(A, B, C % A, r)[1]


# ---------------------------------------------------------------------------
# Density experiment


@dataclass(frozen=True)
class BandRow:
    """Remainder-class fractions for one (A, B) in the band.

    Closed counts credit each shared endpoint to both adjacent classes,
    which is the reading under which every class holds at least a 1/(5r)
    share; the boundary count is also reported on its own.
    """

    A: int
    B: int
    x_count: int
    y_count: int
    z_count: int
    boundary_count: int

    def fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        n = self.A - 1
        return (
            Fraction(self.x_count, n),
            Fraction(self.y_count, n),
            Fraction(self.z_count, n),
        )


@dataclass
class DensityReport:
    r: int
    k: int
    sign_counts: dict  # exact kappa signs
    predicted_counts: dict
    mismatches: list
    band_rows: list
    threshold: Fraction

    def all_signs_present(self) -> bool:
        return all(self.sign_counts.get(s, 0) > 0 for s in "+0-")

    def band_fractions_ok(self) -> bool:
        return all(
            frac >= self.threshold for row in self.band_rows for frac in row.fractions()
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": "density",
            "radius": self.r,
            "k": self.k,
            "sign_counts": dict(self.sign_counts),
            "predicted_counts": dict(self.predicted_counts),
            "prediction_mismatches": len(self.mismatches),
            "all_signs_present": self.all_signs_present(),
            "band_threshold": rational_str(self.threshold),
            "band_fractions_ok": self.band_fractions_ok(),
            "bands": [
                {
                    "A": row.A,
                    "B": row.B,
                    "x_fraction": rational_str(x),
                    "y_fraction": rational_str(y),
                    "z_fraction": rational_str(z),
                    "boundary_count": row.boundary_count,
                }
                for row in self.band_rows
                for x, y, z in [row.fractions()]
            ],
            "element_count": sum(self.sign_counts.values()),
        }


CSV_HEADER = ["A", "B", "C", "length", "s", "labels", "predicted", "kappa"]


def _band_counts(A: int, B: int, r: int) -> BandRow:
    """The band row of (A, B) at radius r in closed form: x = z = B, y = A - 2Br + 1, 2r boundaries.

    Proof, for s in 1..A-1 and 5rB <= 2A, which every band satisfies.  With
    shared endpoints credited to both classes, s is X at every t <= r iff
    s <= B, Z at every t iff s >= A - B, and Y at every t iff
    Br <= s <= A - Br, a range of A - 2Br + 1 values since 2Br < A.  The
    endpoints Bt and A - Bt (t = 1..r) lie in 1..A-1 and are 2r distinct
    values: Bt = A - Bt' would give A = B(t + t') <= 2rB < 5rB/2 <= A.
    """
    return BandRow(A, B, B, A - 2 * B * r + 1, B, 2 * r)


def _sector_bands(k: int, r: int) -> list[tuple[int, int, int, int]]:
    """(A, B, c_lo, c_hi) for every (A, B) whose radius-r sector holds some C within length k.

    Checks the census arguments: raises DomainError for r < 1,
    k > MAX_DENSITY_K, or when no band is left.
    """
    if r < 1:
        raise DomainError(f"radius must be at least 1, got {r}")
    if k > MAX_DENSITY_K:
        raise DomainError(f"the census word length k is at most {MAX_DENSITY_K}, got {k}")
    bands = []
    for A in range(5 * r, k):
        for B in range(_ceildiv(A, 5 * r), (2 * A) // (5 * r) + 1):
            row = _sector_row(A, B, r, k)
            if row is not None:
                bands.append((A, B, *row))
    if not bands:
        raise DomainError(f"the radius-{r} sector is empty within length {k}")
    return bands


class _Class(NamedTuple):
    """What the elements of one run of remainders of a band share."""

    numerator: int  # kappa_r(g) = numerator / (n * |g|)
    n: int  # |S_r|
    sign: str  # of the exact kappa_r
    labels: tuple[str, ...]
    predicted: str


def _class_table(
    r: int, bands: list[tuple[int, int, int, int]]
) -> Iterator[tuple[int, int, int, int, list[tuple[int, int, _Class]]]]:
    """(A, B, c_lo, c_hi, runs) for each of ``bands`` in order; (s0, s1, cls) in runs puts C = c_lo + s + j*A in cls for s0 <= s < s1.

    With n = |S_r|, the numerator n*|g| - sum |g^w| over w in S_r of
    kappa_r(g) = numerator / (n*|g|) is 2 * sum (ceil(C/A) - ceil((C +
    D)/A)) over the shifts D = A*beta - alpha*B of the w = (alpha, beta, .)
    of S_r, and it is the same for C and C + A when both lie in the sector.
    Proof: a conjugate has height C' = C + D with |D| <= A*r, so the margins
    A*r <= C <= A^2 - A*B - A*r put C and C' in the low branch, of length
    2*ceil(C'/A) + A + B; the A + B terms cancel, and C -> C + A raises each
    ceiling by 1, which cancels too.  The labels and the prediction depend on
    s = C mod A alone.
    Sum over a-exponents.  -ceil((C + D)/A) = floor((-C - D)/A) = -beta +
    floor((alpha*B - C)/A) exactly, so the numerator is 2 * (n*ceil(C/A) -
    sum beta + sum M_alpha * floor((alpha*B - C)/A)), with sum beta over S_r
    and M_alpha the number of w in S_r of a-exponent alpha: 2r + 1 terms.
    Runs lemma.  Write C = c_lo + s with 0 <= s < top = min(A, c_hi - c_lo +
    1); c_lo = A*r is a multiple of A, so s = C mod A.  ceil(C/A) is r at
    s = 0 and r + 1 above.  ceil((C + D)/A) = r + ceil((s + D)/A) steps up by
    one exactly where s + D leaves a multiple of A, between s = (-D mod A)
    and the next s.  ``heis_case_label`` compares s with Bt and A - Bt only,
    so it is constant between the cuts Bt, Bt + 1, A - Bt and A - Bt + 1
    (t = 1..r).  Hence the cuts {0, 1, top}, (-D mod A) + 1 and those label
    cuts, clipped to [0, top], split 0 .. top - 1 into runs on each of which
    the numerator, sign, labels and prediction are those of its first
    remainder s0, where they are computed.  The shift cuts are label cuts or
    1: D = A*beta - alpha*B with |alpha| <= r, the a-exponent sum of a word of
    length r, and rB < A, so (-D mod A) + 1 is 1, B*alpha + 1 or
    A - B*|alpha| + 1.  So at most 2 + 4r runs remain.  c_lo and c_hi are
    multiples of A, so with M = (c_hi - c_lo) / A remainder 0 has M + 1
    members and every other remainder M.
    """
    deltas = heis_conjugate_deltas(r)
    n = len(deltas)
    by_alpha = Counter([alpha for alpha, _ in deltas]).items()  # alpha -> M_alpha
    beta_sum = sum([beta for _, beta in deltas])
    for A, B, c_lo, c_hi in bands:
        top = min(A, c_hi - c_lo + 1)
        cuts = {0, 1, top}
        for t in range(1, r + 1):
            cuts.update((B * t, B * t + 1, A - B * t, A - B * t + 1))
        cuts = sorted(cut for cut in cuts if cut <= top)
        runs = []
        for s0, s1 in zip(cuts, cuts[1:]):
            C = c_lo + s0
            numerator = 2 * (n * _ceildiv(C, A) - beta_sum + sum([m * ((alpha * B - C) // A) for alpha, m in by_alpha]))
            sign = "+" if numerator > 0 else ("-" if numerator < 0 else "0")
            runs.append((s0, s1, _new(_Class, (numerator, n, sign, *_classify(A, B, s0, r)))))
        yield A, B, c_lo, c_hi, runs


def heis_density_experiment(k: int, r: int) -> DensityReport:
    """Exhaustive census of the radius-r sector within word length k.

    Counts exact curvature signs, checks every non-mixed prediction against
    the exact sign, and tallies per-(A, B) remainder-class fractions, each of
    which must reach 1/(5r) in the band.  Each run of remainders is tallied
    once, weighted by its member count; only a run whose prediction
    contradicts its sign is expanded, element by element, into ``mismatches``.
    """
    bands = _sector_bands(k, r)
    sign_counts = {"+": 0, "0": 0, "-": 0}
    predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    mismatches = []
    for A, B, c_lo, c_hi, runs in _class_table(r, bands):
        per_remainder = (c_hi - c_lo) // A
        wrong = []
        for s0, s1, cls in runs:
            members = (s1 - s0) * per_remainder + (s0 == 0)
            sign_counts[cls.sign] += members
            predicted_counts[cls.predicted] += members
            if cls.predicted in "+0-" and cls.predicted != cls.sign:
                wrong.extend((C, cls) for s in range(s0, s1) for C in range(c_lo + s, c_hi + 1, A))
        mismatches.extend((MalcevTriple(A, B, C), cls.predicted, cls.sign) for C, cls in sorted(wrong))
    band_rows = [_band_counts(A, B, r) for A, B, _, _ in bands]
    return DensityReport(r, k, sign_counts, predicted_counts, mismatches, band_rows, Fraction(1, 5 * r))


def _csv_row(A: int, B: int, C: int, cls: _Class) -> list:
    """The CSV row of (A, B, C) in ``cls``: every census element lies on the low branch (see ``_sector_row``)."""
    length = 2 * _ceildiv(C, A) + A + B
    denominator = cls.n * length
    g = gcd(cls.numerator, denominator)
    return [A, B, C, length, C % A, ";".join(cls.labels), cls.predicted, f"{cls.numerator // g}/{denominator // g}"]


def density_csv_rows(k: int, r: int) -> Iterator[list]:
    """The census as CSV rows (columns CSV_HEADER), one per sector element, made lazily from the runs of the class table.

    The arguments are checked at the call, before any row is made.
    """
    bands = _sector_bands(k, r)
    return (
        _csv_row(A, B, C, by_remainder[(C - c_lo) % A])
        for A, B, c_lo, c_hi, runs in _class_table(r, bands)
        for by_remainder in [[cls for s0, s1, cls in runs for _ in range(s0, s1)]]
        for C in range(c_lo, c_hi + 1)
    )
