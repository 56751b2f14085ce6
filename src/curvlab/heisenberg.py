"""The discrete Heisenberg group in Mal'cev coordinates.

An element is a^A b^B c^C with c = a^-1 b^-1 a b central; the product law is
(A1,B1,C1)(A2,B2,C2) = (A1+A2, B1+B2, C1+C2 - A2*B1).  Conjugation fixes A
and B and shifts C: by +A per b-conjugation, by -B per a-conjugation, which
is what drives the whole sign analysis.

In the sector A > B > 0, C >= 0 the word length has a closed form, split at
the height boundary C = A^2 - A*B into a low and a high branch.  The density
experiment enumerates a margin-guarded sector where every radius-r conjugate
stays in the validated low branch, classifies the remainder s = C mod A into
the ceiling cases, and compares the predicted curvature sign against the
exact kappa computed from closed-form conjugate lengths.  In that sector
kappa's numerator depends on C only through C mod A, so the one sweep
computes it once per residue class of each (A, B) and streams every element
with its class; the report tallies the stream and the CSV rows are made from
it as they are written.  Word lengths up to MAX_DENSITY_K are admitted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import starmap
from math import isqrt
from typing import Iterator, NamedTuple, Optional

from .core import DomainError, GroupOracle, bfs_metric, plain_encode, rational_str, sphere

HEIS_ID = "Heis"
MAX_DENSITY_K = 120  # bound on the census word length; the slowest admitted sweep, k = 120, r = 1 in CSV, takes 6-8 s


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
    """Closed-form word length for A > B > 0, C >= 0.

    Low branch 2*ceil(C/A) + A + B for C <= A^2 - A*B, high branch
    2*ceil(2*sqrt(C + A*B)) - A - B above; the branches agree at the
    boundary.  C = 0 degenerates to the staircase word a^A b^B of length
    A + B, which the low branch returns.
    """
    A, B, C = g
    if not (A > B > 0 and C >= 0):
        raise DomainError(f"({A},{B},{C}) is outside the sector A > B > 0, C >= 0")
    if C <= A * A - A * B:
        return 2 * _ceildiv(C, A) + A + B
    n4 = 4 * (C + A * B)
    q = isqrt(n4)
    if q * q < n4:
        q += 1
    return 2 * q - A - B


def _heis_closed(g: MalcevTriple) -> Optional[int]:
    A, B, C = g
    if A > B > 0 and C >= 0:
        return heis_length(g)
    return None


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
        encode=lambda el: plain_encode(tuple(el)),
        closed_length=_heis_closed,
        right_steps=(  # x a, x a^-1, x b, x b^-1: the product law with y a generator
            lambda x: _new(MalcevTriple, (x[0] + 1, x[1], x[2] - x[1])),
            lambda x: _new(MalcevTriple, (x[0] - 1, x[1], x[2] + x[1])),
            lambda x: _new(MalcevTriple, (x[0], x[1] + 1, x[2])),
            lambda x: _new(MalcevTriple, (x[0], x[1] - 1, x[2])),
        ),
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
        r = self.r
        if not (A > B > 0 and C > 0):
            return False
        if C - A * r < 0 or A - B < 2 * r:
            return False
        if A < 5 * r or A > 5 * r * B or 5 * r * B > 2 * A:
            return False
        if C > A * A - A * B - A * r:
            return False
        if self.k is not None and heis_length(g) > self.k:
            return False
        return True


def heis_conjugate_deltas(r: int) -> list[tuple[int, int]]:
    """(alpha, beta) exponent pairs of the sphere S_r; conjugation adds A*beta - alpha*B to C."""
    table = bfs_metric(heis_oracle(), r)
    return [(w.a, w.b) for w in sphere(table, r)]


def heis_kappa_exact(g: MalcevTriple, deltas: list[tuple[int, int]]) -> Fraction:
    """Exact kappa over the sphere whose (a, b) exponents are ``deltas``.

    Valid whenever every conjugate stays in the closed-form sector, which the
    SectorSpec margins guarantee.
    """
    A, B, C = g
    base = heis_length(g)
    total = 0
    for alpha, beta in deltas:
        total += heis_length(MalcevTriple(A, B, C + A * beta - alpha * B))
    return Fraction(base * len(deltas) - total, base * len(deltas))


def _classify(A: int, B: int, s: int, r: int) -> tuple[tuple[str, ...], str]:
    """(labels per t = 1..r, predicted sign) for the remainder s = C mod A.

    s = 0 is labelled 'degenerate'; it and any boundary label yield 'mixed'.
    """
    if s == 0:
        return ("degenerate",), "mixed"
    labels = tuple(heis_case_label(A, B, s, t) for t in range(1, r + 1))
    pure = {"X": "+", "Y": "0", "Z": "-"}
    if len(set(labels)) == 1 and labels[0] in pure:
        return labels, pure[labels[0]]
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
    sign_counts: dict = field(default_factory=dict)  # exact kappa signs
    predicted_counts: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    band_rows: list = field(default_factory=list)
    threshold: Fraction = Fraction(0)

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
                    "x_fraction": str(row.fractions()[0]),
                    "y_fraction": str(row.fractions()[1]),
                    "z_fraction": str(row.fractions()[2]),
                    "boundary_count": row.boundary_count,
                }
                for row in self.band_rows
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
            # length <= k bounds ceil(C/A) by (k - A - B) // 2; intersect with the sector margins
            c_hi = min(A * ((k - A - B) // 2), A * A - A * B - A * r)
            if A - B >= 2 * r and c_hi >= A * r:
                bands.append((A, B, A * r, c_hi))
    if not bands:
        raise DomainError(f"the radius-{r} sector is empty within length {k}")
    return bands


class _Class(NamedTuple):
    """What the elements of one residue class C mod A of a band share."""

    numerator: int  # kappa_r(g) = numerator / (n * |g|)
    n: int  # |S_r|
    sign: str  # of the exact kappa_r
    s: int  # C mod A
    labels: tuple[str, ...]
    predicted: str


def _sweep(k: int, r: int, bands: list[tuple[int, int, int, int]]) -> Iterator[tuple[MalcevTriple, _Class]]:
    """(g, its residue class) for every sector element of ``bands``, in (A, B, C) order.

    Each element is checked against ``SectorSpec(r, k)``.  Exact kappa is
    computed once per residue class C mod A of each (A, B), by this lemma.
    With n = |S_r|, the numerator n*|g| - sum |g^w| over w in S_r of
    kappa_r(g) = numerator / (n*|g|) is the same for C and C + A when both
    lie in the sector.  Proof: a conjugate has height C' = C + A*beta -
    alpha*B with |A*beta - alpha*B| <= A*r, so the margins A*r <= C <=
    A^2 - A*B - A*r put C' in the low branch, of length 2*ceil(C'/A) + A + B;
    C -> C + A raises |g| and each of the n conjugate lengths by 2, which
    cancels.  The labels and the prediction depend on s = C mod A alone, so
    only the denominator changes within a class, and the sign not at all.
    """
    deltas = heis_conjugate_deltas(r)
    n = len(deltas)
    weights = Counter(deltas)  # sphere elements with equal (alpha, beta) give the same conjugate
    spec = SectorSpec(r, k)
    for A, B, c_lo, c_hi in bands:
        classes = []  # one per residue, from C = c_lo on
        for C in range(c_lo, min(c_lo + A, c_hi + 1)):
            numerator = n * heis_length(MalcevTriple(A, B, C)) - sum(
                m * heis_length((A, B, C + A * beta - alpha * B)) for (alpha, beta), m in weights.items()
            )
            sign = "+" if numerator > 0 else ("-" if numerator < 0 else "0")
            s = C % A
            classes.append(_Class(numerator, n, sign, s, *_classify(A, B, s, r)))
        for C in range(c_lo, c_hi + 1):
            g = MalcevTriple(A, B, C)
            assert spec.admits(g)
            yield g, classes[(C - c_lo) % A]


def heis_density_experiment(k: int, r: int) -> DensityReport:
    """Exhaustive sweep of the radius-r sector within word length k.

    Counts exact curvature signs, checks every non-mixed prediction against
    the exact sign, and tallies per-(A, B) remainder-class fractions, each of
    which must reach 1/(5r) in the band.
    """
    bands = _sector_bands(k, r)
    report = DensityReport(r=r, k=k, threshold=Fraction(1, 5 * r))
    report.sign_counts = {"+": 0, "0": 0, "-": 0}
    report.predicted_counts = {"+": 0, "0": 0, "-": 0, "mixed": 0}
    report.band_rows = [_band_counts(A, B, r) for A, B, _, _ in bands]
    for g, cls in _sweep(k, r, bands):
        report.sign_counts[cls.sign] += 1
        report.predicted_counts[cls.predicted] += 1
        if cls.predicted in "+0-" and cls.predicted != cls.sign:
            report.mismatches.append((g, cls.predicted, cls.sign))
    return report


def _csv_row(g: MalcevTriple, cls: _Class) -> list:
    length = heis_length(g)
    kappa = Fraction(cls.numerator, cls.n * length)
    labels = ";".join(cls.labels)
    return [g.a, g.b, g.c, length, cls.s, labels, cls.predicted, rational_str(kappa)]


def density_csv_rows(k: int, r: int) -> Iterator[list]:
    """The census as CSV rows (columns CSV_HEADER), one per sector element, made lazily as the sweep goes.

    The arguments are checked at the call, before any row is made.
    """
    bands = _sector_bands(k, r)
    return starmap(_csv_row, _sweep(k, r, bands))
