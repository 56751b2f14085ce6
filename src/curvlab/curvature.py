"""Comparison distances over spheres and balls, and the curvature kappa_r.

For a nonidentity element g, the comparison distance at radius r averages the
conjugate lengths |w^-1 g w| over w in the sphere S_r (sphere mode) or the
ball B_r (ball mode); the curvature is (|g| - average) / |g|.  All values are
exact rationals: the sign of kappa is the headline output and is never
subjected to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .core import (
    DomainError,
    Element,
    GroupOracle,
    MetricTable,
    rational_str,
    sphere_or_ball,
    word_length,
)

Mode = Literal["sphere", "ball"]


@dataclass(frozen=True)
class CurvatureReport:
    """Full record of one curvature computation.

    ``breakdown`` lists (conjugator w, |w^-1 g w|) in the deterministic
    sphere/ball order; the comparison distance is the exact mean of the
    breakdown lengths and kappa = (|g| - comparison) / |g|.
    """

    element: Element
    radius: int
    mode: Mode
    base_length: int
    comparison: Fraction
    kappa: Fraction
    breakdown: tuple[tuple[Element, int], ...]

    def to_json_dict(self, format_element=repr) -> dict:
        return {
            "kind": "curvature",
            "element": format_element(self.element),
            "radius": self.radius,
            "mode": self.mode,
            "base_length": self.base_length,
            "comparison_distance": rational_str(self.comparison),
            "comparison_distance_float": float(self.comparison),
            "kappa": rational_str(self.kappa),
            "kappa_float": float(self.kappa),
            "breakdown": [
                {"conjugator": format_element(w), "conjugate_length": length}
                for w, length in self.breakdown
            ],
        }

    def csv_rows(self, format_element=repr) -> list[list]:
        rows = []
        for w, length in self.breakdown:
            rows.append(
                [
                    format_element(self.element),
                    self.radius,
                    self.mode,
                    self.base_length,
                    format_element(w),
                    length,
                    rational_str(self.kappa),
                ]
            )
        return rows


CSV_HEADER = ["element", "radius", "mode", "base_length", "conjugator", "conjugate_length", "kappa"]


def kappa(
    oracle: GroupOracle,
    table: MetricTable,
    g: Element,
    r: int,
    mode: Mode = "sphere",
    length_table: Optional[MetricTable] = None,
) -> CurvatureReport:
    """The comparison curvature kappa_r of g, with its full conjugator breakdown.

    ``table`` enumerates the conjugators and only needs horizon >= r; conjugate
    lengths fall back to the oracle's closed form, or to ``length_table`` when
    given (defaults to ``table``).
    """
    if g == oracle.identity:
        raise DomainError("comparison distances are undefined at the identity")
    if r < 1:
        raise DomainError(f"radius must be at least 1, got {r}")
    if length_table is None:
        length_table = table
    breakdown = tuple(
        [(w, word_length(oracle, oracle.conjugate(g, w), length_table)) for w in sphere_or_ball(table, r, mode)]
    )
    base = word_length(oracle, g, length_table)
    comparison = Fraction(sum(length for _, length in breakdown), len(breakdown))
    return CurvatureReport(
        element=g,
        radius=r,
        mode=mode,
        base_length=base,
        comparison=comparison,
        kappa=Fraction(base - comparison, base),
        breakdown=breakdown,
    )
