"""Dead-end detection, escape depth, strict depth, and backtrack elements.

Two distinct depth notions live here.

``depth`` is the escape distance: the least k such that some product of k
generators takes g to an element strictly longer than g.  The witness path in
a :class:`DeadEndReport` realizes it.

``strict_depth`` is the uniform-descent radius: the largest k such that for
every r <= k and every w in the sphere S_r, |gw| <= |g| - r.  (The naive
chain condition |g| > |ga_1| > ... quantified over arbitrary generator
sequences is unsatisfiable for k >= 2 with symmetric generators, since a_2
may undo a_1; the spherical form is the one the nonnegative-curvature
argument actually consumes.)  Strict depth k guarantees kappa_r >= 0 for all
r < k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    CurvlabError,
    Element,
    GroupOracle,
    MetricTable,
    OutOfHorizonError,
    ball,
    sphere,
    word_length,
)


class NotADeadEndError(CurvlabError, ValueError):
    pass


@dataclass(frozen=True)
class DeadEndReport:
    element: Element
    base_length: int
    is_dead_end: bool
    depth: Optional[int]  # None: no escape within the search depth
    strict_depth: int
    witness: Optional[tuple[str, ...]]  # generator labels realizing depth

    def to_json_dict(self, format_element=repr) -> dict:
        return {
            "kind": "deadend",
            "element": format_element(self.element),
            "base_length": self.base_length,
            "is_dead_end": self.is_dead_end,
            "depth": self.depth,
            "depth_horizon_exceeded": self.depth is None,
            "strict_depth": self.strict_depth,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _le_threshold(oracle: GroupOracle, table: MetricTable, el: Element, threshold: int) -> bool:
    """Whether |el| <= threshold.

    Decidable even when el lies outside the table: absence from B_horizon
    means the length exceeds the horizon, which settles any threshold within
    it.
    """
    try:
        return word_length(oracle, el, table) <= threshold
    except OutOfHorizonError:
        if threshold <= table.horizon:
            return False
        raise


def is_dead_end(oracle: GroupOracle, table: MetricTable, g: Element) -> bool:
    """True iff no generator product of g is strictly longer than g."""
    base = word_length(oracle, g, table)
    return all(
        _le_threshold(oracle, table, oracle.compose(g, a), base) for a in oracle.generators
    )


def _escape(
    oracle: GroupOracle, table: MetricTable, g: Element, max_depth: int
) -> Optional[tuple[str, ...]]:
    """A shortest generator path from g to an element longer than g, or None
    when every path of at most ``max_depth`` steps stays within |g|."""
    base = word_length(oracle, g, table)
    parents: dict[Element, Optional[tuple[Element, str]]] = {g: None}
    frontier: list[Element] = [g]
    for _ in range(max_depth):
        nxt = []
        for el in frontier:
            for label, gen in zip(oracle.generator_set.labels, oracle.generators):
                h = oracle.compose(el, gen)
                if h in parents:
                    continue
                parents[h] = (el, label)
                if not _le_threshold(oracle, table, h, base):
                    word = []
                    while h != g:
                        h, lab = parents[h]
                        word.append(lab)
                    return tuple(reversed(word))
                nxt.append(h)
        frontier = nxt
    return None


def depth(oracle: GroupOracle, table: MetricTable, g: Element, max_depth: int) -> Optional[int]:
    """Least k such that some k-generator path from g exceeds |g| in length.

    Non-dead-ends escape in one step, so they have depth 1.  Returns None
    when no escape exists within ``max_depth`` steps.
    """
    witness = _escape(oracle, table, g, max_depth)
    return None if witness is None else len(witness)


def strict_depth(oracle: GroupOracle, table: MetricTable, g: Element) -> int:
    """Largest k with |gw| <= |g| - r for all r <= k and all w in S_r."""
    base = word_length(oracle, g, table)
    k = 0
    for r in range(1, table.horizon + 1):
        layer = sphere(table, r)
        if not layer:  # finite group exhausted; no deeper spheres exist
            break
        if all(_le_threshold(oracle, table, oracle.compose(g, w), base - r) for w in layer):
            k = r
        else:
            return k
    return k


def report(
    oracle: GroupOracle,
    table: MetricTable,
    g: Element,
    max_depth: int,
) -> DeadEndReport:
    witness = _escape(oracle, table, g, max_depth)
    return DeadEndReport(
        element=g,
        base_length=word_length(oracle, g, table),
        is_dead_end=is_dead_end(oracle, table, g),
        depth=None if witness is None else len(witness),
        strict_depth=strict_depth(oracle, table, g),
        witness=witness,
    )


def backtrack_elements(
    oracle: GroupOracle,
    table: MetricTable,
    g: Element,
    bound: int,
) -> set[Element]:
    """All continuations g*w' with 1 <= |w'| < depth(g) that stay within |g|."""
    if not is_dead_end(oracle, table, g):
        raise NotADeadEndError(f"{g!r} is not a dead end")
    k = depth(oracle, table, g, bound)
    if k is None:
        raise OutOfHorizonError(
            f"depth of {g!r} exceeds the bound {bound}; raise the bound to enumerate backtracks"
        )
    if k - 1 > table.horizon:
        raise OutOfHorizonError(
            f"backtrack enumeration needs continuations up to length {k - 1}, "
            f"beyond the table horizon {table.horizon}"
        )
    base = word_length(oracle, g, table)
    out = set()
    for w in ball(table, k - 1):
        if w == oracle.identity:
            continue
        h = oracle.compose(g, w)
        if _le_threshold(oracle, table, h, base):
            out.add(h)
    return out


def scan(
    oracle: GroupOracle,
    table: MetricTable,
    radius: int,
    max_depth: int,
) -> Iterator[DeadEndReport]:
    """Yield a report for every dead end in B_radius, in layer order."""
    for r in range(radius + 1):
        for g in sphere(table, r):
            if g == oracle.identity:
                continue
            if is_dead_end(oracle, table, g):
                yield report(oracle, table, g, max_depth)
