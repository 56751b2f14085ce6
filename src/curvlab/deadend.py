"""Dead-end detection, escape depth, strict depth, and backtrack elements.

All of them, strict depth and backtracks included, come from the escape
search: a breadth-first search from g that stops at the first element longer
than g, whose j-th layer is g S_j (w -> gw maps S_j onto the elements j steps
from g).  The table serves only word lengths; its horizon caps no result,
and a length it cannot decide raises OutOfHorizonError.  Depth bounds
(``max_depth``, the CLI's ``--max-depth`` and ``--bound``) are at least 1.

:func:`report` reads all of them off one search from g.  Its ``is_dead_end``
is True iff no generator product of g is strictly longer than g; any depth
bound settles it.  Its ``depth`` is the escape distance: the least k such
that some product of k generators takes g to an element strictly longer than
g, so non-dead-ends have depth 1; the ``witness`` path realizes it.

Its ``strict_depth`` is the uniform-descent radius: the largest k such that for
every r <= k and every w in the sphere S_r, |gw| <= |g| - r.  (The naive
chain condition |g| > |ga_1| > ... quantified over arbitrary generator
sequences is unsatisfiable for k >= 2 with symmetric generators, since a_2
may undo a_1; the spherical form is the one the nonnegative-curvature
argument actually consumes.)  Strict depth k guarantees kappa_r >= 0 for all
r < k.  No layer past r = |g| descends, so the search settles the strict
depth within |g| + 1 layers, whatever the depth bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    DomainError,
    Element,
    GroupOracle,
    MetricTable,
    OutOfHorizonError,
    sphere,
    word_length,
)


@dataclass(frozen=True)
class DeadEndReport:
    element: Element
    base_length: int
    is_dead_end: bool
    depth: Optional[int]  # None: no escape within the search depth
    strict_depth: int
    witness: Optional[tuple[str, ...]]  # generator labels realizing depth
    group_exhausted: bool  # no depth because the search visited a whole finite group; no bound helps

    def to_json_dict(self, format_element=repr) -> dict:
        return {
            "kind": "deadend",
            "element": format_element(self.element),
            "base_length": self.base_length,
            "is_dead_end": self.is_dead_end,
            "depth": self.depth,
            "depth_horizon_exceeded": self.depth is None and not self.group_exhausted,
            "group_exhausted": self.group_exhausted,
            "strict_depth": self.strict_depth,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _length_within(oracle: GroupOracle, table: MetricTable, el: Element, bound: int) -> Optional[int]:
    """|el| when it is at most ``bound``, otherwise None.

    Decidable even when el lies outside the table: absence from B_horizon
    means the length exceeds the horizon, which settles any bound within it.
    """
    try:
        n = word_length(oracle, el, table)
    except OutOfHorizonError:
        if bound <= table.horizon:
            return None
        raise
    return n if n <= bound else None


def _check_depth_bound(max_depth: int) -> None:
    if max_depth < 1:
        raise DomainError(f"the escape search needs a depth bound of at least 1, got {max_depth}")


def _search(oracle: GroupOracle, table: MetricTable, g: Element, max_depth: int):
    """The escape search from g: ``(base, layers, strict, witness)``.

    ``base`` is |g|, ``layers[j]`` is g S_j in discovery order, ``strict`` the
    strict depth, and ``witness`` a shortest generator path from g to an
    element longer than g, or None when every path of at most ``max_depth``
    steps stays within |g|.  The layers stop before the escape.  Past
    ``max_depth`` they run only while every layer so far descends, the last
    one to within |g| - 1, so no escape lies there.  They end with an empty
    layer exactly when the search exhausts a finite group.
    """
    _check_depth_bound(max_depth)
    base = word_length(oracle, g, table)
    parents: dict[Element, Optional[tuple[Element, str]]] = {g: None}
    layers: list[list[Element]] = [[g]]
    strict: Optional[int] = None
    while strict is None or len(layers) <= max_depth:
        j = len(layers)
        layer, longest = [], 0
        for el in layers[-1]:
            for label, step in zip(oracle.labels, oracle.steps):
                h = step(el)
                if h in parents:
                    continue
                parents[h] = (el, label)
                n = _length_within(oracle, table, h, base)
                if n is None:  # h escapes, so layer j fails the descent
                    word = []
                    while h != g:
                        h, label = parents[h]
                        word.append(label)
                    return base, layers, j - 1 if strict is None else strict, tuple(reversed(word))
                layer.append(h)
                longest = max(longest, n)
        if strict is None and (not layer or longest > base - j):
            strict = j - 1
        layers.append(layer)
        if not layer:  # finite group exhausted; no deeper layers exist
            break
    return base, layers, strict, None


def report(
    oracle: GroupOracle,
    table: MetricTable,
    g: Element,
    max_depth: int,
) -> DeadEndReport:
    base, layers, strict, witness = _search(oracle, table, g, max_depth)
    return DeadEndReport(
        element=g,
        base_length=base,
        is_dead_end=witness is None or len(witness) > 1,
        depth=None if witness is None else len(witness),
        strict_depth=strict,
        witness=witness,
        group_exhausted=not layers[-1],
    )


def backtrack_elements(
    oracle: GroupOracle,
    table: MetricTable,
    g: Element,
    bound: int,
) -> set[Element]:
    """All continuations g*w' with 1 <= |w'| < k that stay within |g|, k the escape depth of g.

    These are the layers g S_1, ..., g S_(k-1) before the escape at depth k,
    with no length test: an element of g S_j longer than |g| for some j < k
    would be an escape at depth j, against the minimality of k.  Raises
    DomainError when g is not a dead end or the search exhausts a finite
    group, and OutOfHorizonError when the depth exceeds ``bound``.
    """
    _, layers, _, witness = _search(oracle, table, g, bound)
    if witness is None:
        if not layers[-1]:
            raise DomainError(
                f"the escape search exhausted {oracle.group_id} without reaching a longer element; "
                "no bound gives backtracks"
            )
        raise OutOfHorizonError(f"the escape depth exceeds the bound {bound}; raise the bound to enumerate backtracks")
    if len(witness) == 1:
        raise DomainError("the element is not a dead end")
    return set().union(*layers[1:])


def scan(
    oracle: GroupOracle,
    table: MetricTable,
    radius: int,
    max_depth: int,
) -> Iterator[DeadEndReport]:
    """The report of every dead end in B_radius, in layer order, as a lazy iterator."""
    _check_depth_bound(max_depth)
    reports = (report(oracle, table, g, max_depth) for r in range(1, radius + 1) for g in sphere(table, r))
    return (rep for rep in reports if rep.is_dead_end)
