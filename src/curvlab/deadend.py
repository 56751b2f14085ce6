"""Dead-end detection, escape depth, strict depth, and backtrack elements.

All of them, strict depth and backtracks included, come from the escape
search: a breadth-first search from g that stops at the first element longer
than g, whose j-th layer is g S_j (w -> gw maps S_j onto the elements j steps
from g).  The table serves only word lengths; its horizon caps no result,
and of those lengths only |g| may be undecidable (OutOfHorizonError).
Depth bounds (``max_depth``, the CLI's ``--max-depth`` and ``--bound``) are
at least 1.

:func:`report` reads all of them off one search from g.  Its ``is_dead_end``
is True iff no generator product of g is strictly longer than g; any depth
bound settles it.  :func:`scan` settles it first with one pass over the
generator steps of each candidate, in generator order and with the search's
own length rule, and runs the search only on the candidates that pass.  Its
``depth`` is the escape distance: the least k such that some product of k
generators takes g to an element strictly longer than g, so non-dead-ends
have depth 1; the ``witness`` path realizes it.

Its ``strict_depth`` is the uniform-descent radius: the largest k such that for
every r <= k and every w in the sphere S_r, |gw| <= |g| - r.  (The naive
chain condition |g| > |ga_1| > ... quantified over arbitrary generator
sequences is unsatisfiable for k >= 2 with symmetric generators, since a_2
may undo a_1; the spherical form is the one the nonnegative-curvature
argument actually consumes.)  Strict depth k guarantees kappa_r >= 0 for all
r < k.  No layer past r = |g| descends, so the search settles the strict
depth within |g| + 1 layers, whatever the depth bound.

The search evaluates a length only where an escape is possible.  Every
generator step s has |x s| <= |x| + 1, so a product of an element of length
at most |g| - 1 is no longer than g.  Each element of the last layer carries
its slack, |g| minus an upper bound on its length, capped at 255 to fit a
``bytearray``: a product of an element with slack 0 gets its length, and any
other inherits the slack less one.  Until the strict depth is settled every
length is exact, since the descent test needs the longest of each layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    DEFAULT_BUDGET,
    DomainError,
    Element,
    GroupOracle,
    MetricTable,
    OutOfHorizonError,
    ResourceLimitError,
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


def _check_depth_bound(max_depth: int) -> None:
    if max_depth < 1:
        raise DomainError(f"the escape search needs a depth bound of at least 1, got {max_depth}")


def _length_or_none(dist, closed, h: Element) -> Optional[int]:
    """|h| as :func:`core.word_length` finds it, or None when off the table with no closed form (|h| > horizon)."""
    n = dist(h)
    return closed(h) if n is None and closed is not None else n


def _search(oracle: GroupOracle, table: MetricTable, g: Element, max_depth: int, *, budget: int = DEFAULT_BUDGET):
    """The escape search from g: ``(base, layers, strict, witness)``.

    ``base`` is |g|, ``layers[j]`` is g S_j in discovery order, ``strict`` the
    strict depth, and ``witness`` a shortest generator path from g to an
    element longer than g, or None when every path of at most ``max_depth``
    steps stays within |g|.  The layers stop before the escape.  Past
    ``max_depth`` they run only while every layer so far descends, the last
    one to within |g| - 1, so no escape lies there.  They end with an empty
    layer exactly when the search exhausts a finite group.  The one record is
    ``reached``: each element found maps to the index of the generator that
    reached it (g to ``len(oracle.steps)``), and beside it only the slacks of
    the last layer are kept.  An element skips the step by that generator's
    inverse, whose product is its parent, and the witness is read back from
    the escaping element through the same inverse steps.
    Raises :class:`ResourceLimitError` before a layer when ``reached`` holds
    more than ``budget`` elements, so the search holds at most ``budget`` and
    the products of one layer.
    """
    _check_depth_bound(max_depth)
    base = word_length(oracle, g, table)
    steps, dist, closed = oracle.steps, table.distance, oracle.closed_length
    back = (*oracle.inverses, -1)  # the generator that leads back to the parent; g has none
    reached: dict[Element, int] = {g: len(steps)}
    layers: list[list[Element]] = [[g]]
    slacks = bytearray(1)  # of the last layer: |g| less an upper bound on each length, at most 255
    strict: Optional[int] = None
    while strict is None or len(layers) <= max_depth:
        j = len(layers)
        if len(reached) > budget:
            raise ResourceLimitError(
                f"the escape search holds more than {budget} elements within depth {j - 1}; raise the budget"
            )
        layer, slack, longest, settled = [], bytearray(), 0, strict is not None
        for el, s in zip(layers[-1], slacks):
            skip = back[reached[el]]
            for i, step in enumerate(steps):
                if i == skip:  # the product is the parent of el
                    continue
                h = step(el)
                if h in reached:
                    continue
                reached[h] = i
                if s and settled:  # |h| <= |el| + 1 <= |g| - s + 1: no escape, and no length needed
                    layer.append(h)
                    slack.append(s - 1)
                    continue
                n = _length_or_none(dist, closed, h)
                if n is None or n > base:  # h escapes
                    word = []
                    while h != g:
                        i = reached[h]
                        word.append(oracle.labels[i])
                        h = steps[back[i]](h)
                    return base, layers, j - 1 if strict is None else strict, tuple(reversed(word))
                layer.append(h)
                slack.append(min(base - n, 255))
                if n > longest:
                    longest = n
        if strict is None and (not layer or longest > base - j):
            strict = j - 1
        layers.append(layer)
        slacks = slack
        if not layer:  # finite group exhausted; no deeper layers exist
            break
    return base, layers, strict, None


def report(
    oracle: GroupOracle, table: MetricTable, g: Element, max_depth: int, *, budget: int = DEFAULT_BUDGET
) -> DeadEndReport:
    base, layers, strict, witness = _search(oracle, table, g, max_depth, budget=budget)
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
    oracle: GroupOracle, table: MetricTable, g: Element, bound: int, *, budget: int = DEFAULT_BUDGET
) -> set[Element]:
    """All continuations g*w' with 1 <= |w'| < k that stay within |g|, k the escape depth of g.

    These are the layers g S_1, ..., g S_(k-1) before the escape at depth k,
    with no length test: an element of g S_j longer than |g| for some j < k
    would be an escape at depth j, against the minimality of k.  Raises
    DomainError when g is not a dead end or the search exhausts a finite
    group, and OutOfHorizonError when the depth exceeds ``bound``.  Raises
    ResourceLimitError once the search holds more than ``budget`` elements.
    """
    _, layers, _, witness = _search(oracle, table, g, bound, budget=budget)
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
    oracle: GroupOracle, table: MetricTable, radius: int, max_depth: int, *, budget: int = DEFAULT_BUDGET
) -> Iterator[DeadEndReport]:
    """The report of every dead end in B_radius, in layer order, as a lazy iterator.

    Each candidate g of S_r, so |g| = r, is first tested with one pass over its
    generator steps, stopping at the first product longer than r; only those
    with no escaping step get the full escape search and a report.
    """
    _check_depth_bound(max_depth)
    steps, dist, closed = oracle.steps, table.distance, oracle.closed_length

    def stays(g: Element, r: int) -> bool:
        for step in steps:
            n = _length_or_none(dist, closed, step(g))
            if n is None or n > r:
                return False
        return True

    return (
        report(oracle, table, g, max_depth, budget=budget)
        for r in range(1, radius + 1)
        for g in sphere(table, r)
        if stays(g, r)
    )
