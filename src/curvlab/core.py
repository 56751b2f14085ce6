"""Group oracles, breadth-first word metrics, and sphere/ball enumeration.

Every group handled by this library is supplied as an explicit
:class:`GroupOracle`: generators, composition, inversion, identity, and a
canonical byte encoding of elements.  :func:`bfs_metric` turns an oracle into
a :class:`MetricTable` of exact word lengths out to a chosen horizon; it is
:func:`bfs_tree`, the library's one BFS, without the spanning tree that the
cache stores.  The table is both the metric source for groups without a
closed-form length and the independent cross-check for groups that have one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, repeat
from typing import Any, Callable, Iterable, Optional

Element = Any  # canonical hashable value; each oracle fixes its own shape

DEFAULT_BUDGET = 50_000_000


class CurvlabError(Exception):
    """Base class for errors raised by this library."""


class OutOfHorizonError(CurvlabError):
    """A word length was requested beyond the table horizon with no closed form to fall back on."""


class ResourceLimitError(CurvlabError):
    """BFS enumeration exceeded the configured element budget; lower the horizon or raise the budget."""


class DomainError(CurvlabError, ValueError):
    """An argument lies outside the domain of the requested quantity.

    Examples: a radius below 1, the identity (which has no curvature), a
    non-dead-end (which has no backtracks), or an empty Heisenberg sector.
    """


def plain_encode(value: Any) -> bytes:
    """Serialize a plain nested-tuple/int value to canonical bytes."""
    return repr(value).encode("ascii")


def rational_str(q: Fraction) -> str:
    """An exact rational as "numerator/denominator", also when the denominator is 1."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class GroupOracle:
    """A group presented through explicit arithmetic on canonical elements.

    ``encode`` must be injective (equal keys exactly for equal group
    elements); BFS layer order and all deterministic output orderings derive
    from the encode keys.  Nothing decodes a key.  Cache files store no keys,
    but their contents depend on the encode order of each layer and on the
    order of ``generators``, so changing either changes the file format.
    ``closed_length`` may return ``None`` for elements outside the domain of
    the closed formula, in which case callers fall back to a BFS table.
    ``labels[i]`` names ``generators[i]``; the labels are distinct and the
    generating set is symmetric: ``invert`` maps it onto itself.
    ``steps[i]`` is right multiplication by ``generators[i]``:
    ``steps[i](x) == compose(x, generators[i])``.  The BFS, cache loads, the
    escape search and :meth:`evaluate` make every product with one generator
    through them.  An oracle may pass faster ``right_steps``; otherwise the
    steps derive from ``compose``, and anew under ``dataclasses.replace(oracle,
    compose=f)``.  Construction checks ``steps[i](identity) == generators[i]``.
    """

    group_id: str
    labels: tuple[str, ...]
    generators: tuple[Element, ...]
    identity: Element
    compose: Callable[[Element, Element], Element]
    invert: Callable[[Element], Element]
    encode: Callable[[Element], bytes]
    closed_length: Optional[Callable[[Element], Optional[int]]] = None
    right_steps: Optional[tuple[Callable[[Element], Element], ...]] = field(default=None, repr=False)
    steps: tuple[Callable[[Element], Element], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise DomainError("generating set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("generator labels must be distinct")
        if len(self.labels) != len(self.generators):
            raise DomainError("there must be one label per generator")
        if {self.invert(gen) for gen in self.generators} != set(self.generators):
            raise DomainError("generating set must be closed under inversion")
        steps = self.right_steps
        if steps is None:
            steps = tuple((lambda x, gen=gen, compose=self.compose: compose(x, gen)) for gen in self.generators)
        if len(steps) != len(self.generators) or any(s(self.identity) != g for s, g in zip(steps, self.generators)):
            raise DomainError("there must be one step per generator, taking the identity to that generator")
        object.__setattr__(self, "steps", tuple(steps))

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{self.group_id} has no generator {label!r}") from None

    def generator(self, label: str) -> Element:
        return self.generators[self._index(label)]

    def evaluate(self, labels: Iterable[str]) -> Element:
        """Compose a word given as a sequence of generator labels."""
        out = self.identity
        for lab in labels:
            out = self.steps[self._index(lab)](out)
        return out

    def conjugate(self, g: Element, w: Element) -> Element:
        """w^-1 g w."""
        return self.compose(self.compose(self.invert(w), g), w)


@dataclass(frozen=True)
class MetricTable:
    """Exact word lengths for the ball of radius ``horizon`` around the identity.

    ``layers[r]`` holds the sphere of radius r sorted by encode key; the table
    is immutable after construction and safe for concurrent readers.
    """

    group_id: str
    horizon: int
    layers: tuple[tuple[Element, ...], ...]
    dist: dict[Element, int] = field(repr=False)

    def distance(self, element: Element) -> Optional[int]:
        return self.dist.get(element)

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)


def bfs_tree(
    oracle: GroupOracle, horizon: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[MetricTable, list[tuple[int, ...]]]:
    """Breadth-first enumeration of the ball of radius ``horizon``, with its spanning tree.

    Returns the table and ``tree``.  Layers are sorted by encode key, so the
    result is deterministic regardless of hash seeds.  ``tree[r - 1][j]`` is
    ``p * len(generators) + i`` for element j of layer r: that element is
    ``oracle.steps[i](layers[r - 1][p])``, where i is the least generator
    index that reaches it from the previous layer.  Generators are tried in
    index order over the whole previous layer and p -> p * g_i is injective,
    so the first product hitting an element gives that least i, with no extra
    product.

    Raises :class:`ResourceLimitError` once more than ``budget`` elements
    would be retained.
    """
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    n = len(oracle.steps)
    dist: dict[Element, int] = {oracle.identity: 0}
    layers: list[tuple[Element, ...]] = [(oracle.identity,)]
    tree: list[tuple[int, ...]] = []
    for r in range(1, horizon + 1):
        prev = layers[-1]
        codes: dict[Element, int] = {}
        for i, step in enumerate(oracle.steps):
            for code, el in zip(count(i, n), map(step, prev)):
                if el not in dist and el not in codes:
                    codes[el] = code
        if len(dist) + len(codes) > budget:
            raise ResourceLimitError(
                f"ball of radius {r} for {oracle.group_id} exceeds the element budget "
                f"({budget}); lower the horizon or raise the budget"
            )
        layer = tuple(sorted(codes, key=oracle.encode))
        dist.update(zip(layer, repeat(r)))
        layers.append(layer)
        tree.append(tuple(map(codes.__getitem__, layer)))
    return MetricTable(oracle.group_id, horizon, tuple(layers), dist), tree


def bfs_metric(oracle: GroupOracle, horizon: int, *, budget: int = DEFAULT_BUDGET) -> MetricTable:
    """The word-length table of the ball of radius ``horizon``: :func:`bfs_tree` without the tree."""
    return bfs_tree(oracle, horizon, budget=budget)[0]


def sphere(table: MetricTable, r: int) -> tuple[Element, ...]:
    """The sphere of radius r around the identity, in deterministic order."""
    if r < 0 or r > table.horizon:
        raise OutOfHorizonError(f"radius {r} outside table horizon {table.horizon}")
    return table.layers[r]


def ball(table: MetricTable, r: int) -> tuple[Element, ...]:
    """The ball of radius r around the identity (identity included)."""
    if r < 0 or r > table.horizon:
        raise OutOfHorizonError(f"radius {r} outside table horizon {table.horizon}")
    out: list[Element] = []
    for i in range(r + 1):
        out.extend(table.layers[i])
    return tuple(out)


def sphere_or_ball(table: MetricTable, r: int, mode: str) -> tuple[Element, ...]:
    """The sphere S_r (mode 'sphere') or the ball B_r (mode 'ball'); raises DomainError when it is empty."""
    if mode == "sphere":
        out = sphere(table, r)
    elif mode == "ball":
        out = ball(table, r)
    else:
        raise DomainError(f"mode must be 'sphere' or 'ball', got {mode!r}")
    if not out:
        raise DomainError(f"the {table.group_id} sphere of radius {r} is empty")
    return out


def word_length(oracle: GroupOracle, element: Element, table: Optional[MetricTable] = None) -> int:
    """Exact distance from the identity, from the table or the closed form.

    The two sources agree wherever both apply (checked exhaustively in the
    test suite); the table is consulted first because it is authoritative.
    """
    if table is not None:
        d = table.distance(element)
        if d is not None:
            return d
    if oracle.closed_length is not None:
        v = oracle.closed_length(element)
        if v is not None:
            return v
    raise OutOfHorizonError(
        f"a word length in {oracle.group_id} is not covered by the table"
        + (f" (horizon {table.horizon})" if table is not None else " (no table)")
        + " and no closed form applies; raise the horizon"
    )
