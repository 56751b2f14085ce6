"""Group oracles, breadth-first word metrics, and sphere/ball enumeration.

Every group handled by this library is supplied as an explicit
:class:`GroupOracle`: generators, composition, inversion and identity, on
elements that are totally ordered by ``<``.
:func:`bfs_metric` turns an oracle into a :class:`MetricTable` of exact word
lengths out to a chosen horizon; it is :func:`bfs_tree`, the library's one
BFS, without the spanning tree that the cache stores.  The table is both the metric source for groups without a
closed-form length and the independent cross-check for groups that have one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import ne
from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Element = Any  # canonical hashable value; each oracle fixes its own shape

DEFAULT_BUDGET = 50_000_000
MAX_HORIZON = 10_000  # bfs_tree makes one pass per radius, also past the last layer of a finite group


class CurvlabError(Exception):
    """Base class for errors raised by this library."""


class OutOfHorizonError(CurvlabError):
    """A word length was requested beyond the table horizon with no closed form to fall back on."""


class ResourceLimitError(CurvlabError):
    """BFS enumeration exceeded the configured element budget; lower the horizon or raise the budget."""

    @classmethod
    def over_budget(cls, group_id: str, radius: int, budget: int) -> "ResourceLimitError":
        """The error for a ball whose layers 0..``radius`` hold more than ``budget`` elements."""
        return cls(
            f"ball of radius {radius} for {group_id} exceeds the element budget "
            f"({budget}); lower the horizon or raise the budget"
        )


class DomainError(CurvlabError, ValueError):
    """An argument lies outside the domain of the requested quantity.

    Examples: a radius below 1, the identity (which has no curvature), a
    non-dead-end (which has no backtracks), or an empty Heisenberg sector.
    """


def plain_encode(value: Any) -> bytes:
    """The ``repr`` of a value as ASCII bytes: injective on the elements of every built-in group."""
    return repr(value).encode("ascii")


def rational_str(q: Fraction) -> str:
    """An exact rational as "numerator/denominator", also when the denominator is 1."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class GroupOracle:
    """A group presented through explicit arithmetic on canonical elements.

    Elements are totally ordered by ``<``, consistently with ``==``: for any
    two, exactly one of ``x < y``, ``x == y``, ``y < x`` holds.  Ints and
    (named) tuples of ints, the elements of every built-in group, are.  BFS
    layer order and all deterministic output orderings derive from this
    order; construction checks that the generators sort.  Cache files store
    no elements, but their contents depend on the order of each layer and on
    the order of ``generators``, so changing either changes the file format.
    The library never reads ``encode``, which defaults to :func:`plain_encode`.
    ``closed_length``, when passed, is the word length in closed form, total
    and exact: it gives |g| for every g.  Without one, a BFS table does.
    ``labels[i]`` names ``generators[i]``; the labels are distinct and the
    generating set is symmetric: ``invert`` maps it onto itself.
    ``label_index[labels[i]]`` is i, so a word is read at one lookup a letter.
    ``inverses[i]`` is the index of the inverse of ``generators[i]``, found by
    that check; the BFS and the escape search read it.
    ``steps[i]`` is right multiplication by ``generators[i]``:
    ``steps[i](x) == compose(x, generators[i])``.  The BFS, cache loads, the
    escape search and :meth:`evaluate`, which reads every word literal, make
    every product with one generator through them.  An oracle may pass faster
    ``right_steps``; otherwise the steps derive from ``compose``, and anew
    under ``dataclasses.replace(oracle, compose=f)``.  Construction checks
    ``steps[i](identity) == generators[i]``.
    :meth:`conjugate` forms w^-1 g w with two ``compose`` calls and an
    ``invert``.  ``conjugate_lengths(g, ws)``, when passed, returns the word
    length of ``conjugate(g, w)`` for each w of ``ws``, in order, and ``[]``
    for no w, without forming the conjugates; :func:`curvature.kappa` reads
    every conjugate length through it.  Like ``closed_length`` it is total
    and exact: it agrees with the length of ``conjugate(g, w)`` for every g
    and w.  Like ``right_steps`` it is kept by ``dataclasses.replace``, and
    construction calls neither it nor ``compose``.
    """

    group_id: str
    labels: tuple[str, ...]
    generators: tuple[Element, ...]
    identity: Element
    compose: Callable[[Element, Element], Element]
    invert: Callable[[Element], Element]
    encode: Callable[[Element], bytes] = plain_encode
    closed_length: Optional[Callable[[Element], int]] = None
    right_steps: Optional[tuple[Callable[[Element], Element], ...]] = field(default=None, repr=False)
    conjugate_lengths: Optional[Callable[[Element, Sequence[Element]], list[int]]] = field(default=None, repr=False)
    steps: tuple[Callable[[Element], Element], ...] = field(init=False, repr=False, compare=False)
    inverses: tuple[int, ...] = field(init=False, repr=False, compare=False)
    label_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise DomainError("generating set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("generator labels must be distinct")
        if len(self.labels) != len(self.generators):
            raise DomainError("there must be one label per generator")
        index = {gen: j for j, gen in enumerate(self.generators)}
        inverses = tuple(index.get(self.invert(gen), -1) for gen in self.generators)
        if set(inverses) != set(index.values()):
            raise DomainError("generating set must be closed under inversion")
        steps = self.right_steps
        if steps is None:
            steps = tuple((lambda x, gen=gen, compose=self.compose: compose(x, gen)) for gen in self.generators)
        if len(steps) != len(self.generators) or any(s(self.identity) != g for s, g in zip(steps, self.generators)):
            raise DomainError("there must be one step per generator, taking the identity to that generator")
        try:
            sorted(self.generators)
        except TypeError:
            raise DomainError("generators must be totally ordered by <") from None
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "label_index", {label: j for j, label in enumerate(self.labels)})

    def _index(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
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

    ``layers[r]`` holds the sphere of radius r in increasing element order;
    the table is immutable after construction and safe for concurrent readers.
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

    Returns the table and ``tree``.  Each layer is sorted by the elements'
    own order (``<``), so the result is deterministic regardless of hash
    seeds.  ``tree[r - 1][j]`` is ``p * len(generators) + i`` for element j
    of layer r: that element is ``oracle.steps[i](layers[r - 1][p])``, where
    i is the least generator index that reaches it from the previous layer.
    Generators are tried in index order, each over the previous layer, and
    p -> p * g_i is injective, so the first product hitting an element gives
    that least i, with no extra product.  Each element of the previous layer
    skips the step by the inverse of the generator in its own code: that
    product is its parent, which lies in the ball already, so it could never
    give a code, and the least code of every element stays the one that all
    products give.

    Raises :class:`DomainError` for a horizon outside 0..``MAX_HORIZON``, and
    :class:`ResourceLimitError` once more than ``budget`` elements would be
    retained, the identity included.  The budget is checked after each
    generator's pass, so the walk holds at most ``budget`` + |S_(r-1)| elements.
    """
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    if horizon > MAX_HORIZON:
        raise DomainError(f"horizon {horizon} exceeds the largest supported horizon ({MAX_HORIZON})")
    if budget < 1:
        raise ResourceLimitError.over_budget(oracle.group_id, 0, budget)
    n = len(oracle.steps)
    dist: dict[Element, int] = {oracle.identity: 0}
    layers: list[tuple[Element, ...]] = [(oracle.identity,)]
    tree: list[tuple[int, ...]] = []
    backs = [-1]  # the generator that leads back to the parent; the identity has none
    for r in range(1, horizon + 1):
        prev = layers[-1]
        codes: dict[Element, int] = {}
        put = codes.setdefault  # the first code to reach an element stays
        for i, step in enumerate(oracle.steps):
            for code, el in compress(zip(count(i, n), prev), map(ne, backs, repeat(i))):
                el = step(el)
                if el not in dist:
                    put(el, code)
            if len(dist) + len(codes) > budget:
                raise ResourceLimitError.over_budget(oracle.group_id, r, budget)
        layer = tuple(sorted(codes))
        dist.update(zip(layer, repeat(r)))
        layers.append(layer)
        tree.append(tuple(map(codes.__getitem__, layer)))
        backs = list(map(oracle.inverses.__getitem__, map(n.__rmod__, tree[-1])))
    return MetricTable(oracle.group_id, horizon, tuple(layers), dist), tree


def bfs_metric(oracle: GroupOracle, horizon: int, *, budget: int = DEFAULT_BUDGET) -> MetricTable:
    """The word-length table of the ball of radius ``horizon``: :func:`bfs_tree` without the tree."""
    return bfs_tree(oracle, horizon, budget=budget)[0]


def _check_radius(table: MetricTable, r: int) -> None:
    if r < 0:
        raise DomainError(f"radius {r} is negative")
    if r > table.horizon:
        raise OutOfHorizonError(f"radius {r} outside table horizon {table.horizon}")


def sphere(table: MetricTable, r: int) -> tuple[Element, ...]:
    """The sphere of radius r around the identity, in deterministic order.

    Raises DomainError for a negative r and OutOfHorizonError above the horizon.
    """
    _check_radius(table, r)
    return table.layers[r]


def ball(table: MetricTable, r: int) -> tuple[Element, ...]:
    """The ball of radius r around the identity (identity included); raises as :func:`sphere` does."""
    _check_radius(table, r)
    out: list[Element] = []
    for i in range(r + 1):
        out.extend(table.layers[i])
    return tuple(out)


Support = Literal["sphere", "ball"]  # the support of a comparison or transport measure


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


def word_length(oracle: GroupOracle, element: Element, table: MetricTable) -> int:
    """Exact distance from the identity, from the table or the closed form.

    The two sources agree wherever both apply (checked exhaustively in the
    test suite); the table is consulted first because it is authoritative.
    """
    d = table.distance(element)
    if d is not None:
        return d
    if oracle.closed_length:
        return oracle.closed_length(element)
    raise OutOfHorizonError(
        f"a word length in {oracle.group_id} is not covered by the table (horizon {table.horizon})"
        " and no closed form applies; raise the horizon"
    )
