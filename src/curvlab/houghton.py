"""Houghton's group H_2 as eventually-translating bijections of Z minus {0}.

Beads sit at the nonzero integers in the order ..., -2, -1, 1, 2, ...; the
translation generator s slides everything one step rightward in that order
(so -1 maps to 1), and sigma transposes the beads -1 and 1.  An element is
stored as its shift (net translation) plus the finite table of points where
it disagrees with the pure shift.  Products compose left to right: the word
x y acts as "apply x, then y".

The u_l spelling walks out to the l-th pair, bubbles it across, and walks
home; its evaluation is the transposition of the beads -l and l.  The
elements h(k, m) = u_k ... u_m (k >= m) transpose every pair +-l with
m <= l <= k, and g(k) = h(k, 1) is the dead-end family.
"""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple

from .core import DomainError, GroupOracle
from .literals import H2_ID


class HoughtonElement(NamedTuple):
    shift: int
    moves: tuple[tuple[int, int], ...]  # sorted (point, image) pairs off the pure shift


H2_IDENTITY = HoughtonElement(0, ())
SIGMA = HoughtonElement(0, ((-1, 1), (1, -1)))
S_RIGHT = HoughtonElement(1, ())


def bead_shift(p: int, n: int) -> int:
    """Translate the bead index p by n steps in the order ..., -2, -1, 1, 2, ..."""
    q = (p - 1 if p > 0 else p) + n
    return q + 1 if q >= 0 else q


def h2_compose(x: HoughtonElement, y: HoughtonElement) -> HoughtonElement:
    xm = dict(x.moves)
    ym = dict(y.moves)
    shift = x.shift + y.shift
    cands = set(xm)
    if ym:
        xinv = {dst: src for src, dst in x.moves}
        for p in ym:
            cands.add(xinv.get(p, bead_shift(p, -x.shift)))
    moves = []
    for p in cands:
        q = xm.get(p, bead_shift(p, x.shift))
        q = ym.get(q, bead_shift(q, y.shift))
        if q != bead_shift(p, shift):
            moves.append((p, q))
    return HoughtonElement(shift, tuple(sorted(moves)))


_new = tuple.__new__  # builds a NamedTuple without the call to its generated __new__


def _h2_right(x: HoughtonElement) -> HoughtonElement:
    """x s: every moved point keeps its place, and its image slides one bead right (-1 to 1)."""
    return _new(HoughtonElement, (x[0] + 1, tuple([(p, q + 1 + (q == -1)) for p, q in x[1]])))


def _h2_left(x: HoughtonElement) -> HoughtonElement:
    """x s^-1: as :func:`_h2_right`, one bead left (1 to -1)."""
    return _new(HoughtonElement, (x[0] - 1, tuple([(p, q - 1 - (q == 1)) for p, q in x[1]])))


def _h2_sigma(x: HoughtonElement) -> HoughtonElement:
    """x sigma: the images -1 and 1 swap, including those of the two points the pure shift sends there.

    A moved point whose image is -1 or 1 gets the other one, and leaves the
    table if that is its pure-shift image.  An image with no moved point is
    the pure-shift image of an unmoved point, which gets the other one and
    joins the table.
    """
    shift, moves = x
    images = [q for _, q in moves]
    out = list(moves)
    drop, added = [], []
    for q in (-1, 1):
        if q in images:
            k = images.index(q)
            p = moves[k][0]
            if bead_shift(p, shift) == -q:
                drop.append(k)
            else:
                out[k] = (p, -q)
        else:
            added.append((bead_shift(q, -shift), -q))
    for k in sorted(drop, reverse=True):
        del out[k]
    for pair in added:
        insort(out, pair)
    return _new(HoughtonElement, (shift, tuple(out)))


def h2_invert(x: HoughtonElement) -> HoughtonElement:
    return HoughtonElement(-x.shift, tuple(sorted((dst, src) for src, dst in x.moves)))


def h2_oracle() -> GroupOracle:
    return GroupOracle(
        group_id=H2_ID,
        labels=("sigma", "s", "s^-1"),
        generators=(SIGMA, S_RIGHT, HoughtonElement(-1, ())),
        identity=H2_IDENTITY,
        compose=h2_compose,
        invert=h2_invert,
        closed_length=None,  # no closed form exists; BFS is the metric source
        right_steps=(_h2_sigma, _h2_right, _h2_left),
    )


def h2_u_word(l: int, orientation: str = "neg") -> tuple[str, ...]:
    """The four-block spelling of u_l; length 10l - 9.

    ``neg`` walks left first; ``pos`` is its mirror image (s and s^-1
    exchanged), walking right first.  Both evaluate to the same element.
    """
    if l < 1:
        raise DomainError("l must be at least 1")
    if orientation not in ("neg", "pos"):
        raise DomainError("orientation must be 'neg' or 'pos'")
    fwd, back = ("s", "s^-1") if orientation == "neg" else ("s^-1", "s")
    n = l - 1
    word = [back] * n
    word += ["sigma", fwd] * (2 * n)
    word += ["sigma", back] * (2 * n)
    word += ["sigma"]
    word += [fwd] * n
    return tuple(word)


def h2_u(l: int, orientation: str = "neg") -> HoughtonElement:
    """Evaluation of the u_l spelling: the transposition of beads -l and l."""
    oracle = h2_oracle()
    return oracle.evaluate(h2_u_word(l, orientation))


def h2_transposition(l: int) -> HoughtonElement:
    """The bead transposition (-l, l) written directly."""
    if l < 1:
        raise DomainError("l must be at least 1")
    return HoughtonElement(0, ((-l, l), (l, -l)))


def h2_h(k: int, m: int) -> HoughtonElement:
    """The element transposing the bead pairs +-l for m <= l <= k, shift 0."""
    if not 1 <= m <= k:
        raise DomainError(f"need 1 <= m <= k, got k={k}, m={m}")
    out = H2_IDENTITY
    for l in range(k, m - 1, -1):
        out = h2_compose(out, h2_transposition(l))
    return out


def h2_g(k: int) -> HoughtonElement:
    """The dead-end element g_k = h(k, 1)."""
    return h2_h(k, 1)


def h2_moved_points(x: HoughtonElement) -> frozenset[int]:
    """Beads whose position or occupant differs from the pure translation.

    For shift zero this is exactly the support of the permutation; for
    nonzero shift the literal support is infinite and this finite disturbance
    set is the right input to the length bound below.
    """
    pts = set()
    for src, dst in x.moves:
        pts.add(src)
        pts.add(dst)
    return frozenset(pts)


def h2_min_length_bound(x: HoughtonElement) -> int:
    """|x| >= max |r| over moved beads r: reaching r costs |r| - 1 steps plus a swap."""
    pts = h2_moved_points(x)
    return max((abs(p) for p in pts), default=0)
