"""The lamplighter group L_2 = Z_2 wr Z and the rank-n lamplighters Z_n wr Z.

Elements are a finitely supported lamp configuration plus the lamplighter
position.  The composition law shifts the right factor's lamps by the left
factor's position, so that reading a generator word left to right matches the
walk-and-toggle story: ``t`` moves the lamplighter one step right and ``a``
(or a nontrivial state of Z_n) acts on the lamp under the lamplighter.

Conventions pinned here and validated against the frozen escape-profile
regression: the conjugate t^i a t^-i toggles the lamp at index +i, and the
w_m dead-end family lights every lamp in [-m, m] with the lamplighter back
at the origin.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import chain
from operator import xor
from typing import Mapping, NamedTuple, Sequence

from .core import DomainError, GroupOracle
from .literals import L2_ID


class LampConfig(NamedTuple):
    """A lamplighter-group element: sorted tuple of lit lamp indices, plus position."""

    lamps: tuple[int, ...]
    pos: int


class WreathConfig(NamedTuple):
    """A Z_n wr Z element: sorted (index, nontrivial state) pairs, plus position."""

    lamps: tuple[tuple[int, int], ...]
    pos: int


# ---------------------------------------------------------------------------
# Word length.  With N lamps lit, rightmost lit index R (0 if none positive),
# leftmost lit index -L (L = 0 if none negative) and final position p, the
# length is N + min(2L + R + |p - R|, 2R + L + |p + L|): sweep one way, then
# the other, then walk to p.  Empty configurations cost |p|.


def _sweep_length(n: int, lo: int, hi: int, pos: int) -> int:
    """The length above for n >= 1 lamps lit, the leftmost at ``lo`` and the rightmost at ``hi``."""
    r = hi if hi > 0 else 0
    l = -lo if lo < 0 else 0
    left_first, right_first = l + abs(pos - r), r + abs(pos + l)
    return n + l + r + (left_first if left_first < right_first else right_first)


def lamp_walk_length(indices, pos: int) -> int:
    """The length above for the lit lamp ``indices``, in increasing order, and the position ``pos``."""
    if not indices:
        return abs(pos)
    return _sweep_length(len(indices), indices[0], indices[-1], pos)


def ll_length(cfg: LampConfig) -> int:
    """Closed-form word length in L_2 over {a, t, t^-1}."""
    return lamp_walk_length(cfg.lamps, cfg.pos)


def wr_length(cfg: WreathConfig) -> int:
    """Closed-form word length in Z_n wr Z; every nontrivial state has weight 1."""
    return lamp_walk_length(tuple(i for i, _ in cfg.lamps), cfg.pos)


# ---------------------------------------------------------------------------
# Arithmetic


def _l2_compose(x: LampConfig, y: LampConfig) -> LampConfig:
    lamps = set(x.lamps)
    lamps.symmetric_difference_update(i + x.pos for i in y.lamps)
    return LampConfig(tuple(sorted(lamps)), x.pos + y.pos)


def _l2_invert(x: LampConfig) -> LampConfig:
    return LampConfig(tuple(sorted(i - x.pos for i in x.lamps)), -x.pos)


_new = tuple.__new__  # builds a NamedTuple without the call to its generated __new__


def _l2_toggle(x: LampConfig) -> LampConfig:
    """x a: toggle the lamp under the lamplighter."""
    lamps, pos = x
    k = bisect_left(lamps, pos)
    rest = lamps[k + 1 :] if k < len(lamps) and lamps[k] == pos else (pos,) + lamps[k:]
    return _new(LampConfig, (lamps[:k] + rest, pos))


def _l2_conjugate_lengths(g: LampConfig, ws: Sequence[LampConfig]) -> list[int]:
    """|w^-1 g w| for each w of ``ws``, in order, without forming the conjugates.

    The lit set of w^-1 g w is (F ^ H ^ (H + k)) - q for g = (F, k) and
    w = (H, q), with ^ the symmetric difference, and its length needs only
    the size and the two ends of that set.  Each site of F, of some H or of
    some H + k gets one bit, in increasing order of the sites, so a lit set
    is an int whose bit count is its size and whose lowest and highest bits
    are its ends.  The bits grow
    with the number of distinct sites, not with their span.  The mask is
    formed anew only when the lamps of w differ from those of the previous w.
    """
    lamps, k = g
    held = set(chain.from_iterable([w[0] for w in ws]))
    sites = sorted(held.union(lamps, [i + k for i in held]))
    bit = {site: 1 << j for j, site in enumerate(sites)}
    flip = {i: bit[i] ^ bit[i + k] for i in held}  # toggled by the lamp at i of H and its image in H + k
    base = reduce(xor, map(bit.__getitem__, lamps), 0)
    out = []
    prev = None
    for h, q in ws:
        if h != prev:
            prev, mask = h, reduce(xor, map(flip.__getitem__, h), base)
            if mask:
                n, lo, hi = mask.bit_count(), sites[(mask & -mask).bit_length() - 1], sites[mask.bit_length() - 1]
        out.append(_sweep_length(n, lo - q, hi - q, k) if mask else abs(k))
    return out


def _move(cls: type, d: int):
    """Right multiplication by t^d: the lamplighter walks, the lamps stay."""
    return lambda x: _new(cls, (x[0], x[1] + d))


def l2_oracle() -> GroupOracle:
    return GroupOracle(
        group_id=L2_ID,
        labels=("a", "t", "t^-1"),
        generators=(LampConfig((0,), 0), LampConfig((), 1), LampConfig((), -1)),
        identity=LampConfig((), 0),
        compose=_l2_compose,
        invert=_l2_invert,
        closed_length=ll_length,
        right_steps=(_l2_toggle, _move(LampConfig, 1), _move(LampConfig, -1)),
        conjugate_lengths=_l2_conjugate_lengths,
    )


def zn_wreath_oracle(n: int) -> GroupOracle:
    """Z_n wr Z, the rank-n lamplighter, over the lamp states s1..s(n-1) and t, t^-1."""
    if n < 2:
        raise DomainError("lamp group must be nontrivial")

    def compose(x: WreathConfig, y: WreathConfig) -> WreathConfig:
        lamps = dict(x.lamps)
        for i, state in y.lamps:
            j = i + x.pos
            merged = (lamps.get(j, 0) + state) % n
            if merged:
                lamps[j] = merged
            else:
                lamps.pop(j, None)
        return WreathConfig(tuple(sorted(lamps.items())), x.pos + y.pos)

    def act(state: int):
        """x times the lamp state ``state`` at 0: it acts on the lamp under the lamplighter."""

        def step(x: WreathConfig) -> WreathConfig:
            lamps, pos = x
            k = bisect_left(lamps, (pos,))
            lit = k < len(lamps) and lamps[k][0] == pos
            merged = ((lamps[k][1] if lit else 0) + state) % n
            kept = ((pos, merged),) if merged else ()
            return _new(WreathConfig, (lamps[:k] + kept + lamps[k + lit :], pos))

        return step

    def invert(x: WreathConfig) -> WreathConfig:
        return WreathConfig(tuple(sorted((i - x.pos, -state % n) for i, state in x.lamps)), -x.pos)

    def conjugate_lengths(g: WreathConfig, ws: Sequence[WreathConfig]) -> list[int]:
        """|w^-1 g w| for each w of ``ws``, in order.

        w^-1 g w = ((F - H + (H + k)) - q, k) for g = (F, k) and w = (H, q),
        lamp states added mod n; its length needs only its lit sites.
        """
        lamps, k = g
        out = []
        for h, q in ws:
            states = dict(lamps)
            for i, state in h:
                states[i] = states.get(i, 0) - state
                states[i + k] = states.get(i + k, 0) + state
            out.append(lamp_walk_length(sorted([i - q for i, state in states.items() if state % n]), k))
        return out

    states = range(1, n)
    return GroupOracle(
        group_id=f"W{n}",
        labels=tuple(f"s{k}" for k in states) + ("t", "t^-1"),
        generators=tuple(WreathConfig(((0, k),), 0) for k in states) + (WreathConfig((), 1), WreathConfig((), -1)),
        identity=WreathConfig((), 0),
        compose=compose,
        invert=invert,
        closed_length=wr_length,
        right_steps=tuple(map(act, states)) + (_move(WreathConfig, 1), _move(WreathConfig, -1)),
        conjugate_lengths=conjugate_lengths,
    )


# ---------------------------------------------------------------------------
# The dead-end family and geodesic spellings


def ll_make_dm(m: int) -> LampConfig:
    """Every lamp in [-m, m] lit, lamplighter back at the origin."""
    if m < 1:
        raise DomainError("m must be at least 1")
    return LampConfig(tuple(range(-m, m + 1)), 0)


def ll_dm_tk(m: int, k: int) -> LampConfig:
    """The backtrack element d_m t^k."""
    return LampConfig(ll_make_dm(m).lamps, k)


def wr_make_dm(n: int, states: Mapping[int, int]) -> WreathConfig:
    """The d_m analogue in Z_n wr Z: chosen nontrivial states on exactly [-m, m]."""
    if not states:
        raise DomainError("states must cover [-m, m] for some m >= 1")
    m = max(states)
    if m < 1 or sorted(states) != list(range(-m, m + 1)):
        raise DomainError("state indices must be exactly the interval [-m, m] with m >= 1")
    for i, state in states.items():
        if state == 0:
            raise DomainError(f"state at index {i} is the identity of the lamp group")
        if not 0 <= state < n:
            raise DomainError(f"state at index {i} is not an element of the lamp group")
    return WreathConfig(tuple(sorted(states.items())), 0)


def _walk_stops(indices, pos: int) -> list[int]:
    negs = sorted((i for i in indices if i < 0), reverse=True)
    nonnegs = sorted(i for i in indices if i >= 0)
    # Left-first is optimal when the final position is nonnegative, right-first
    # otherwise; ties agree, so the sign of pos decides.
    return negs + nonnegs if pos >= 0 else nonnegs + negs


def ll_geodesic(cfg: LampConfig) -> tuple[str, ...]:
    """A geodesic generator word evaluating to cfg (left-first for pos >= 0)."""
    word: list[str] = []
    cur = 0
    for stop in _walk_stops(cfg.lamps, cfg.pos):
        word.extend(["t" if stop > cur else "t^-1"] * abs(stop - cur))
        cur = stop
        word.append("a")
    word.extend(["t" if cfg.pos > cur else "t^-1"] * abs(cfg.pos - cur))
    return tuple(word)


def ll_embed_in_dead_end(w: LampConfig) -> tuple[int, tuple[str, ...]]:
    """Smallest M with a geodesic spelling of w extending to one of d_M.

    Returns (M, u) where u is a generator word such that ll_geodesic(w) + u
    is a geodesic spelling of d_M, i.e. |w^-1 d_M| = |d_M| - |w|.

    Not every word admits such an M: a walk that passes an unlit lamp twice
    (lamps {0, 2}, back at 0, say) has spent both passes of the skipped
    position, and the shortfall |w^-1 d_M| - (|d_M| - |w|) is the same for
    every M beyond the word's span.  Such inputs raise :class:`DomainError`;
    the search bound below is decisive because both sides of the equation
    grow by exactly 6 per unit of M once d_M's rim clears the word.
    """
    oracle = l2_oracle()
    w_len = ll_length(w)
    reach = max([abs(i) for i in w.lamps] + [abs(w.pos)], default=0)

    def deficit(m: int) -> int:
        target = ll_make_dm(m)
        rest = oracle.compose(oracle.invert(w), target)
        return ll_length(rest) - (ll_length(target) - w_len)

    top = reach + 3
    for m in range(1, top + 1):
        if deficit(m) == 0:
            return m, ll_geodesic(oracle.compose(oracle.invert(w), ll_make_dm(m)))
    if deficit(top) != deficit(top - 1):
        raise AssertionError("deficit did not stabilize; search bound too small")
    raise DomainError(
        f"{w} is not a geodesic prefix of any d_M (stable length deficit {deficit(top)})"
    )
