"""Reference oracles: Z^n, free groups F_n, and S_3 by multiplication table.

These are the calibration cases: Z^n and F_n come with closed-form word
lengths (L1 norm, reduced word length), S_3 is small enough that a BFS table
covers it entirely.
"""

from __future__ import annotations

from functools import reduce
from operator import add, neg

from .core import DomainError, GroupOracle


# ---------------------------------------------------------------------------
# Z^n with standard generators


def _l1_norm(x: tuple) -> int:
    return sum(map(abs, x))


def make_zn(n: int) -> GroupOracle:
    """Z^n; elements are integer coordinate tuples, length is the L1 norm."""
    if n < 1:
        raise DomainError("n must be at least 1")
    axes = [(i, d) for i in range(n) for d in (1, -1)]  # generator 2i is +e_i, generator 2i + 1 is -e_i
    return GroupOracle(
        group_id=f"Z{n}",
        labels=tuple(f"a{i + 1}" if d > 0 else f"a{i + 1}^-1" for i, d in axes),
        generators=tuple(tuple(d if j == i else 0 for j in range(n)) for i, d in axes),
        identity=tuple(0 for _ in range(n)),
        compose=lambda x, y: tuple(map(add, x, y)),
        invert=lambda x: tuple(map(neg, x)),
        closed_length=_l1_norm,
        right_steps=tuple((lambda x, i=i, d=d: x[:i] + (x[i] + d,) + x[i + 1 :]) for i, d in axes),
        conjugate_lengths=lambda g, ws: [_l1_norm(g)] * len(ws),  # the group is abelian: w^-1 g w = g
    )


# ---------------------------------------------------------------------------
# Free groups; elements are freely reduced tuples of nonzero signed indices
# (+k / -k for the k-th generator and its inverse, 1-based).

_FREE_NAMES = "abcdefghijklmnopqrstuvwxyz"


def free_letter_label(letter: int, n: int) -> str:
    name = _FREE_NAMES[abs(letter) - 1] if n <= 26 else f"x{abs(letter)}"
    return name if letter > 0 else f"{name}^-1"


def _free_mul(x: tuple, y: tuple) -> tuple:
    left = list(x)
    i = 0
    while left and i < len(y) and left[-1] == -y[i]:
        left.pop()
        i += 1
    return tuple(left) + tuple(y[i:])


def make_free(n: int) -> GroupOracle:
    """The free group F_n on n generators; length of a reduced word is its letter count."""
    if n < 1:
        raise DomainError("n must be at least 1")
    letters = [k for i in range(1, n + 1) for k in (i, -i)]  # generator 2i - 2 is the i-th letter, 2i - 1 its inverse
    return GroupOracle(
        group_id=f"F{n}",
        labels=tuple(free_letter_label(k, n) for k in letters),
        generators=tuple((k,) for k in letters),
        identity=(),
        compose=_free_mul,
        invert=lambda x: tuple(-a for a in reversed(x)),
        closed_length=len,
        # a letter cancels against the last one or is appended
        right_steps=tuple((lambda x, k=k: x[:-1] if x and x[-1] == -k else x + (k,)) for k in letters),
    )


# ---------------------------------------------------------------------------
# S_3 = <s, t | s^2 = t^2 = 1, sts = tst>, as a 6-element table built from the permutation model.

S3_WORDS = ("", "s", "t", "s t", "t s", "s t s")  # element i is the permutation of the word S3_WORDS[i]


def _perm_mul(p, q):  # p, then q
    return tuple(q[p[i]] for i in range(3))


_S3_GENERATORS = {"s": (1, 0, 2), "t": (0, 2, 1)}
_S3_PERMS = [reduce(_perm_mul, (_S3_GENERATORS[x] for x in word.split()), (0, 1, 2)) for word in S3_WORDS]
S3_TABLE = tuple(tuple(_S3_PERMS.index(_perm_mul(p, q)) for q in _S3_PERMS) for p in _S3_PERMS)
_S3_INVERSE = tuple(row.index(0) for row in S3_TABLE)


def make_s3() -> GroupOracle:
    """The symmetric group S_3 with the two involutive generators s and t."""
    return GroupOracle(
        group_id="S3",
        labels=("s", "t"),
        generators=(S3_WORDS.index("s"), S3_WORDS.index("t")),
        identity=0,
        compose=lambda x, y: S3_TABLE[x][y],
        invert=lambda x: _S3_INVERSE[x],
        closed_length=None,
    )
