"""Reference oracles: Z^n, free groups F_n, and S_3 by multiplication table.

These are the calibration cases: Z^n and F_n come with closed-form word
lengths (L1 norm, reduced word length), S_3 is small enough that a BFS table
covers it entirely.
"""

from __future__ import annotations

import string
from fractions import Fraction

from .core import DomainError, GroupOracle


# ---------------------------------------------------------------------------
# Z^n with standard generators


def make_zn(n: int) -> GroupOracle:
    """Z^n; elements are integer coordinate tuples, length is the L1 norm."""
    if n < 1:
        raise DomainError("n must be at least 1")
    labels = []
    for i in range(n):
        labels += [f"a{i + 1}", f"a{i + 1}^-1"]
    gens = []
    for i in range(n):
        plus = tuple(1 if j == i else 0 for j in range(n))
        minus = tuple(-1 if j == i else 0 for j in range(n))
        gens += [plus, minus]
    return GroupOracle(
        group_id=f"Z{n}",
        labels=tuple(labels),
        generators=tuple(gens),
        identity=tuple(0 for _ in range(n)),
        compose=lambda x, y: tuple(a + b for a, b in zip(x, y)),
        invert=lambda x: tuple(-a for a in x),
        closed_length=lambda x: sum(abs(a) for a in x),
        right_steps=tuple((lambda x, i=i, d=d: x[:i] + (x[i] + d,) + x[i + 1 :]) for i in range(n) for d in (1, -1)),
    )


# ---------------------------------------------------------------------------
# Free groups; elements are freely reduced tuples of nonzero signed indices
# (+k / -k for the k-th generator and its inverse, 1-based).

_FREE_NAMES = string.ascii_lowercase


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
    labels = []
    gens = []
    for i in range(1, n + 1):
        labels += [free_letter_label(i, n), free_letter_label(-i, n)]
        gens += [(i,), (-i,)]
    return GroupOracle(
        group_id=f"F{n}",
        labels=tuple(labels),
        generators=tuple(gens),
        identity=(),
        compose=_free_mul,
        invert=lambda x: tuple(-a for a in reversed(x)),
        closed_length=len,
        # a letter cancels against the last one or is appended
        right_steps=tuple((lambda x, k=k: x[:-1] if x and x[-1] == -k else x + (k,)) for (k,) in gens),
    )


def free_gencon(n: int, g: tuple) -> Fraction:
    """Average conjugate length of a nonempty reduced word: |g| + 2 - 2/n."""
    if len(g) == 0:
        raise DomainError("the generator-conjugation average is undefined at the empty word")
    return Fraction(len(g)) + 2 - Fraction(2, n)


# ---------------------------------------------------------------------------
# S_3 = <s, t | s^2 = t^2 = 1, sts = tst>, hard-coded as a 6-element table.

# Elements indexed 0..5 in the order e, s, t, st, ts, sts; built once from
# the permutation model rather than by coset enumeration.
_S3_PERMS = {
    0: (0, 1, 2),
    1: (1, 0, 2),  # s
    2: (0, 2, 1),  # t
}
S3_WORDS = ("", "s", "t", "s t", "t s", "s t s")


def _perm_mul(p, q):
    return tuple(q[p[i]] for i in range(3))


def _build_s3_table() -> tuple[tuple[int, ...], ...]:
    perms = dict(_S3_PERMS)
    perms[3] = _perm_mul(perms[1], perms[2])  # st
    perms[4] = _perm_mul(perms[2], perms[1])  # ts
    perms[5] = _perm_mul(_perm_mul(perms[1], perms[2]), perms[1])  # sts
    index = {perm: i for i, perm in perms.items()}
    return tuple(
        tuple(index[_perm_mul(perms[i], perms[j])] for j in range(6)) for i in range(6)
    )


S3_TABLE = _build_s3_table()
_S3_INVERSE = tuple(next(j for j in range(6) if S3_TABLE[i][j] == 0) for i in range(6))


def make_s3() -> GroupOracle:
    """The symmetric group S_3 with the two involutive generators s and t."""
    return GroupOracle(
        group_id="S3",
        labels=("s", "t"),
        generators=(1, 2),
        identity=0,
        compose=lambda x, y: S3_TABLE[x][y],
        invert=lambda x: _S3_INVERSE[x],
        closed_length=None,
    )
