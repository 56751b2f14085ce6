"""Element literal grammar and the built-in group registry.

One table, _FAMILIES, gives each group family its id pattern, oracle builder,
literal parser and formatter; get_group, parse_element, format_element and
element_formatter look the group id up in it.

Literal forms (see parse_element):
    Z<n>     "(2,-3)"
    F<n>/S3  "a b a^-1"  or the generic word form "w: a b a^-1"
    L2       "L2{ -1,0,2 ; p=3 }", builders "d(3)", "d(5)*t^2"
    W<n>     "W3{ 1:2, 0:1 ; p=0 }"  (index:state pairs; the head is the group id)
    H2       "H2{ 1:2, 2:1, -1:-2, -2:-1 ; shift=0 }", builders "g(2)",
             "h(3,2)", "u(2,pos)", "u(2,neg)"
    Heis     "Heis(1,2,3)" or "(1,2,3)"

Any group also accepts "w: <labels>", a whitespace-separated generator word
with ^-1 (or ^<k>) powers and at most MAX_WORD_LETTERS letters in all, a^k
counting |k|.  The builders, and n in Z<n>, F<n> and W<n>, take sizes of at
most MAX_BUILDER_SIZE, and every other integer field at most MAX_INT_DIGITS
digits.
parse -> format -> parse is the identity on canonical forms.
"""

from __future__ import annotations

import re
from typing import Iterator

from .builtin import S3_WORDS, make_free, make_s3, make_zn
from .core import CurvlabError, Element, GroupOracle
from .heisenberg import HEIS_ID, MalcevTriple, heis_oracle
from .houghton import H2_ID, HoughtonElement, bead_shift, h2_g, h2_h, h2_oracle, h2_u
from .lamplighter import (
    L2_ID,
    LampConfig,
    WreathConfig,
    l2_oracle,
    ll_dm_tk,
    ll_make_dm,
    zn_wreath_oracle,
)


MAX_WORD_LETTERS = 10_000  # bound on the letters of a word literal, so parsing time is bounded
# bound on l, k and m in u(l,.), g(k), h(k,m) and d(m), and on n in the group ids Z<n>, F<n> and W<n>:
# u(300,pos) parses in about 0.5 s, and Z<n> builds 2n generators of n coordinates
MAX_BUILDER_SIZE = 300
MAX_INT_DIGITS = 100  # bound on the digits of the other integer fields: coordinates, lamp indices, p=, shift=, t^k


class ParseError(CurvlabError, ValueError):
    def __init__(self, token: str, rule: str):
        self.token = token
        self.rule = rule
        super().__init__(f"cannot parse {token!r}: expected {rule}")


_GROUP_RULE = (
    f"a group id of the form Zn or Fn (1 <= n <= {MAX_BUILDER_SIZE}), S3, L2, "
    f"Wn (2 <= n <= {MAX_BUILDER_SIZE}), H2 or Heis"
)


def _parse_word(oracle: GroupOracle, text: str) -> Element:
    out = oracle.identity
    letters = 0
    rule = f"a word of at most {MAX_WORD_LETTERS} letters, a^k counting |k|"
    for token in text.split():
        m = re.fullmatch(r"([^\^\s]+)(?:\^(-?)0*(\d+))?", token)
        if not m:
            raise ParseError(token, "a generator name with an optional ^<power>")
        name, minus, digits = m.group(1), m.group(2), m.group(3) or "1"
        try:
            gen = oracle.generator(name)
        except KeyError:
            raise ParseError(token, f"a generator of {oracle.group_id}") from None
        power = _int_field(digits, text.strip(), MAX_WORD_LETTERS, rule)
        letters += power
        if letters > MAX_WORD_LETTERS:
            raise ParseError(text.strip(), rule)
        if minus:
            gen = oracle.invert(gen)
        for _ in range(power):
            out = oracle.compose(out, gen)
    return out


_DIGITS_RULE = f"an integer of at most {MAX_INT_DIGITS} digits"


def _int_field(text: str, token: str, bound: int = 10**MAX_INT_DIGITS - 1, rule: str = _DIGITS_RULE) -> int:
    """The integer spelled by ``text``, an optionally signed digit string, if its absolute value is at most ``bound``.

    The digit count is checked before int() reads the string, so the cost of
    a rejection does not grow with its length; raises ParseError(token, rule).
    """
    if len(text.lstrip("+-").lstrip("0")) > len(str(bound)) or abs(int(text)) > bound:
        raise ParseError(token, rule)
    return int(text)


def _builder_size(digits: str, token: str) -> int:
    """The size argument of a builder literal, checked against MAX_BUILDER_SIZE before any work."""
    return _int_field(digits, token, MAX_BUILDER_SIZE, f"a builder size of at most {MAX_BUILDER_SIZE}")


def _parse_int_list(text: str, token: str) -> list[int]:
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    if not all(re.fullmatch(r"[-+]?\d+", part) for part in parts):
        raise ParseError(token, "a comma-separated list of integers")
    return [_int_field(part, token) for part in parts]


def _braced(text: str, head: str, key: str, rule: str) -> tuple[str, str]:
    """The body and the digits of key=<n> of the literal "<head>{ body ; key=<n> }"; else ParseError(text, rule)."""
    m = re.fullmatch(re.escape(head) + r"\{(.*);\s*" + key + r"=(-?\d+)\s*\}", text)
    if not m:
        raise ParseError(text, rule)
    return m.group(1), m.group(2)


def _pairs(body: str, rule: str, image: str = r"-?\d+") -> Iterator[tuple[str, int, str]]:
    """The "p:q" entries of a braced body as (entry, p, digits of q).

    An entry that is not p:q with q matching ``image`` raises ParseError(entry, rule).
    """
    for entry in filter(None, (e.strip() for e in body.split(","))):
        m = re.fullmatch(r"(-?\d+)\s*:\s*(" + image + ")", entry)
        if not m:
            raise ParseError(entry, rule)
        yield entry, _int_field(m.group(1), entry), m.group(2)


def _parse_zn(oracle: GroupOracle, text: str) -> tuple:
    m = re.fullmatch(r"\((.*)\)", text)
    if not m:
        raise ParseError(text, '"(c1,...,cn)" coordinates')
    coords = _parse_int_list(m.group(1), text)
    n = len(oracle.identity)
    if len(coords) != n:
        raise ParseError(text, f"{n} coordinates for {oracle.group_id}")
    return tuple(coords)


def _parse_l2(oracle: GroupOracle, text: str) -> LampConfig:
    m = re.fullmatch(r"d\(([1-9]\d*)\)(?:\*t\^(-?\d+))?", text)
    if m:
        mval = _builder_size(m.group(1), text)
        return ll_dm_tk(mval, _int_field(m.group(2), text)) if m.group(2) else ll_make_dm(mval)
    body, pos = _braced(text, L2_ID, "p", '"L2{ i1,i2,... ; p=<pos> }" or "d(m)" or "d(m)*t^k" with m >= 1')
    lamps = _parse_int_list(body, text)
    if len(set(lamps)) != len(lamps):
        raise ParseError(text, "distinct lamp indices")
    return LampConfig(tuple(sorted(lamps)), _int_field(pos, text))


def _parse_wreath(oracle: GroupOracle, text: str) -> WreathConfig:
    body, pos = _braced(text, oracle.group_id, "p", '"W<n>{ index:state, ... ; p=<pos> }"')
    # generators are the nontrivial lamp states plus t and t^-1
    n_states = len(oracle.labels) - 2
    state_rule = f"a nontrivial state in 1..{n_states}"
    lamps = {}
    for pair, idx, digits in _pairs(body, '"index:state"', r"\d+"):
        state = _int_field(digits, pair, n_states, state_rule)
        if state == 0:
            raise ParseError(pair, state_rule)
        if idx in lamps:
            raise ParseError(pair, "distinct lamp indices")
        lamps[idx] = state
    return WreathConfig(tuple(sorted(lamps.items())), _int_field(pos, text))


def _parse_h2(oracle: GroupOracle, text: str) -> HoughtonElement:
    m = re.fullmatch(r"g\(([1-9]\d*)\)", text)
    if m:
        return h2_g(_builder_size(m.group(1), text))
    m = re.fullmatch(r"h\((\d+)\s*,\s*(\d+)\)", text)
    if m:
        k, mm = _builder_size(m.group(1), text), _builder_size(m.group(2), text)
        if not 1 <= mm <= k:
            raise ParseError(text, "h(k,m) with 1 <= m <= k")
        return h2_h(k, mm)
    m = re.fullmatch(r"u\(([1-9]\d*)\s*,\s*(pos|neg)\)", text)
    if m:
        return h2_u(_builder_size(m.group(1), text), m.group(2))
    body, shift_digits = _braced(
        text, H2_ID, "shift", '"H2{ p:q, ... ; shift=<n> }" or a builder g(k) / h(k,m) / u(l,pos|neg) with k, l >= 1'
    )
    moves = {}
    for pair, src, digits in _pairs(body, '"point:image"'):
        dst = _int_field(digits, pair)
        if src == 0 or dst == 0:
            raise ParseError(pair, "nonzero bead indices")
        if src in moves:
            raise ParseError(pair, "distinct source points")
        moves[src] = dst
    shift = _int_field(shift_digits, text)
    if len(set(moves.values())) != len(moves):
        raise ParseError(text, "an injective exception table")
    if {bead_shift(p, shift) for p in moves} != set(moves.values()):
        raise ParseError(text, "an exception table that is a bijection against the shift outside it")
    if any(q == bead_shift(p, shift) for p, q in moves.items()):
        raise ParseError(text, "a trimmed exception table (no entries matching the shift)")
    return HoughtonElement(shift, tuple(sorted(moves.items())))


def _parse_heis(oracle: GroupOracle, text: str) -> MalcevTriple:
    m = re.fullmatch(r"(?:Heis)?\((-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\)", text)
    if not m:
        raise ParseError(text, '"Heis(A,B,C)"')
    return MalcevTriple(*(_int_field(field, text) for field in m.groups()))


# One row per group family: the id pattern (its groups are the sizes the builder takes), the oracle builder,
# the parser of the family's own literals (the word form "w: ..." is read for every family) and the formatter.
_FAMILIES = (
    (r"Z([1-9]\d*)", make_zn, _parse_zn, lambda oracle, el: "(" + ",".join(str(c) for c in el) + ")"),
    # the labels of F<n> come in pairs: generator k, then its inverse
    (r"F([1-9]\d*)", make_free, _parse_word,
     lambda oracle, el: " ".join(["w:", *(oracle.labels[2 * abs(k) - 1 - (k > 0)] for k in el)])),
    ("S3", make_s3, _parse_word, lambda oracle, el: " ".join(["w:", *S3_WORDS[el].split()])),
    (L2_ID, l2_oracle, _parse_l2, lambda oracle, el: f"L2{{{','.join(str(i) for i in el.lamps)};p={el.pos}}}"),
    # the lamp group Z_n must be nontrivial
    (r"W([2-9]|[1-9]\d+)", zn_wreath_oracle, _parse_wreath,
     lambda oracle, el: f"{oracle.group_id}{{{','.join(f'{i}:{s}' for i, s in el.lamps)};p={el.pos}}}"),
    (H2_ID, h2_oracle, _parse_h2,
     lambda oracle, el: f"H2{{{','.join(f'{p}:{q}' for p, q in el.moves)};shift={el.shift}}}"),
    (HEIS_ID, heis_oracle, _parse_heis, lambda oracle, el: f"Heis({el.a},{el.b},{el.c})"),
)


def _family(group_id: str):
    """The oracle of ``group_id`` with its family's parser and formatter.

    The size n of Z<n>, F<n> and W<n> is checked against MAX_BUILDER_SIZE before int() or the builder sees it.
    """
    for pattern, build, parse, fmt in _FAMILIES:
        m = re.fullmatch(pattern, group_id)
        if m:
            return build(*(_int_field(n, group_id, MAX_BUILDER_SIZE, _GROUP_RULE) for n in m.groups())), parse, fmt
    raise ParseError(group_id, _GROUP_RULE)


def get_group(group_id: str) -> GroupOracle:
    return _family(group_id)[0]


def parse_element(group_id: str, text: str) -> Element:
    oracle, parse, _ = _family(group_id)
    text = text.strip()
    return _parse_word(oracle, text[2:]) if text.startswith("w:") else parse(oracle, text)


def element_formatter(group_id: str):
    oracle, _, fmt = _family(group_id)
    return lambda el: fmt(oracle, el)


def format_element(group_id: str, el: Element) -> str:
    return element_formatter(group_id)(el)
