"""Element literal grammar and the built-in group registry.

Group ids: Z<n>, F<n>, S3, L2, W<n> (Z_n wr Z), H2, Heis.

Literal forms (see parse_element):
    Z<n>     "(2,-3)"
    F<n>/S3  "a b a^-1"  or the generic word form "w: a b a^-1"
    L2       "L2{ -1,0,2 ; p=3 }", builders "d(3)", "d(5)*t^2"
    W<n>     "W3{ 1:2, 0:1 ; p=0 }"  (index:state pairs)
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

from .builtin import S3_WORDS, free_letter_label, make_free, make_s3, make_zn
from .core import CurvlabError, Element, GroupOracle
from .heisenberg import HEIS_ID, MalcevTriple, heis_oracle
from .houghton import H2_ID, HoughtonElement, h2_g, h2_h, h2_oracle, h2_u
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


def get_group(group_id: str) -> GroupOracle:
    if group_id == "S3":
        return make_s3()
    if group_id == L2_ID:
        return l2_oracle()
    if group_id == H2_ID:
        return h2_oracle()
    if group_id == HEIS_ID:
        return heis_oracle()
    m = re.fullmatch(r"Z([1-9]\d*)", group_id)
    if m:
        return make_zn(_group_size(m.group(1), group_id))
    m = re.fullmatch(r"F([1-9]\d*)", group_id)
    if m:
        return make_free(_group_size(m.group(1), group_id))
    m = re.fullmatch(r"W([2-9]|[1-9]\d+)", group_id)  # the lamp group Z_n must be nontrivial
    if m:
        return zn_wreath_oracle(_group_size(m.group(1), group_id))
    raise ParseError(group_id, _GROUP_RULE)


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


def _group_size(digits: str, group_id: str) -> int:
    """The n of a group id Z<n>, F<n> or W<n>, checked against MAX_BUILDER_SIZE before int() or the builder sees it."""
    return _int_field(digits, group_id, MAX_BUILDER_SIZE, _GROUP_RULE)


def _parse_int_list(text: str, token: str) -> list[int]:
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    if not all(re.fullmatch(r"[-+]?\d+", part) for part in parts):
        raise ParseError(token, "a comma-separated list of integers")
    return [_int_field(part, token) for part in parts]


def parse_element(group_id: str, text: str) -> Element:
    oracle = get_group(group_id)
    text = text.strip()
    if text.startswith("w:"):
        return _parse_word(oracle, text[2:])

    if group_id.startswith("Z"):  # Z^n coordinate vector
        m = re.fullmatch(r"\((.*)\)", text)
        if not m:
            raise ParseError(text, '"(c1,...,cn)" coordinates')
        coords = _parse_int_list(m.group(1), text)
        n = len(oracle.identity)
        if len(coords) != n:
            raise ParseError(text, f"{n} coordinates for {group_id}")
        return tuple(coords)

    if group_id == L2_ID:
        m = re.fullmatch(r"d\(([1-9]\d*)\)(?:\*t\^(-?\d+))?", text)
        if m:
            mval = _builder_size(m.group(1), text)
            return ll_dm_tk(mval, _int_field(m.group(2), text)) if m.group(2) else ll_make_dm(mval)
        m = re.fullmatch(r"L2\{(.*);\s*p=(-?\d+)\s*\}", text)
        if not m:
            raise ParseError(text, '"L2{ i1,i2,... ; p=<pos> }" or "d(m)" or "d(m)*t^k" with m >= 1')
        lamps = _parse_int_list(m.group(1), text)
        if len(set(lamps)) != len(lamps):
            raise ParseError(text, "distinct lamp indices")
        return LampConfig(tuple(sorted(lamps)), _int_field(m.group(2), text))

    if group_id.startswith("W"):
        m = re.fullmatch(r"W\d*\{(.*);\s*p=(-?\d+)\s*\}", text)
        if not m:
            raise ParseError(text, '"W<n>{ index:state, ... ; p=<pos> }"')
        lamps = {}
        body = m.group(1).strip()
        # generators are the nontrivial lamp states plus t and t^-1
        n_states = len(oracle.labels) - 2
        for pair in filter(None, (p.strip() for p in body.split(","))):
            pm = re.fullmatch(r"(-?\d+)\s*:\s*(\d+)", pair)
            if not pm:
                raise ParseError(pair, '"index:state"')
            state_rule = f"a nontrivial state in 1..{n_states}"
            idx, state = _int_field(pm.group(1), pair), _int_field(pm.group(2), pair, n_states, state_rule)
            if state == 0:
                raise ParseError(pair, state_rule)
            if idx in lamps:
                raise ParseError(pair, "distinct lamp indices")
            lamps[idx] = state
        return WreathConfig(tuple(sorted(lamps.items())), _int_field(m.group(2), text))

    if group_id == H2_ID:
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
        m = re.fullmatch(r"H2\{(.*);\s*shift=(-?\d+)\s*\}", text)
        if not m:
            raise ParseError(
                text, '"H2{ p:q, ... ; shift=<n> }" or a builder g(k) / h(k,m) / u(l,pos|neg) with k, l >= 1'
            )
        moves = {}
        for pair in filter(None, (p.strip() for p in m.group(1).split(","))):
            pm = re.fullmatch(r"(-?\d+)\s*:\s*(-?\d+)", pair)
            if not pm:
                raise ParseError(pair, '"point:image"')
            src, dst = _int_field(pm.group(1), pair), _int_field(pm.group(2), pair)
            if src == 0 or dst == 0:
                raise ParseError(pair, "nonzero bead indices")
            if src in moves:
                raise ParseError(pair, "distinct source points")
            moves[src] = dst
        el = HoughtonElement(_int_field(m.group(2), text), tuple(sorted(moves.items())))
        _validate_houghton(el, text)
        return el

    if group_id == HEIS_ID:
        m = re.fullmatch(r"(?:Heis)?\((-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\)", text)
        if not m:
            raise ParseError(text, '"Heis(A,B,C)"')
        return MalcevTriple(*(_int_field(field, text) for field in m.groups()))

    # free groups and S3: whitespace-separated generator words
    return _parse_word(oracle, text)


def _validate_houghton(el: HoughtonElement, token: str) -> None:
    from .houghton import bead_shift

    srcs = [p for p, _ in el.moves]
    dsts = [q for _, q in el.moves]
    if len(set(dsts)) != len(dsts):
        raise ParseError(token, "an injective exception table")
    expected_dsts = {bead_shift(p, el.shift) for p in srcs}
    if expected_dsts != set(dsts):
        raise ParseError(
            token, "an exception table that is a bijection against the shift outside it"
        )
    for p, q in el.moves:
        if q == bead_shift(p, el.shift):
            raise ParseError(token, "a trimmed exception table (no entries matching the shift)")


def format_element(group_id: str, el: Element) -> str:
    if group_id.startswith("Z"):
        return "(" + ",".join(str(c) for c in el) + ")"
    if group_id == L2_ID:
        lamps = ",".join(str(i) for i in el.lamps)
        return f"L2{{{lamps};p={el.pos}}}"
    if group_id.startswith("W"):
        lamps = ",".join(f"{i}:{s}" for i, s in el.lamps)
        return f"{group_id}{{{lamps};p={el.pos}}}"
    if group_id == H2_ID:
        moves = ",".join(f"{p}:{q}" for p, q in el.moves)
        return f"H2{{{moves};shift={el.shift}}}"
    if group_id == HEIS_ID:
        return f"Heis({el.a},{el.b},{el.c})"
    if group_id == "S3":
        return "w:" if el == 0 else "w: " + S3_WORDS[el]
    if group_id.startswith("F"):
        n = int(group_id[1:])
        if not el:
            return "w:"
        return "w: " + " ".join(free_letter_label(letter, n) for letter in el)
    raise ParseError(group_id, "a known group id")


def element_formatter(group_id: str):
    return lambda el: format_element(group_id, el)
