"""The acceptance criteria behind ``curvlab verify``.

Each criterion is a check returning its failures and notes; :data:`CRITERIA`
lists its id, title and check once, and :func:`run_criterion` times it and
writes its pass/fail line, for the CLI and the test suite alike.

Every check enumerates whole finite domains (balls, boxes, parameter
ranges); the tier sets only their sizes, never which checks run.  ``full``
takes L2 B_8 and Z_3 wr Z B_6 (criterion 1), llconjgen for m <= 6 (4),
Heisenberg B_10 and ceiling cases to A = 50 (6), censuses at k = 40 and 80
(7), and 200 solver matrices to 8x8, the Z2 box [-12, 12]^2 and dominance
on B_3 (8); ``fast`` takes B_6 and B_5, m <= 4, B_8 and A = 25, k = 40, and
60 matrices to 6x6, [-6, 6]^2 and B_2.  Criteria 2, 3, 5 and 9 run alike at
both tiers.  The one random input is criterion 8's seeded cost matrices: no
finite domain of 8x8 matrices is small enough to enumerate.  A ``curvlab
verify`` process takes about 0.3 s at ``fast`` and 2.7 s at ``full`` (2 cores,
Python 3.11).

Criterion 2 pins the depth of the lamplighter dead ends d_m: the escape depth
is 2m + 1, and a shortest escape path descends exactly m times.  See the
README section "Criterion 2: the depth of d_m" for the parity argument.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import deadend
from .builtin import make_free, make_s3, make_zn
from .core import ball, bfs_metric
from .curvature import kappa
from .heisenberg import (
    MalcevTriple,
    heis_ceil_jump,
    heis_density_experiment,
    heis_length,
    heis_oracle,
)
from .houghton import h2_g, h2_h, h2_min_length_bound, h2_oracle, h2_u
from .lamplighter import (
    LampConfig,
    l2_oracle,
    ll_dm_tk,
    ll_length,
    ll_make_dm,
    wr_length,
    zn_wreath_oracle,
)
from .transport import MeasureSpec, solve_assignment, transport_distance


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: str
    elapsed: float


Findings = tuple[list[str], list[str]]  # a check's failures and notes


def criterion_1(tier: str) -> Findings:
    """Closed-form lamplighter lengths agree with BFS on B_8 (L_2) and B_6 (Z_3 wr Z)."""
    failures: list[str] = []
    l2_h, w3_h = (8, 6) if tier == "full" else (6, 5)
    l2 = l2_oracle()
    table = bfs_metric(l2, l2_h)
    bad = sum(1 for el, d in table.dist.items() if ll_length(el) != d)
    if bad:
        failures.append(f"{bad} L2 mismatches in B_{l2_h}")
    w3 = zn_wreath_oracle(3)
    wt = bfs_metric(w3, w3_h)
    badw = sum(1 for el, d in wt.dist.items() if wr_length(el) != d)
    if badw:
        failures.append(f"{badw} Z3 wr Z mismatches in B_{w3_h}")
    notes = [f"L2 B_{l2_h}: {len(table.dist)} elements", f"W3 B_{w3_h}: {len(wt.dist)} elements"]
    return failures, notes


def criterion_2(tier: str) -> Findings:
    """d_3 dossier: length 19, exact escape profile, and the depth of d_m for m <= 4.

    The escape depth of d_m is 2m + 1; the witness path stays within |d_m|
    until its last step and descends exactly m times on the way.
    """
    failures: list[str] = []
    notes: list[str] = []
    oracle = l2_oracle()
    table = bfs_metric(oracle, 4)
    if ll_length(ll_make_dm(3)) != 19:
        failures.append(f"|d_3| = {ll_length(ll_make_dm(3))} != 19")
    profile = [ll_length(ll_dm_tk(3, i)) for i in range(8)]
    if profile != [19, 18, 17, 16, 17, 18, 19, 20]:
        failures.append(f"escape profile {profile}")
    depths, descents = {}, {}
    for m in range(1, 5):
        dm = ll_make_dm(m)
        base = ll_length(dm)
        rep = deadend.report(oracle, table, dm, max_depth=2 * m + 3)
        depths[m] = rep.depth
        if rep.depth != 2 * m + 1:
            failures.append(f"depth(d_{m}) = {rep.depth} != 2m+1 = {2 * m + 1}")
            continue
        if len(rep.witness) != rep.depth:
            failures.append(f"d_{m} witness {rep.witness} does not have length {rep.depth}")
            continue
        path = itertools.accumulate(
            rep.witness, lambda el, lab: oracle.compose(el, oracle.generator(lab)), initial=dm
        )
        lengths = [ll_length(el) for el in path]
        if max(lengths[:-1]) > base or lengths[-1] <= base:
            failures.append(
                f"d_{m} witness profile {lengths} does not escape |d_{m}| = {base} at its last step"
            )
        descents[m] = sum(b < a for a, b in zip(lengths, lengths[1:]))
        if descents[m] != m:
            failures.append(f"d_{m} witness descends {descents[m]} times, not m = {m}")
    notes.append("escape depths " + ", ".join(f"d_{m}->{d}" for m, d in depths.items()) + " (= 2m+1)")
    notes.append("witness descents " + ", ".join(f"d_{m}->{n}" for m, n in descents.items()) + " (= m)")
    return failures, notes


def criterion_3(tier: str) -> Findings:
    """Positive curvature of d_m t^k at the stated radii, both modes, exact values."""
    failures: list[str] = []
    oracle = l2_oracle()
    table = bfs_metric(oracle, 3)
    triples = [(5, 1, (1, 2, 3)), (5, 2, (1, 2)), (4, 1, (1, 2))]
    for m, k, radii in triples:
        g = ll_dm_tk(m, k)
        a = oracle.generator("a")
        aga = oracle.conjugate(g, a)
        if ll_length(aga) != 6 * m - k - 1:
            failures.append(f"D(aga) for d_{m}t^{k}: {ll_length(aga)} != 6m-k-1 = {6 * m - k - 1}")
        for r in radii:
            if m <= r + k:
                continue
            ks = kappa(oracle, table, g, r, "sphere").kappa
            if not ks > 0:
                failures.append(f"kappa_{r}^S(d_{m}t^{k}) = {ks} not > 0")
            if r < m - k:
                kb = kappa(oracle, table, g, r, "ball").kappa
                if not kb > 0:
                    failures.append(f"kappa_{r}^B(d_{m}t^{k}) = {kb} not > 0")
    rep = kappa(oracle, table, ll_dm_tk(3, 1), 1, "sphere")
    lengths = sorted(l for _, l in rep.breakdown)
    if lengths != [16, 18, 18]:
        failures.append(f"d_3 t breakdown {lengths} != [16, 18, 18]")
    if rep.kappa != Fraction(1, 27):
        failures.append(f"kappa_1(d_3 t) = {rep.kappa} != 1/27")
    notes = ["kappa_1(d_3 t) = 1/27 from breakdown {16,18,18}; D(aga) = 6m-k-1 throughout"]
    return failures, notes


def criterion_4(tier: str) -> Findings:
    """Conjugation lemmas, exhaustively over their hypotheses for m <= 6."""
    failures: list[str] = []
    oracle = l2_oracle()
    checked_tr = checked_gen = 0
    for m in range(2, 7):
        dm = ll_make_dm(m)
        for k in range(1, m):
            g = ll_dm_tk(m, k)
            base = ll_length(g)
            for r in range(1, m - k):
                tneg = oracle.evaluate(["t^-1"] * r)
                tpos = oracle.evaluate(["t"] * r)
                lhs1 = ll_length(oracle.compose(oracle.compose(tneg, dm), LampConfig((), k + r)))
                lhs2 = ll_length(oracle.compose(oracle.compose(tpos, dm), LampConfig((), k - r)))
                if not lhs1 == lhs2 == base:
                    failures.append(f"llconjtr fails at m={m}, k={k}, r={r}")
                checked_tr += 1
    # llconjgen: lamps at +-m lit, any interior subset, |pos| + |r| < m
    for m in range(2, 7):
        interior = list(range(-m + 1, m))
        for bits in range(2 ** len(interior)):
            lamps = [-m, m] + [interior[i] for i in range(len(interior)) if bits >> i & 1]
            lamps_t = tuple(sorted(lamps))
            for k in range(-m + 1, m):
                max_r = m - abs(k) - 1
                for r in range(1, max_r + 1):
                    w = LampConfig(lamps_t, k)
                    for rr in (r, -r):
                        tr = oracle.evaluate(["t"] * rr if rr > 0 else ["t^-1"] * (-rr))
                        conj = oracle.compose(oracle.compose(tr, w), oracle.invert(tr))
                        if ll_length(conj) != ll_length(w):
                            failures.append(f"llconjgen fails at m={m}, lamps={lamps_t}, k={k}, r={rr}")
                    checked_gen += 1
        if tier == "fast" and m >= 4:
            break
    notes = [f"llconjtr: {checked_tr} instances", f"llconjgen: {checked_gen} instances"]
    return failures, notes


def criterion_5(tier: str) -> Findings:
    """Houghton at horizon 12: u_2 length, g_2 dead end, kappa(h_22) > 0, moved-point bound."""
    failures: list[str] = []
    oracle = h2_oracle()
    table = bfs_metric(oracle, 12)
    u2 = h2_u(2)
    if table.distance(u2) != 11:
        failures.append(f"|u_2| = {table.distance(u2)} != 11")
    if not deadend.report(oracle, table, h2_g(2), 1).is_dead_end:
        failures.append("g_2 is not a dead end")
    h22 = h2_h(2, 2)
    for r in (1, 2):
        rep = kappa(oracle, table, h22, r, "sphere")
        if not rep.kappa > 0:
            failures.append(f"kappa_{r}(h_22) = {rep.kappa} not > 0")
        failures += [f"conjugation by {w} lengthens h_22" for w, n in rep.breakdown if n > rep.base_length]
    bad_bound = sum(1 for el, d in table.dist.items() if d < h2_min_length_bound(el))
    if bad_bound:
        failures.append(f"moved-point length bound fails on {bad_bound} elements")
    return failures, [f"|B_12| = {len(table.dist)}"]


def criterion_6(tier: str) -> Findings:
    """Heisenberg closed length vs BFS, branch agreement, ceiling case formulas."""
    failures: list[str] = []
    oracle = heis_oracle()
    horizon = 10 if tier == "full" else 8
    table = bfs_metric(oracle, horizon)
    bad = sum(1 for el, d in table.dist.items() if oracle.closed_length(el) != d)
    if bad:
        failures.append(f"{bad} elements disagree with BFS in B_{horizon}")
    for A in range(2, 61):
        for B in range(1, A):
            boundary = A * A - A * B
            if heis_length(MalcevTriple(A, B, boundary)) != 2 * -(-boundary // A) + A + B:
                failures.append(f"branch disagreement at A={A}, B={B}")
    checked = 0
    a_max = 50 if tier == "full" else 25
    for A in range(2, a_max + 1):
        for B in range(1, A):
            for t in range(1, 4):
                if B * t > A:
                    continue
                for s in range(1, A):
                    heis_ceil_jump(A, B, A * 3 + s, t)  # raises on any disagreement
                    checked += 1
    notes = [f"B_{horizon} agreement on all {len(table.dist)} elements", f"{checked} ceiling-case instances (B*t <= A)"]
    return failures, notes


def criterion_7(tier: str) -> Findings:
    """Sector sign structure at desk scale: all signs, exact prediction match, band shares."""
    failures: list[str] = []
    notes: list[str] = []
    combos = [(1, 40), (1, 80), (2, 40), (2, 80)] if tier == "full" else [(1, 40), (2, 40)]
    for r, k in combos:
        rep = heis_density_experiment(k, r)
        if not rep.all_signs_present():
            failures.append(f"(r={r}, k={k}): missing a sign, counts {rep.sign_counts}")
        if rep.mismatches:
            failures.append(f"(r={r}, k={k}): {len(rep.mismatches)} prediction mismatches")
        if not rep.band_fractions_ok():
            failures.append(f"(r={r}, k={k}): a band remainder fraction below 1/{5 * r}")
        notes.append(f"(r={r},k={k}): {rep.sign_counts}")
    return failures, notes


def criterion_8(tier: str) -> Findings:
    """Transport: solver vs brute force, the S_3 story, and kappa* against comparison kappa."""
    failures: list[str] = []
    notes: list[str] = []
    rng = random.Random(987654321)
    n_matrices = 200 if tier == "full" else 60
    max_n = 8 if tier == "full" else 6
    for trial in range(n_matrices):
        n = 2 + trial % (max_n - 1)
        cost = [[rng.randint(0, 30) for _ in range(n)] for _ in range(n)]
        opt = solve_assignment(cost)
        brute = min(
            sum(cost[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
        )
        if opt != brute:
            failures.append(f"solver {opt} != brute {brute} on matrix {trial}")
            break
    notes.append(f"{n_matrices} random matrices up to {max_n}x{max_n}")

    s3 = make_s3()
    t3 = bfs_metric(s3, 3)
    s = s3.generator("s")
    gencon = kappa(s3, t3, s, 1).comparison
    if gencon != 2:
        failures.append(f"GenCon(s) = {gencon} != 2")
    res = transport_distance(s3, t3, MeasureSpec(s, s3.identity, "sphere", 1))
    if res.t1 != 1:
        failures.append(f"S3 T1(s, e) = {res.t1} != 1")
    if res.kappa_star != 0:
        failures.append(f"S3 kappa*(s, e) = {res.kappa_star} != 0")
    if res.identity_optimal:
        failures.append("S3 (s, e): identity plan should not be optimal")
    sts = s3.evaluate(["s", "t", "s"])
    res2 = transport_distance(s3, t3, MeasureSpec(sts, s3.identity, "sphere", 1))
    if not res2.identity_optimal:
        failures.append("S3 (sts, e): identity plan should be optimal")

    # kappa*(x, y) = kappa_1(x^-1 y) in Z2 and F2; both sides depend only on x^-1 y, so x = e
    z2, f2 = make_zn(2), make_free(2)
    tz, tf = bfs_metric(z2, 4), bfs_metric(f2, 4)
    box = range(-12, 13) if tier == "full" else range(-6, 7)
    for o, table, domain in ((z2, tz, itertools.product(box, box)), (f2, tf, ball(tf, 4))):
        for g in domain:
            if g == o.identity:
                continue
            ks = transport_distance(o, table, MeasureSpec(o.identity, g)).kappa_star
            if ks != kappa(o, table, g, 1, "sphere").kappa:
                failures.append(f"{o.group_id} kappa*(e, g) != kappa_1(g) at g = {g}")
                break

    groups = [make_zn(1), z2, make_zn(3), f2, make_free(3), s3]
    radius = 3 if tier == "full" else 2
    checked = dominance_failures = 0
    for o in groups:
        table = bfs_metric(o, 3)  # S3's costs need the whole group
        for g in ball(table, radius):
            if g == o.identity:
                continue
            checked += 1
            ks = transport_distance(o, table, MeasureSpec(o.identity, g)).kappa_star
            if ks < kappa(o, table, g, 1, "sphere").kappa:
                dominance_failures += 1
    if dominance_failures:
        failures.append(f"kappa* < kappa_1 on {dominance_failures} of {checked} elements")
    notes.append(f"kappa* >= kappa_1 on all {checked} nonidentity elements of B_{radius} in {len(groups)} groups")
    return failures, notes


# The balls whose dead ends criterion 9 checks: d_2 in L2 B_13 has strict
# depth 2, as have four central dead ends in Heis B_10, and s t s in S3 has 3.
STRICT_DEPTH_BALLS = ((l2_oracle, 13), (heis_oracle, 10), (make_s3, 3))


def criterion_9(tier: str) -> Findings:
    """Strict-depth proposition: kappa_r >= 0 for every r below the strict depth of each dead end."""
    failures: list[str] = []
    balls = []
    pairs = 0
    for make_oracle, horizon in STRICT_DEPTH_BALLS:
        oracle = make_oracle()
        table = bfs_metric(oracle, horizon)
        balls.append(f"{oracle.group_id} B_{horizon}")
        for dead in deadend.scan(oracle, table, horizon, 1):
            for r in range(1, dead.strict_depth):
                pairs += 1
                k = kappa(oracle, table, dead.element, r, "sphere").kappa
                if k < 0:
                    failures.append(f"kappa_{r}({dead.element}) = {k} < 0 below strict depth {dead.strict_depth}")
    if pairs == 0:
        failures.append("no dead end of strict depth 2 or more, so no kappa_r was checked")
    notes = [f"kappa_r >= 0 on {pairs} (element, r) pairs with r below the strict depth in " + ", ".join(balls)]
    return failures, notes


CRITERIA: list[tuple[int, str, Callable[[str], Findings]]] = [
    (1, "lamplighter closed length = BFS", criterion_1),
    (2, "d_3 dossier and depth clause", criterion_2),
    (3, "lamplighter positive curvature", criterion_3),
    (4, "conjugation lemmas llconjtr/llconjgen", criterion_4),
    (5, "Houghton horizon-12 suite", criterion_5),
    (6, "Heisenberg length formula", criterion_6),
    (7, "Heisenberg signs and density", criterion_7),
    (8, "transport suite", criterion_8),
    (9, "strict-depth proposition", criterion_9),
]


def run_criterion(
    cid: int, title: str, check: Callable[[str], Findings], tier: str, writer=print
) -> CriterionResult:
    """Run ``check`` at ``tier``, time it, and write its pass/fail line."""
    started = time.perf_counter()
    failures, notes = check(tier)
    details = "; ".join(notes + [f"FAIL: {f}" for f in failures]) or "ok"
    res = CriterionResult(cid, title, not failures, details, time.perf_counter() - started)
    writer(f"[{'PASS' if res.passed else 'FAIL'}] criterion {cid}: {title} ({res.elapsed:.1f}s) - {details}")
    return res


def run_all(tier: str = "full", writer=print) -> list[CriterionResult]:
    return [run_criterion(*criterion, tier, writer) for criterion in CRITERIA]
