"""Comparison curvature versus transport curvature.

The comparison distance always moves mass along the identity plan w -> w;
the transport distance may do better.  This walkthrough shows the two agree
on abelian and free groups, splits on S_3, and probes which groups keep the
identity plan optimal.
"""

from curvlab.builtin import make_free, make_s3, make_zn
from curvlab.core import ball, bfs_metric
from curvlab.curvature import kappa
from curvlab.transport import MeasureSpec, question_probe, transport_distance


def main():
    print("== S_3: the identity plan is beaten ==")
    s3 = make_s3()
    t3 = bfs_metric(s3, 3)
    s = s3.generator("s")
    res = transport_distance(s3, t3, MeasureSpec(s, s3.identity, "sphere", 1))
    curv = kappa(s3, t3, s, 1)
    print(f"GenCon(s, e) = {curv.comparison}  (the identity plan)")
    print(f"T_1(s, e) = {res.t1} via the swap permutation {res.permutations[0]}")
    print(f"kappa*(s, e) = {res.kappa_star}  vs  kappa_1(s) = {curv.kappa}")
    sts = s3.evaluate(["s", "t", "s"])
    res2 = transport_distance(s3, t3, MeasureSpec(sts, s3.identity, "sphere", 1))
    print(f"(sts, e): identity plan optimal again: {res2.identity_optimal}")

    print("\n== Abelian and free groups: no gap ==")
    z2 = make_zn(2)
    tz = bfs_metric(z2, 4)
    res = transport_distance(z2, tz, MeasureSpec((0, 0), (2, 1), "sphere", 1))
    print(f"Z^2 toward (2,1): T_1 = {res.t1} = d(x,y) = {res.distance}, kappa* = {res.kappa_star}")
    f2 = make_free(2)
    tf = bfs_metric(f2, 4)
    gaps = 0
    for g in ball(tf, 3):
        if g == ():
            continue
        r = transport_distance(f2, tf, MeasureSpec((), g, "sphere", 1))
        if r.kappa_star != kappa(f2, tf, g, 1).kappa:
            gaps += 1
    print(f"F_2, all of B_3: plans beating the identity plan: {gaps}")

    print("\n== Structure probe over B_3 samples ==")
    for oracle, table in ((z2, tz), (f2, tf), (s3, t3)):
        sample = [g for g in ball(table, 3) if g != oracle.identity]
        rep = question_probe(oracle, table, 1, sample)
        print(
            f"{oracle.group_id}: identity always optimal = {rep.identity_always_optimal}, "
            f"a sphere-preserving optimum exists everywhere = "
            f"{all(row.sphere_preserving_exists for row in rep.rows)}, "
            f"per-sphere optima already achieve the ball optimum = "
            f"{all(row.block_plan_matches_ball for row in rep.rows)}"
        )


if __name__ == "__main__":
    main()
