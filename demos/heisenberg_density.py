"""All three curvature signs persist in the Heisenberg group at any radius.

Demonstrates the two-branch word-length formula, the remainder-class sign
prediction, and the exhaustive sector census showing positive density of
positive, zero, and negative curvature at comparison radii 1 and 2.
"""

from fractions import Fraction

from curvlab.core import bfs_metric
from curvlab.curvature import kappa
from curvlab.heisenberg import (
    MalcevTriple,
    heis_density_experiment,
    heis_length,
    heis_oracle,
    heis_sign_predict,
)


def main():
    oracle = heis_oracle()
    print("== Word lengths in Mal'cev coordinates ==")
    table = bfs_metric(oracle, 10)
    agree = sum(1 for el, d in table.dist.items() if oracle.closed_length(el) == d)
    print(f"closed formula matches BFS on all {agree} elements of B_10")
    for g in (MalcevTriple(2, 1, 1), MalcevTriple(5, 2, 10), MalcevTriple(3, 1, 6)):
        print(f"|{tuple(g)}| = {heis_length(g)}")

    print("\n== Sign prediction from the remainder C mod A ==")
    for g in (MalcevTriple(10, 2, 31), MalcevTriple(10, 2, 35), MalcevTriple(10, 2, 39)):
        predicted = heis_sign_predict(g, 1)
        exact = kappa(oracle, table, g, 1).kappa
        print(f"{tuple(g)}: s = {g.c % g.a}, predicted {predicted}, exact kappa_1 = {exact}")

    print("\n== Exhaustive sector census ==")
    for r, k in ((1, 40), (2, 80)):
        rep = heis_density_experiment(k, r)
        total = sum(rep.sign_counts.values())
        print(f"radius {r}, |g| <= {k}: {total} sector elements")
        for sign in "+0-":
            share = Fraction(rep.sign_counts[sign], total)
            print(f"  sign {sign}: {rep.sign_counts[sign]} ({float(share):.1%})")
        print(f"  non-mixed predictions all match the exact sign: {not rep.mismatches}")
        print(f"  every band class holds at least 1/{5 * r} of the remainders: {rep.band_fractions_ok()}")


if __name__ == "__main__":
    main()
