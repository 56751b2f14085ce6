"""Houghton's group H_2: the bead model, dead ends, and positive curvature.

Builds the BFS word metric over {sigma, s, s^-1}, evaluates the u_l
spellings, confirms the g_k dead end at desk scale, and measures the
curvature of the h(k, m) backtrack family.
"""

from curvlab import deadend
from curvlab.core import bfs_metric
from curvlab.curvature import kappa
from curvlab.houghton import (
    h2_g,
    h2_h,
    h2_min_length_bound,
    h2_oracle,
    h2_u,
    h2_u_word,
)


def main():
    oracle = h2_oracle()
    print("building the BFS metric to radius 12 ...")
    table = bfs_metric(oracle, 12)
    print(f"layer sizes: {table.layer_sizes()}")

    print("\n== The u_l spellings ==")
    for l in (1, 2):
        word = h2_u_word(l)
        el = h2_u(l)
        print(f"u_{l}: word length {len(word)}, evaluates to {el}")
    print(f"|u_2| by BFS = {table.distance(h2_u(2))} (the spelling is geodesic)")
    print(f"negfirst and posfirst agree: {h2_u(3, 'neg') == h2_u(3, 'pos')}")

    print("\n== The dead end g_2 ==")
    g2 = h2_g(2)
    rep = deadend.report(oracle, table, g2, max_depth=3)
    print(f"|g_2| = {rep.base_length}, dead end = {rep.is_dead_end}, escape depth = {rep.depth}")
    bts = deadend.backtrack_elements(oracle, table, g2, bound=3)
    h22 = h2_h(2, 2)
    print(f"{len(bts)} backtracks; h(2,2) among them: {h22 in bts}")

    print("\n== Curvature of h(2,2) ==")
    rep = kappa(oracle, table, h22, 1, "sphere")
    for w, length in rep.breakdown:
        print(f"  conjugate by {w}: length {length} (base {rep.base_length})")
    print(f"kappa_1(h(2,2)) = {rep.kappa} > 0")

    print("\n== The moved-point length bound ==")
    holds = all(d >= h2_min_length_bound(el) for el, d in table.dist.items())
    print(f"|g| >= max moved bead over all {len(table.dist)} elements of B_12: {holds}")
    tight = max(
        (el for el, d in table.dist.items() if d == h2_min_length_bound(el) > 0),
        key=lambda el: table.dist[el],
    )
    print(f"tight at e.g. {tight}: length {table.dist[tight]} = bound")


if __name__ == "__main__":
    main()
