"""A plain breadth-first search, independent of curvlab's BFS, for checking tables against.

Also a wrapper that counts the generator steps an oracle makes.
"""

import dataclasses


def naive_ball(oracle, horizon):
    """The layers of the ball of radius ``horizon``, each in increasing element order, and the distance map."""
    seen = {oracle.identity}
    layers = [(oracle.identity,)]
    for _ in range(horizon):
        frontier = {oracle.compose(el, gen) for el in layers[-1] for gen in oracle.generators} - seen
        seen |= frontier
        layers.append(tuple(sorted(frontier)))
    return tuple(layers), {el: r for r, layer in enumerate(layers) for el in layer}


def counting_steps(oracle):
    """A copy of ``oracle`` and a list that gains one entry per generator step the copy makes after construction."""
    calls = []

    def counted(step):
        def call(x):
            calls.append(x)
            return step(x)

        return call

    copy = dataclasses.replace(oracle, right_steps=tuple(map(counted, oracle.steps)))
    calls.clear()  # construction checks each step at the identity
    return copy, calls
