"""A plain breadth-first search, independent of curvlab's BFS, for checking tables against."""


def naive_ball(oracle, horizon):
    """The layers of the ball of radius ``horizon``, each in increasing element order, and the distance map."""
    seen = {oracle.identity}
    layers = [(oracle.identity,)]
    for _ in range(horizon):
        frontier = {oracle.compose(el, gen) for el in layers[-1] for gen in oracle.generators} - seen
        seen |= frontier
        layers.append(tuple(sorted(frontier)))
    return tuple(layers), {el: r for r, layer in enumerate(layers) for el in layer}
