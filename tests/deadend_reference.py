"""Dead-end quantities read off the table's spheres, for checking the escape search against.

These are the earlier table-based definitions: the escape is a breadth-first
search from g, the strict depth tests g S_r for each sphere S_r of the table,
and the backtracks test g w for every w in the table's ball B_(k-1).  They
are exact only while the table's horizon covers the spheres they read.
"""

from curvlab.core import OutOfHorizonError, ball, sphere, word_length


def le_threshold(oracle, table, el, threshold):
    """Whether |el| <= threshold; absence from the table settles any threshold within its horizon."""
    try:
        return word_length(oracle, el, table) <= threshold
    except OutOfHorizonError:
        if threshold <= table.horizon:
            return False
        raise


def is_dead_end(oracle, table, g):
    base = word_length(oracle, g, table)
    return all(le_threshold(oracle, table, oracle.compose(g, a), base) for a in oracle.generators)


def escape(oracle, table, g, max_depth):
    """A shortest generator path from g to an element longer than g, or None within ``max_depth`` steps."""
    base = word_length(oracle, g, table)
    parents = {g: None}
    frontier = [g]
    for _ in range(max_depth):
        nxt = []
        for el in frontier:
            for label, gen in zip(oracle.labels, oracle.generators):
                h = oracle.compose(el, gen)
                if h in parents:
                    continue
                parents[h] = (el, label)
                if not le_threshold(oracle, table, h, base):
                    word = []
                    while h != g:
                        h, lab = parents[h]
                        word.append(lab)
                    return tuple(reversed(word))
                nxt.append(h)
        frontier = nxt
    return None


def strict_depth(oracle, table, g):
    """Largest k <= table.horizon with |gw| <= |g| - r for all r <= k and all w in the table's S_r."""
    base = word_length(oracle, g, table)
    k = 0
    for r in range(1, table.horizon + 1):
        layer = sphere(table, r)
        if not layer:
            break
        if not all(le_threshold(oracle, table, oracle.compose(g, w), base - r) for w in layer):
            return k
        k = r
    return k


def backtrack_elements(oracle, table, g, bound):
    """The g w, w in B_(k-1) minus the identity, within |g|, where k = depth(g) <= bound and k - 1 <= table.horizon."""
    k = len(escape(oracle, table, g, bound))
    base = word_length(oracle, g, table)
    continuations = (oracle.compose(g, w) for w in ball(table, k - 1) if w != oracle.identity)
    return {h for h in continuations if le_threshold(oracle, table, h, base)}
