"""A plain Hungarian solver and optimal-plan walk, to check ``curvlab.transport`` against.

These are ``hungarian``, ``_reroute`` and ``_optimal_plans`` as they were
before the solver scanned only open columns and the walk gained its
two-row tail and direct swap, kept verbatim.  The library must return the
same optimum, matching and duals, and list the same plans with the same
``truncated`` flag, as these.
"""

from curvlab.core import DomainError

INF = float("inf")  # slack of a column no tree row reaches yet; every real slack is an int


def hungarian(cost) -> tuple[int, list[int], list[int], list[int]]:
    """Minimum assignment of a square integer matrix, with its dual certificate.

    Returns (optimum, match, u, v): ``match[i]`` is row i's column in one
    optimal assignment, and the integer potentials satisfy
    c_ij - u_i - v_j >= 0 for all i, j, with equality on the matching, so
    that sum(u) + sum(v) = optimum.
    """
    n = len(cost)
    # 1-based rows and columns; column 0 is a virtual start holding the row being inserted.
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: the row matched to column j, 0 when free
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [INF] * (n + 1)  # least reduced cost reaching each column from the tree
        way = [0] * (n + 1)  # the tree column preceding each column on its best path
        done = [False] * (n + 1)
        while owner[j0]:
            done[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = INF, 0
            for j in range(1, n + 1):
                if not done[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the virtual column
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[owner[j] - 1] = j - 1
    return sum(cost[i][match[i]] for i in range(n)), match, u[1:], v[1:]


def _reroute(tight, col, row, fixed, i: int, j: int) -> bool:
    """Give row i column j, keeping the matching perfect by moving only unfixed rows.

    Searches one augmenting path from j's owner to i's old column through
    tight, unfixed columns other than j; returns False, leaving the matching
    as it was, when there is none.
    """
    target, start = col[i], row[j]
    via = {}  # column -> the row whose tight edge reached it
    stack = [start]
    while stack and target not in via:
        r = stack.pop()
        for c in tight[r]:
            if c != j and not fixed[c] and c not in via:
                via[c] = r
                if c == target:
                    break
                stack.append(row[c])
    if target not in via:
        return False
    c = target  # walk the path back, shifting each row onto the column it reached
    while True:
        r = via[c]
        prev = col[r]
        col[r], row[c] = c, r
        if r == start:
            break
        c = prev
    col[i], row[j] = j, i
    return True


def _optimal_plans(cost, match, u, v, cap: int) -> tuple[list[tuple[int, ...]], bool]:
    """The first ``cap`` optimal permutations, lexicographically, and whether more exist.

    ``match`` is one optimal assignment and u, v its integer duals.  The walk
    keeps one iterator over the tight columns of each fixed row on a stack;
    every branch taken keeps a perfect matching of the tight graph that
    agrees with the fixed rows, so it ends in a plan.
    """
    if cap < 0:
        raise DomainError(f"the cap on listed optima must be at least 0, got {cap}")
    n = len(cost)
    tight = [[j for j in range(n) if cost[i][j] - u[i] == v[j]] for i in range(n)]
    col = list(match)
    row = [0] * n
    for i, j in enumerate(col):
        row[j] = i
    fixed = [False] * n  # columns held by the rows below the top of the stack
    stack = [iter(tight[0])] if n else []
    plans = [] if n else [()]  # the empty matrix has one plan, the empty permutation
    while stack and len(plans) <= cap:
        i = len(stack) - 1
        for j in stack[i]:
            if not fixed[j] and (j == col[i] or _reroute(tight, col, row, fixed, i, j)):
                if i + 1 == n:
                    plans.append(tuple(col))
                else:
                    fixed[j] = True
                    stack.append(iter(tight[i + 1]))
                break
        else:
            stack.pop()
            if i:
                fixed[col[i - 1]] = False  # back from the branch that fixed row i - 1
    return plans[:cap], len(plans) > cap
