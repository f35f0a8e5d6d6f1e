"""Independent oracles for checking the benchmark's outputs.

Nothing here imports slithercode: each law comes from a recursion over a
small Markov chain on the symbol counts of a uniform sequence, and each tree
parameter from a linear greedy on the tree.  By the paper's bijection a
uniform sequence in [n]^(n-1) is a uniform rooted tree, and each reading rule
gives a tree parameter, so these laws are also the laws of the tree
parameters.  test_oracles.py checks every oracle against brute-force sweeps.
"""

from __future__ import annotations

import math
from collections import deque
from statistics import NormalDist


def dice_law(n: int, exact: bool = True) -> dict:
    """Law of the dice stop value over all n^(n-1) throw sequences.

    The stop value is the first a with distinct(throws[:a]) >= n - a.  The
    distinct count D moves D -> D with weight D and D -> D+1 with weight
    n - D.  With exact=True the values are integer counts summing to
    n^(n-1); otherwise they are float probabilities.
    """
    if n <= 1:
        return {1: 1 if exact else 1.0}
    unit = 1 if exact else 1.0 / n
    alive = {0: 1 if exact else 1.0}
    law = {}
    for a in range(1, n):
        step: dict = {}
        for d, w in alive.items():
            if d:
                step[d] = step.get(d, 0) + w * d * unit
            step[d + 1] = step.get(d + 1, 0) + w * (n - d) * unit
        stopped = sum(w for d, w in step.items() if d >= n - a)
        if stopped:
            law[a] = stopped * n ** (n - 1 - a) if exact else stopped
        alive = {d: w for d, w in step.items() if d < n - a}
    return law


def full_binary_law(m: int) -> dict:
    """Integer law of the coupon read over the (2m)!/2^m deals of 1,1,...,m,m.

    After a cards with D distinct values, 2D - a values have been seen once
    and a - D twice.  A new value can be any of the m - D unseen ones and a
    repeat any of the 2D - a seen once.  The read stops at the first a with
    D >= 2m + 1 - a; the rest of the deck can then be dealt in
    (2m - a)! / 2^(m - D) distinct orders.
    """
    alive = {0: 1}
    law = {}
    for a in range(1, 2 * m + 1):
        step: dict = {}
        for d, w in alive.items():
            if m - d:
                step[d + 1] = step.get(d + 1, 0) + w * (m - d)
            if 2 * d - (a - 1):
                step[d] = step.get(d, 0) + w * (2 * d - (a - 1))
        stopped = 0
        for d, w in step.items():
            if d >= 2 * m + 1 - a:
                stopped += w * (math.factorial(2 * m - a) // 2 ** (m - d))
        if stopped:
            law[a] = stopped
        alive = {d: w for d, w in step.items() if d < 2 * m + 1 - a}
    return law


def saturation_law(n: int, b: int) -> dict:
    """Integer law of the capacity-b saturation read over [n]^(n-1).

    The read stops at the first beta with #{symbols seen >= b times in the
    prefix} >= n - 1 - beta and returns the sum of min(count, b) over the
    prefix.  The state is the number of symbols seen exactly j times for
    j = 1..b-1 and at least b times; a draw moves one symbol from class j
    to class j + 1 with weight equal to the size of class j.  For b = 1 the
    value is the matching number, for b = 2 the edge count of a minimum path
    cover, and in general the largest edge set with every degree <= b.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    law: dict = {}
    if n <= 1:
        return {0: 1}
    alive = {(0,) * b: 1}
    for beta in range(1, n):
        step: dict = {}
        for state, w in alive.items():
            zero = n - sum(state)
            classes = (zero,) + state
            for j in range(b):
                if classes[j]:
                    nxt = list(state)
                    if j:
                        nxt[j - 1] -= 1
                    nxt[j] += 1
                    key = tuple(nxt)
                    step[key] = step.get(key, 0) + w * classes[j]
            if state[-1]:
                step[state] = step.get(state, 0) + w * state[-1]
        alive = {}
        for state, w in step.items():
            if state[-1] >= n - 1 - beta:
                value = sum((j + 1) * c for j, c in enumerate(state))
                law[value] = law.get(value, 0) + w * n ** (n - 1 - beta)
            else:
                alive[state] = w
    return dict(sorted(law.items()))


def mean(law: dict) -> float:
    total = sum(law.values())
    return sum(v * w for v, w in law.items()) / total


# --- trees --------------------------------------------------------------------


def bfs_order(n: int, root: int, parent: list) -> list:
    """Vertices of the tree in breadth-first order from the root.

    parent[v] is the parent of v (parent[root] and parent[0] are 0).
    Raises ValueError unless the map is a tree on 1..n rooted at root.
    """
    children = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        if v != root:
            children[parent[v]].append(v)
    order = [root]
    queue = deque(order)
    while queue:
        kids = children[queue.popleft()]
        order.extend(kids)
        queue.extend(kids)
    if len(order) != n:
        raise ValueError("parent map is not a tree rooted at the given root")
    return order


def greedy_capacity_edges(n: int, root: int, parent: list, b: int) -> int:
    """Largest edge set with every degree <= b, by a leaves-up greedy.

    Each vertex, once its subtree is settled, takes the edge to its parent
    whenever both ends still have capacity.  b = 1 gives the maximum
    matching.
    """
    used = [0] * (n + 1)
    edges = 0
    for v in reversed(bfs_order(n, root, parent)):
        p = parent[v]
        if v != root and used[v] < b and used[p] < b:
            used[v] += 1
            used[p] += 1
            edges += 1
    return edges


# --- statistics ---------------------------------------------------------------


def chi_square_ok(counts: dict, law: dict, significance: float) -> tuple:
    """Goodness of fit of observed counts to a law, at the given significance.

    Cells are pooled in value order until each expected count reaches 5.
    The threshold is the chi-square upper quantile by the Wilson-Hilferty
    approximation.  Any observed value outside the law's support rejects.
    Returns (ok, statistic, threshold).
    """
    trials = sum(counts.values())
    total = sum(law.values())
    if any(c and not law.get(v) for v, c in counts.items()):
        return False, math.inf, 0.0
    cells = []
    obs = exp = 0.0
    for v in sorted(law):
        obs += counts.get(v, 0)
        exp += trials * law[v] / total
        if exp >= 5.0:
            cells.append((obs, exp))
            obs = exp = 0.0
    if cells:
        o, e = cells.pop()
        cells.append((o + obs, e + exp))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    dof = max(len(cells) - 1, 1)
    z = NormalDist().inv_cdf(1.0 - significance)
    h = 2.0 / (9.0 * dof)
    threshold = dof * (1.0 - h + z * math.sqrt(h)) ** 3
    return stat <= threshold, stat, threshold
