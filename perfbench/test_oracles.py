"""Checks of the benchmark's oracles against brute-force sweeps.

Run from the repository root:

    python3 -m pytest -q perfbench/test_oracles.py

The brute-force sweeps here use no slithercode code; the last tests
cross-check the oracles against the library's own exhaustive tables.
"""

import itertools
import math
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracles import (chi_square_ok, dice_law, full_binary_law,  # noqa: E402
                     greedy_capacity_edges, saturation_law)


def stop_value(seq, n):
    seen = set()
    for a, s in enumerate(seq, start=1):
        seen.add(s)
        if len(seen) >= n - a:
            return a
    raise AssertionError("no stop")


def saturation_value(seq, n, b):
    counts = Counter()
    beta = 0
    while sum(1 for c in counts.values() if c >= b) < n - 1 - beta:
        counts[seq[beta]] += 1
        beta += 1
    return sum(min(c, b) for c in counts.values())


def rooted_trees(n):
    """Every rooted labelled tree on 1..n as (root, parent list)."""
    for root in range(1, n + 1):
        others = [v for v in range(1, n + 1) if v != root]
        choices = [[p for p in range(1, n + 1) if p != v] for v in others]
        for pick in itertools.product(*choices):
            parent = [0] * (n + 1)
            for v, p in zip(others, pick):
                parent[v] = p
            if all(_reaches(v, root, parent, n) for v in others):
                yield root, parent


def _reaches(v, root, parent, n):
    for _ in range(n):
        if v == root:
            return True
        v = parent[v]
    return v == root


def brute_params(n, root, parent):
    """(independence number, {b: largest degree-<=b edge set}) by brute force."""
    edges = [(v, parent[v]) for v in range(1, n + 1) if v != root]
    indep = max(bin(s).count("1") for s in range(1 << n)
                if not any((s >> (u - 1)) & (s >> (w - 1)) & 1 for u, w in edges))
    best = {1: 0, 2: 0, 3: 0}
    for mask in range(1 << len(edges)):
        deg = [0] * (n + 1)
        for i, (u, w) in enumerate(edges):
            if mask >> i & 1:
                deg[u] += 1
                deg[w] += 1
        top, size = max(deg), bin(mask).count("1")
        for b in best:
            if top <= b and size > best[b]:
                best[b] = size
    return indep, best


@pytest.mark.parametrize("n", range(2, 8))
def test_dice_law_matches_sequence_sweep(n):
    want = Counter(stop_value(s, n) for s in itertools.product(range(1, n + 1), repeat=n - 1))
    assert dice_law(n) == dict(want)


def test_dice_law_float_mode_normalises_the_counts():
    exact = dice_law(60)
    total = 60 ** 59
    approx = dice_law(60, exact=False)
    assert set(approx) == set(exact)
    assert all(abs(approx[a] - exact[a] / total) < 1e-12 for a in exact)


@pytest.mark.parametrize("m", range(1, 5))
def test_full_binary_law_matches_deal_sweep(m):
    deck = [v for v in range(1, m + 1) for _ in range(2)]
    want = Counter(stop_value(deal, 2 * m + 1) for deal in set(itertools.permutations(deck)))
    assert full_binary_law(m) == dict(want)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("b", [1, 2, 3])
def test_saturation_law_matches_sequence_sweep(n, b):
    want = Counter(saturation_value(s, n, b)
                   for s in itertools.product(range(1, n + 1), repeat=n - 1))
    assert saturation_law(n, b) == dict(sorted(want.items()))


@pytest.mark.parametrize("n", range(1, 7))
def test_laws_and_greedy_match_brute_force_on_every_rooted_tree(n):
    indep_law = Counter()
    edge_law = {1: Counter(), 2: Counter(), 3: Counter()}
    for root, parent in rooted_trees(n):
        indep, best = brute_params(n, root, parent)
        indep_law[indep] += 1
        for b, size in best.items():
            assert greedy_capacity_edges(n, root, parent, b) == size
            edge_law[b][size] += 1
    assert sum(indep_law.values()) == n ** (n - 1)
    assert dice_law(n) == dict(indep_law)
    for b in (1, 2, 3):
        assert saturation_law(n, b) == dict(sorted(edge_law[b].items()))


def test_greedy_on_path_and_star():
    n = 9
    path = [0, 0] + list(range(1, n))        # v's parent is v - 1, root 1
    star = [0, 0] + [1] * (n - 1)            # centre 1 is the root
    assert [greedy_capacity_edges(n, 1, path, b) for b in (1, 2, 3)] == [4, 8, 8]
    assert [greedy_capacity_edges(n, 1, star, b) for b in (1, 2, 3)] == [1, 2, 3]


def test_chi_square_accepts_the_law_and_rejects_a_shift():
    law = dice_law(9)
    total = sum(law.values())
    trials = 20_000
    exact = {v: round(trials * w / total) for v, w in law.items()}
    assert chi_square_ok(exact, law, 1e-6)[0]
    shifted = {v + 1: c for v, c in exact.items()}
    assert not chi_square_ok(shifted, law, 1e-6)[0]


# --- cross-checks against the library's exhaustive tables ----------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_dice_law_equals_exact_rooted_distribution(n):
    counting = pytest.importorskip("slithercode.counting")
    assert dice_law(n) == counting.exact_rooted_distribution(n, "independence").counts


def test_dice_law_equals_independence_table_times_n_at_300():
    counting = pytest.importorskip("slithercode.counting")
    t0 = time.perf_counter()
    law = dice_law(300)
    elapsed = time.perf_counter() - t0
    table = counting.independence_table(300)
    assert law == {a: c * 300 for a, c in table.counts.items()}
    assert elapsed < 1.0


@pytest.mark.parametrize("m", range(1, 9))
def test_full_binary_law_equals_full_binary_table(m):
    counting = pytest.importorskip("slithercode.counting")
    law = full_binary_law(m)
    assert law == counting.full_binary_table(m).counts
    assert sum(law.values()) == math.factorial(2 * m) // 2 ** m


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("parameter,b", [("matching", 1), ("path_edges", 2),
                                         ("capacity_edges", 3)])
def test_saturation_law_equals_exhaustive_sweep(n, parameter, b):
    counting = pytest.importorskip("slithercode.counting")
    assert saturation_law(n, b) == counting.exact_rooted_distribution(n, parameter, b=b).counts
