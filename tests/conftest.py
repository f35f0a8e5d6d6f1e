"""Shared fixtures and independent oracles used across the test modules."""

import itertools
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from slithercode import sample_uniform_rooted_tree, validate_tree

# the 10-vertex worked example, used as a cross-module anchor
FIG1_CODE = (3, 1, 4, 1, 5, 9, 2, 6, 5)
FIG1_AUX = (7, 8, 10, 6, 2, 5, 1, 4, 3)
FIG1_PARENT = {1: 2, 2: 5, 3: 5, 4: 6, 5: 9, 6: 1, 7: 3, 8: 1, 10: 4}
FIG1_ROOT = 9
FIG1_PSET = frozenset({2, 6, 7, 8, 9, 10})


@pytest.fixture
def fig1():
    tree = validate_tree({"n": 10, "root": FIG1_ROOT, "parent": FIG1_PARENT})
    return {"code": FIG1_CODE, "aux": FIG1_AUX, "tree": tree, "p_set": FIG1_PSET}


def all_codes(n):
    """Every length-(n-1) sequence over 1..n, lazily."""
    return itertools.product(range(1, n + 1), repeat=n - 1)


def multiset_permutations(items):
    """Distinct permutations of a multiset, depth-first."""
    counts = Counter(items)
    total = len(items)
    keys = sorted(counts)

    def rec(prefix):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for v in keys:
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                yield from rec(prefix)
                prefix.pop()
                counts[v] += 1

    yield from rec([])


def stirling2_oracle(m, k):
    # inclusion-exclusion form, independent of the package's row recurrence
    if k < 0 or k > m:
        return 0
    s = sum((-1) ** j * comb(k, j) * (k - j) ** m for j in range(k + 1))
    q, r = divmod(s, factorial(k))
    assert r == 0
    return q


def random_tree(n, seed):
    return sample_uniform_rooted_tree(n, rng=np.random.default_rng(seed))
