"""Exact enumeration of tree-parameter distributions.

Closed forms, all evaluated in exact rational arithmetic and asserted to be
integers before returning:

  * labelled unrooted trees on n vertices with independence number a:
        n^(n-a-2) * n!/a! * [ S(a, n-a) + a * S(a-1, n-a) ]
    with S the Stirling partition numbers; multiplying by n gives the
    rooted count, since independence does not depend on the root.
  * expected independence number of a uniform labelled tree:
        sum_{k=1..n} C(n,k) * (-k/n)^(k-1)
  * uniform full binary trees (m internal vertices, n = 2m+1 total,
    counted over the (2m)!/2^m distinct deck deals).

Exhaustive references are the ground truth the closed forms are tested
against.  The rooted tables sweep the Prüfer codes in [n]^(n-2), one per
labelled tree, and weight each tree by its n roots, since every parameter
they count ignores the root.  The dice table reads all n^(n-1) throws.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .codec import SlitherCode, prefix_alpha, slither_decode
from .trees import Variant, _check_positive, _strict_int, classify

_ENUM_BUDGET = 7  # n^(n-2) tree and n^(n-1) throw sweeps stay interactive up to here


@dataclass(frozen=True)
class DistributionTable:
    """Exact counts of a parameter over a tree family of total members.  The
    nonzero counts are kept in value order and must sum to total."""

    family: str
    parameter: str
    n: int
    counts: dict[int, int]
    total: int

    def __post_init__(self):
        counts = {v: c for v, c in sorted(self.counts.items()) if c}
        got = sum(counts.values())
        if got != self.total:
            raise AssertionError(f"{self.family} {self.parameter} counts for n={self.n} "
                                 f"sum to {got}, expected {self.total}")
        object.__setattr__(self, "counts", counts)

    def probabilities(self) -> dict[int, float]:
        return {v: c / self.total for v, c in self.counts.items()}

    def mean(self) -> Fraction:
        return Fraction(sum(v * c for v, c in self.counts.items()), self.total)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "parameter": self.parameter, "n": self.n,
                "total": str(self.total),
                "counts": {str(v): str(c) for v, c in self.counts.items()},
                "probabilities": {str(v): p for v, p in self.probabilities().items()}}


def _stirling_triangle():
    """The rows S(m, 0..m) for m = 0, 1, 2, ..., holding only the current one."""
    row = [1]
    while True:
        yield row
        row = [0, *(k * row[k] + row[k - 1] for k in range(1, len(row))), 1]


def stirling2(m: int, k: int) -> int:
    """Stirling partition number S(m, k), read off row m of the triangle; 0 off it."""
    m, k = _strict_int(m, "m"), _strict_int(k, "k")
    if m < 0 or k < 0 or k > m:
        return 0
    return next(islice(_stirling_triangle(), m, None))[k]


def _whole(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise AssertionError(f"{what} not integral: {value}")
    return value.numerator


def _rfact(k: int) -> Fraction:
    # reciprocal factorial, zero on negative arguments; lets the closed
    # forms vanish outside their support without case analysis
    return Fraction(1, math.factorial(k)) if k >= 0 else Fraction(0)


def _independence_counts(n: int):
    """(alpha, count_independence(n, alpha)) for alpha = 1..n, in one pass down
    rows 1..n of the Stirling triangle, holding rows alpha-1 and alpha."""
    rows = _stirling_triangle()
    below = next(rows)
    for alpha, row in zip(range(1, n + 1), rows):
        k = n - alpha  # column k of a row shorter than k + 1 is zero
        s = (row[k] if k <= alpha else 0) + alpha * (below[k] if k < alpha else 0)
        yield alpha, _whole(Fraction(n) ** (n - alpha - 2) * math.perm(n, n - alpha) * s,
                            f"count_independence({n}, {alpha})")
        below = row


def count_independence(n: int, alpha: int) -> int:
    """Labelled unrooted trees on n vertices with independence number alpha."""
    n, alpha = _check_positive(n, "n"), _strict_int(alpha, "alpha")
    return next(c for a, c in _independence_counts(n) if a == alpha) if 1 <= alpha <= n else 0


def independence_table(n: int) -> DistributionTable:
    """Distribution of the independence number over uniform unrooted trees."""
    n = _check_positive(n, "n")
    return DistributionTable(family="uniform-unrooted", parameter="independence", n=n,
                             counts=dict(_independence_counts(n)), total=n ** max(n - 2, 0))


def expected_alpha(n: int) -> Fraction:
    """Exact mean independence number of a uniform labelled tree on n vertices."""
    n = _check_positive(n, "n")
    return sum(Fraction(math.comb(n, k)) * Fraction(-k, n) ** (k - 1)
               for k in range(1, n + 1))


def count_full_binary(m: int, alpha: int) -> int:
    """Deck deals of the full-binary game (m internal vertices) reading alpha.

    Counts orderings of the 2m-card deck, (2m)!/2^m distinct deals in all,
    whose coupon read stops at alpha.  Two factorial products; reciprocal
    factorials kill the terms outside the support.
    """
    m, alpha = _check_positive(m, "m"), _strict_int(alpha, "alpha")
    if not (1 <= alpha <= 2 * m):
        return 0
    fm = Fraction(math.factorial(m))
    t1 = (fm * _rfact(alpha - m - 1) * _rfact(2 * alpha - 2 * m - 1)
          * _rfact(4 * m - 3 * alpha + 2)
          * math.factorial(alpha) * math.factorial(2 * m - alpha)
          * Fraction(2) ** (-(3 * alpha - 3 * m - 2)))
    t2 = (fm * _rfact(alpha - m - 2) * _rfact(2 * alpha - 2 * m - 2)
          * _rfact(4 * m - 3 * alpha + 3)
          * math.factorial(alpha - 1) * math.factorial(2 * m - alpha)
          * Fraction(2) ** (-(3 * alpha - 3 * m - 4)))
    return _whole(t1 + t2, f"count_full_binary({m}, {alpha})")


def full_binary_table(m: int) -> DistributionTable:
    m = _check_positive(m, "m")
    return DistributionTable(family="full-binary-deck", parameter="independence", n=2 * m + 1,
                             counts={a: count_full_binary(m, a) for a in range(1, 2 * m + 1)},
                             total=math.factorial(2 * m) // 2 ** m)


def all_codes(n: int):
    """Every sequence in [n]^(n-1), lazily and in lexicographic order."""
    n = _check_positive(n, "n")
    return product(range(1, n + 1), repeat=n - 1)


def _check_budget(n: int) -> int:
    n = _check_positive(n, "n")
    if n > _ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: n={n} means {n}^{n - 1} sequences, "
            f"capped at n <= {_ENUM_BUDGET}")
    return n


# Each rooted parameter as (capacity b, complemented): the capacity-edge count
# at b, or n minus it.  At b=1 the count is the matching number, at b=2 the path
# edges; capacity_edges takes b from the caller.
_ROOTED_PARAMETERS = {"independence": (1, True), "matching": (1, False),
                      "path_edges": (2, False), "path_cover": (2, True),
                      "capacity_edges": (None, False)}


def exact_rooted_distribution(n: int, parameter: str = "independence",
                              b: int = 2) -> DistributionTable:
    """Parameter distribution over ALL rooted trees, one labelled tree at a time.

    Decodes each Prüfer code in [n]^(n-2) as the capacity-n slither code
    digits + (n,), a tree rooted at n, as codec.prufer_decode does.  Every
    parameter here ignores the root, so each tree counts for its n rootings.
    Deliberately computes on the decoded tree (classification counts), not
    through the code-reading shortcuts, so it can serve as an independent
    check of those rules.  b only matters for capacity_edges.
    """
    if parameter not in _ROOTED_PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}, not one of {[*_ROOTED_PARAMETERS]}")
    n = _check_budget(n)
    cap, complement = _ROOTED_PARAMETERS[parameter]
    variant = Variant(cap or b)
    # the one-vertex tree has no Prüfer code, and its slither code is empty
    codes = [()] if n == 1 else (d + (n,) for d in product(range(1, n + 1), repeat=n - 2))
    prufer = Variant(n)
    counts = Counter()
    for symbols in codes:
        tree = slither_decode(SlitherCode(n=n, variant=prufer, symbols=symbols))
        edges = classify(tree, variant).capacity_edges()
        counts[n - edges if complement else edges] += n
    return DistributionTable(family="uniform-rooted", parameter=parameter, n=n,
                             counts=counts, total=n ** (n - 1))


def exact_dice_distribution(n: int) -> DistributionTable:
    """Exact dice-game stop distribution: the coupon read, prefix_alpha, over all n^(n-1) throws."""
    n = _check_budget(n)
    counts = Counter(prefix_alpha(digits, n) for digits in all_codes(n))
    return DistributionTable(family="dice", parameter="alpha", n=n,
                             counts=counts, total=n ** (n - 1))
