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

Exhaustive references walk every sequence in [n]^(n-1), decoding each one;
these are the ground truth the closed forms are tested against.  Each code
is tallied on its own, so a sweep splits the codes into contiguous index
ranges, one per usable CPU and at least 1000 codes each.  The calling
process tallies the first range and forked children the others, and the
counts are summed, so every table is the same for any number of parts.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from . import games
from .codec import SlitherCode, slither_decode
from .trees import Variant, classify

_ENUM_BUDGET = 7  # n^(n-1) decode sweeps stay interactive up to here
_PART_MIN = 1000  # fewest codes per part worth a forked process


@dataclass(frozen=True)
class DistributionTable:
    """Exact counts of a parameter over a finite tree family."""

    family: str
    parameter: str
    n: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        t = self.total
        return {v: c / t for v, c in sorted(self.counts.items())}

    def mean(self) -> Fraction:
        return Fraction(sum(v * c for v, c in self.counts.items()), self.total)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "parameter": self.parameter,
            "n": self.n,
            "total": str(self.total),
            "counts": {str(v): str(c) for v, c in sorted(self.counts.items())},
            "probabilities": {str(v): c / self.total
                              for v, c in sorted(self.counts.items())},
        }


_stirling_rows: list[list[int]] = [[1]]  # row m holds S(m, 0..m)


def stirling2(m: int, k: int) -> int:
    """Stirling partition number S(m, k), memoized row by row."""
    if m < 0 or k < 0 or k > m:
        return 0
    while len(_stirling_rows) <= m:
        prev = _stirling_rows[-1]
        mm = len(_stirling_rows)
        row = [0] * (mm + 1)
        row[mm] = 1
        for kk in range(1, mm):
            row[kk] = kk * prev[kk] + prev[kk - 1]
        _stirling_rows.append(row)
    return _stirling_rows[m][k]


def _rfact(k: int) -> Fraction:
    # reciprocal factorial, zero on negative arguments; lets the closed
    # forms vanish outside their support without case analysis
    return Fraction(1, math.factorial(k)) if k >= 0 else Fraction(0)


def count_independence(n: int, alpha: int) -> int:
    """Labelled unrooted trees on n vertices with independence number alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (1 <= alpha <= n):
        return 0
    if n == 1:
        return 1 if alpha == 1 else 0
    val = (Fraction(n) ** (n - alpha - 2)
           * Fraction(math.factorial(n), math.factorial(alpha))
           * (stirling2(alpha, n - alpha) + alpha * stirling2(alpha - 1, n - alpha)))
    if val.denominator != 1:
        raise AssertionError(f"count_independence({n}, {alpha}) not integral: {val}")
    return val.numerator


def independence_table(n: int) -> DistributionTable:
    """Distribution of the independence number over uniform unrooted trees."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts = {a: count_independence(n, a) for a in range(1, n + 1)}
    counts = {a: c for a, c in counts.items() if c}
    table = DistributionTable(family="uniform-unrooted", parameter="independence",
                              n=n, counts=counts)
    if table.total != n ** max(n - 2, 0):
        raise AssertionError(f"counts for n={n} sum to {table.total}, expected {n ** (n - 2)}")
    return table


def expected_alpha(n: int) -> Fraction:
    """Exact mean independence number of a uniform labelled tree on n vertices."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(Fraction(math.comb(n, k)) * Fraction(-k, n) ** (k - 1)
               for k in range(1, n + 1))


def count_full_binary(m: int, alpha: int) -> int:
    """Deck deals of the full-binary game (m internal vertices) reading alpha.

    Counts orderings of the 2m-card deck, (2m)!/2^m distinct deals in all,
    whose coupon read stops at alpha.  Two factorial products; reciprocal
    factorials kill the terms outside the support.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
    val = t1 + t2
    if val.denominator != 1:
        raise AssertionError(f"count_full_binary({m}, {alpha}) not integral: {val}")
    return val.numerator


def full_binary_table(m: int) -> DistributionTable:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    counts = {a: count_full_binary(m, a) for a in range(1, 2 * m + 1)}
    counts = {a: c for a, c in counts.items() if c}
    table = DistributionTable(family="full-binary-deck", parameter="independence",
                              n=2 * m + 1, counts=counts)
    expect = math.factorial(2 * m) // 2 ** m
    if table.total != expect:
        raise AssertionError(f"deck counts for m={m} sum to {table.total}, expected {expect}")
    return table


def all_codes(n: int):
    """Every sequence in [n]^(n-1), lazily and in lexicographic order."""
    return product(range(1, n + 1), repeat=n - 1)


def _check_budget(n: int, budget: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > budget:
        raise ValueError(
            f"enumeration budget exceeded: n={n} means {n}^{n - 1} sequences, "
            f"capped at n <= {budget}")


def _tally_in_parts(tally, total: int) -> Counter:
    """tally(0, total), computed as disjoint index ranges across processes.

    tally(lo, hi) returns a Counter over items lo..hi-1.  The caller runs
    the first range; each other range runs in a forked child, which sends
    back its Counter or its exception over a one-way pipe.  Serial below two
    parts, where os.fork does not exist, and in a daemonic process (a pool
    worker), which multiprocessing forbids to start children.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    parts = min(cpus, total // _PART_MIN)
    if parts < 2 or not hasattr(os, "fork"):
        return tally(0, total)
    import multiprocessing  # only here, so importing the package stays light

    if multiprocessing.current_process().daemon:
        return tally(0, total)
    ctx = multiprocessing.get_context("fork")
    bounds = [total * i // parts for i in range(parts + 1)]
    # a child flushes the stdio buffers it inherits as it exits, so empty them first
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_tally, args=(send, tally, lo, hi))
            proc.start()
            children.append((proc, recv))
            send.close()
        counts = tally(bounds[0], bounds[1])
        for proc, recv in children:
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"sweep worker exited with code {proc.exitcode} "
                                   "before sending its counts") from None
            if not ok:
                raise value
            counts.update(value)
        return counts
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()


def _send_tally(send, tally, lo: int, hi: int) -> None:
    """Run tally(lo, hi) in a forked child and send (True, counts) or (False, error)."""
    try:
        result = (True, tally(lo, hi))
    except Exception as exc:
        result = (False, exc)
    send.send(result)
    send.close()


_ROOTED_PARAMETERS = ("independence", "matching", "path_edges", "path_cover",
                      "capacity_edges")


def exact_rooted_distribution(n: int, parameter: str = "independence", b: int = 2,
                              budget: int = _ENUM_BUDGET) -> DistributionTable:
    """Parameter distribution over ALL rooted trees, by decoding every sequence.

    Deliberately computes on the decoded tree (classification counts), not
    through the code-reading shortcuts, so it can serve as an independent
    check of those rules.  b only matters for capacity_edges.
    """
    if parameter not in _ROOTED_PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}, expected one of {_ROOTED_PARAMETERS}")
    _check_budget(n, budget)

    # each parameter is the capacity-edge count at some b, or n minus it: at
    # b=1 the count is the matching number and n minus it the independence
    # number, at b=2 it is the path edges and n minus it the path cover
    variant = Variant({"capacity_edges": b, "path_edges": 2, "path_cover": 2}.get(parameter, 1))
    complement = parameter in ("independence", "path_cover")

    def tally(lo: int, hi: int) -> Counter:
        counts = Counter()
        for digits in islice(all_codes(n), lo, hi):
            tree = slither_decode(SlitherCode(n=n, variant=variant, symbols=digits))
            edges = classify(tree, variant).capacity_edges()
            counts[n - edges if complement else edges] += 1
        return counts

    counts = _tally_in_parts(tally, n ** (n - 1))
    return DistributionTable(family="uniform-rooted", parameter=parameter, n=n,
                             counts=dict(sorted(counts.items())))


def exact_dice_distribution(n: int, budget: int = _ENUM_BUDGET) -> DistributionTable:
    """Exact dice-game stop distribution: coupon read over all n^(n-1) throws."""
    _check_budget(n, budget)

    def tally(lo: int, hi: int) -> Counter:
        return Counter(games.coupon_read(digits, n) for digits in islice(all_codes(n), lo, hi))

    counts = _tally_in_parts(tally, n ** (n - 1))
    return DistributionTable(family="dice", parameter="alpha", n=n,
                             counts=dict(sorted(counts.items())))
