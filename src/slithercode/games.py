"""Chance-game simulators whose stopping values mirror tree parameters.

The dice game throws an n-sided die and stops at the first throw count a
where the number of distinct faces reaches n - a; by the codec bijection
the stop value is distributed exactly like the independence number of a
uniform random rooted tree on n vertices.  Card-deck variants restrict the
multiset of symbols (a deck with d_v copies of v conditions on out-degree
profile d), covering uniform full binary trees, left/right binary trees,
and plane trees.

Reproducibility contract: a trial is a pure function of (master seed,
trial index).  Each index gets its own PCG64 stream derived through a
splitmix64 mix, so the histograms of disjoint index ranges merge, in any
order, into the histogram of their union.  Trials run on one thread: a
trial holds the interpreter lock for most of its time, and a thread pool
ran slower than the serial loop.
"""

from __future__ import annotations

import secrets
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import decode_sequence, prefix_alpha, prufer_decode
from .trees import NORMAL, RootedTree, Variant, _strict_int

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, index: int) -> int:
    # splitmix64 output function; decorrelates consecutive trial indices
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomSource:
    """Master seed from which independent per-trial generators are derived."""

    seed: int

    def trial_rng(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_mix64(self.seed, index)))


def fresh_seed() -> int:
    return secrets.randbits(63)


def coupon_read(sequence, n: int) -> int:
    """First a with distinct(sequence[:a]) >= n - a.

    Same rule, same implementation as the read_alpha codec operation; the
    equality of game value and independence read is the point, not an
    accident.
    """
    return prefix_alpha(sequence, n)


def dice_deal(n: int, rng: np.random.Generator) -> np.ndarray:
    """n-1 throws of an n-sided die; as a code they are a uniform rooted tree."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return rng.integers(1, n + 1, size=n - 1)


def dice_trial(n: int, rng: np.random.Generator) -> int:
    return coupon_read(dice_deal(n, rng), n)


@dataclass(frozen=True)
class Deck:
    """Card deck with multiplicities[v-1] copies of card v, v in 1..n.

    A valid deck of n-1 cards is the out-degree profile of some rooted tree
    on n vertices; dealing it shuffled and applying the coupon rule samples
    the independence number of a uniform tree with that profile... summed
    over profiles this is again the dice game.
    """

    n: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        mult = tuple(_strict_int(m, "multiplicity") for m in self.multiplicities)
        object.__setattr__(self, "multiplicities", mult)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(mult) != self.n:
            raise ValueError(f"need one multiplicity per card 1..{self.n}, got {len(mult)}")
        if any(m < 0 for m in mult):
            raise ValueError("negative multiplicity")
        if sum(mult) != self.n - 1:
            raise ValueError(f"deck must hold n-1={self.n - 1} cards, got {sum(mult)}")

    def cards(self) -> np.ndarray:
        """Canonical sorted expansion; shuffles start from this order."""
        return np.repeat(np.arange(1, self.n + 1), self.multiplicities)

    @classmethod
    def for_tree(cls, tree: RootedTree) -> "Deck":
        mult = [0] * tree.n
        for p in tree.parent.values():
            mult[p - 1] += 1
        return cls(n=tree.n, multiplicities=tuple(mult))

    @classmethod
    def full_binary(cls, m: int) -> "Deck":
        """Two cards of each of 1..m, none of m+1..2m+1; n = 2m+1."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return cls(n=2 * m + 1, multiplicities=(2,) * m + (0,) * (m + 1))


def card_trial(deck: Deck, rng: np.random.Generator) -> int:
    return coupon_read(rng.permutation(deck.cards()), deck.n)


def full_binary_m(n: int) -> int:
    """Internal-vertex count m of the full binary trees on n = 2m+1 vertices."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"full-binary needs odd n = 2m+1 >= 3, got {n}")
    return (n - 1) // 2


def full_binary_deal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled deck of two cards of each of 1..m: the cards of Deck.full_binary(m)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return rng.permutation(np.repeat(np.arange(1, m + 1), 2))


def full_binary_trial(m: int, rng: np.random.Generator) -> int:
    return coupon_read(full_binary_deal(m, rng), 2 * m + 1)


def binary_lr_deal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Deck of 2n cards (v, left/right side), deal n-1, sides ignored.

    Models uniform binary trees with distinguished left/right children; the
    n+1 undealt cards are the free attachment slots.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return rng.permutation(2 * n)[: n - 1] // 2 + 1


def binary_lr_trial(n: int, rng: np.random.Generator) -> int:
    return coupon_read(binary_lr_deal(n, rng), n)


def plane_deal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffle n-1 numbered red cards into n-1 black cards.

    Red card j gets label b_j = number of black cards before it, in 0..n-1.
    The reds per gap are a uniform weak composition of n-1 into n parts, in
    uniform order, so a label sequence s has probability proportional to
    the product of d_v! over its label counts d_v.  That is the number of
    labelled plane trees with code s, a plane tree being a rooted tree with
    its children ordered, so the coupon rule on (b_1, ..., b_{n-1}) samples
    the independence number of a uniform plane tree on n vertices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    perm = rng.permutation(2 * n - 2)
    is_black = perm >= n - 1
    blacks_before = np.cumsum(is_black) - is_black
    labels = np.empty(n - 1, dtype=np.int64)
    labels[perm[~is_black]] = blacks_before[~is_black]
    return labels


def plane_trial(n: int, rng: np.random.Generator) -> int:
    return coupon_read(plane_deal(n, rng), n)


def sample_uniform_rooted_tree(n: int, variant: Variant = NORMAL,
                               rng: np.random.Generator | None = None) -> RootedTree:
    """Exactly uniform over the n^(n-1) rooted labelled trees.

    The dice throws are the code: uniform symbols -> uniform trees, by
    bijectivity; the variant changes which tree a given throw sequence maps
    to but not the distribution.
    """
    if rng is None:
        rng = RandomSource(fresh_seed()).trial_rng(0)
    return decode_sequence(dice_deal(n, rng).tolist(), n, variant)


def sample_uniform_labelled_tree(n: int, rng: np.random.Generator | None = None):
    """Uniform unrooted labelled tree as a sorted edge list, via Prufer."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rng is None:
        rng = RandomSource(fresh_seed()).trial_rng(0)
    if n == 1:
        return []
    return prufer_decode(rng.integers(1, n + 1, size=n - 2))


@dataclass(frozen=True)
class TrialHistogram:
    """Counts of a trial statistic, tagged with its provenance."""

    parameter: str
    n: int
    trials: int
    seed: int
    counts: dict[int, int]

    def probabilities(self) -> dict[int, float]:
        return {v: c / self.trials for v, c in sorted(self.counts.items())}

    def mean(self) -> float:
        return sum(v * c for v, c in self.counts.items()) / self.trials

    def variance(self) -> float:
        mu = self.mean()
        return sum(c * (v - mu) ** 2 for v, c in self.counts.items()) / self.trials

    def merge(self, other: "TrialHistogram") -> "TrialHistogram":
        """Combine disjoint runs.  Associative and order-independent."""
        if (self.parameter, self.n) != (other.parameter, other.n):
            raise ValueError("histograms describe different experiments")
        counts = Counter(self.counts)
        counts.update(other.counts)
        return TrialHistogram(parameter=self.parameter, n=self.n,
                              trials=self.trials + other.trials,
                              seed=min(self.seed, other.seed),
                              counts=dict(sorted(counts.items())))

    __add__ = merge

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "parameter": self.parameter,
            "trials": self.trials,
            "seed": self.seed,
            "counts": {str(v): c for v, c in sorted(self.counts.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrialHistogram":
        """Read integers strictly; n and trials are >= 1, counts >= 0 and sum to trials."""
        hist = cls(parameter=str(d["parameter"]), n=_strict_int(d["n"], "n"),
                   trials=_strict_int(d["trials"], "trials"), seed=_strict_int(d["seed"], "seed"),
                   counts={_strict_int(v, "count key"): _strict_int(c, "count")
                           for v, c in d["counts"].items()})
        if hist.n < 1:
            raise ValueError(f"n must be >= 1, got {hist.n}")
        if hist.trials < 1:
            raise ValueError(f"trials must be >= 1, got {hist.trials}")
        for v, c in hist.counts.items():
            if c < 0:
                raise ValueError(f"counts must be >= 0, got {c} for value {v}")
        if sum(hist.counts.values()) != hist.trials:
            raise ValueError(f"counts sum to {sum(hist.counts.values())}, "
                             f"not to trials = {hist.trials}")
        return hist


def run_trials(trial, trials: int, seed: int, *, n: int, parameter: str,
               threads: int | None = None) -> TrialHistogram:
    """Tally trial(rng) over trial indices 0..trials-1, one generator per index.

    Trials run serially; threads is kept for old callers and accepts only
    None or 1.
    """
    if threads not in (None, 1):
        raise ValueError(f"threads must be 1, trials run on one thread; got {threads}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    source = RandomSource(seed)
    counts = Counter(trial(source.trial_rng(i)) for i in range(trials))
    return TrialHistogram(parameter=parameter, n=n, trials=trials, seed=seed,
                          counts=dict(sorted(counts.items())))


def _counts_and_total(dist):
    counts = getattr(dist, "counts", dist)
    if not counts:
        raise ValueError("empty distribution")
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("distribution has no mass")
    return counts, total


def tv_distance(a, b) -> float:
    """Total variation distance between two count distributions.

    Accepts TrialHistogram, DistributionTable, or any value -> count map;
    each side is normalized by its own total.
    """
    ca, ta = _counts_and_total(a)
    cb, tb = _counts_and_total(b)
    return float(sum(abs(Fraction(ca.get(v, 0), ta) - Fraction(cb.get(v, 0), tb))
                     for v in set(ca) | set(cb))) / 2


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    threshold: float
    significance: float
    ok: bool


def chi_square(hist: TrialHistogram, exact, significance: float = 0.99) -> ChiSquareResult:
    """Goodness of fit of sampled counts against an exact distribution.

    Cells are pooled in value order until each expected count reaches 5,
    the usual validity floor.  The verdict compares the statistic to the
    chi-square quantile at the given significance (Wilson-Hilferty
    approximation, fine at these dof).
    """
    counts, total = _counts_and_total(exact)
    support = sorted(set(hist.counts) | set(counts))
    expected = {v: hist.trials * counts.get(v, 0) / total for v in support}

    buckets = []  # (observed, expected) after pooling
    acc_o, acc_e = 0, 0.0
    for v in support:
        acc_o += hist.counts.get(v, 0)
        acc_e += expected[v]
        if acc_e >= 5.0:
            buckets.append((acc_o, acc_e))
            acc_o, acc_e = 0, 0.0
    if acc_o or acc_e:
        if buckets:
            o, e = buckets.pop()
            buckets.append((o + acc_o, e + acc_e))
        else:
            buckets.append((acc_o, acc_e))

    stat = 0.0
    for o, e in buckets:
        if e == 0:
            stat = float("inf") if o else stat
            continue
        stat += (o - e) ** 2 / e
    # an observed value the law forbids must reject no matter how the cells
    # pooled; merging it into a wide cell would otherwise mask it
    if any(o and counts.get(v, 0) == 0 for v, o in hist.counts.items()):
        stat = float("inf")
    dof = max(len(buckets) - 1, 1)

    # Wilson-Hilferty inverse chi-square
    z = {0.95: 1.6448536269514722, 0.99: 2.3263478740408408,
         0.999: 3.090232306167813}.get(significance)
    if z is None:
        raise ValueError(f"unsupported significance {significance}")
    h = 2.0 / (9.0 * dof)
    threshold = dof * (1.0 - h + z * h ** 0.5) ** 3
    return ChiSquareResult(statistic=stat, dof=dof, threshold=threshold,
                           significance=significance, ok=stat <= threshold)
