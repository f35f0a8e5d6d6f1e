"""Chance-game simulators whose stopping values mirror tree parameters.

The dice game throws an n-sided die and stops at the first throw count a
where the number of distinct faces reaches n - a; by the codec bijection
the stop value is distributed exactly like the independence number of a
uniform random rooted tree on n vertices.  Card-deck variants restrict the
multiset of symbols (a deck with d_v copies of v conditions on out-degree
profile d), covering uniform full binary trees, left/right binary trees,
and plane trees.

Reproducibility contract: a trial is a pure function of (master seed,
trial index).  Trial i draws from np.random.PCG64(splitmix64(seed, i)), so
the tallies of disjoint index ranges add up, in any order, to the tally of
their union.  Seeding a PCG64 from an integer hashes it
through numpy's SeedSequence, one integer per call; RandomSource.trial_rng
runs that hash over 1024 indices at a time, in numpy, and hands each
generator its precomputed words.  Such a generator draws exactly as
np.random.PCG64(splitmix64(seed, i)) does, but it cannot spawn child
generators, and nothing in this package spawns.  Trials run on one thread:
a trial holds the interpreter lock for most of its time, and a thread pool
ran slower than the serial loop.
"""

from __future__ import annotations

import functools
import secrets
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import decode_sequence, prefix_alpha, prufer_decode
from .trees import (NORMAL, RootedTree, Variant, _check_positive, _echo, _sequence, _strict_int,
                    _strict_ints)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
_BLOCK = 1024  # trial indices whose generator seeds are derived in one pass

# numpy's SeedSequence hash of 32-bit words: its k-th hash while mixing the pool
# xors by INIT_A * MULT_A^k and multiplies by INIT_A * MULT_A^(k+1), and
# generate_state does the same with INIT_B and MULT_B.  None depends on the data.
_POOL_HASH = np.array([0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) % (1 << 32)
                       for k in range(17)], dtype=np.uint32)
_STATE_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) % (1 << 32)
                        for k in range(9)], dtype=np.uint32)


def _hash(value: np.ndarray, consts: np.ndarray, k) -> np.ndarray:
    """SeedSequence's k-th hash of value; k may be an index array, one hash per row."""
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> 16)


@functools.lru_cache(maxsize=1)
def _block_words(seed: int, block: int) -> np.ndarray:
    """Row r is SeedSequence(splitmix64(seed, i)).generate_state(4, uint64), i = block*_BLOCK + r.

    Those are the words np.random.PCG64(splitmix64(seed, i)) seeds itself
    with.  SeedSequence's loops run here across the block, in the same order.
    """
    z = (np.arange(_BLOCK, dtype=np.uint64) * _GOLDEN
         + ((seed + (block * _BLOCK + 1) * _GOLDEN) & _MASK64))
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    # The entropy is z's low and high 32-bit words; a z below 2^32 is one word,
    # and the pool hashes a 0 for each missing word, as for a high word of 0.
    pool = np.zeros((4, _BLOCK), dtype=np.uint32)
    pool[0], pool[1] = z.astype(np.uint32), (z >> 32).astype(np.uint32)
    pool = _hash(pool, _POOL_HASH, np.arange(4)[:, None])
    for src in range(4):  # each other word mixes in a hash of pool[src], in turn
        dst = [d for d in range(4) if d != src]
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(
            pool[src], _POOL_HASH, 4 + 3 * src + np.arange(3)[:, None])
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH, np.arange(8)[:, None])
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32
    words = np.ascontiguousarray(words.T)  # PCG64 reads a row's 4 words from memory
    words.flags.writeable = False
    return words


@functools.cache
def _seed_words_type() -> type:
    # numpy.random loads here, on the first trial, not when the package is imported
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A SeedSequence's generate_state(4, uint64), computed ahead; it cannot spawn."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("only PCG64's request, 4 uint64 words, was computed ahead")
            return self.words

        def __reduce__(self):  # pickle finds the class through the module function
            return _seed_words, (self.words,)

    return SeedWords


def _seed_words(words: np.ndarray):
    return _seed_words_type()(words)


def _word64(value, what: str) -> int:
    """value as _strict_int reads it; ValueError unless it is in 0..2^64-1, since splitmix64
    reads a seed or trial index mod 2^64 and one outside the range would repeat one inside."""
    if type(value) is not int:  # one call per trial: the index is an int
        value = _strict_int(value, what)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{what} must be in 0..2^64-1, got {value}")
    return value


@dataclass(frozen=True)
class RandomSource:
    """Master seed, 0 <= seed < 2^64, from which independent per-trial generators are derived."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _word64(self.seed, "seed"))

    def trial_rng(self, index: int) -> np.random.Generator:
        """Trial index's generator: draws as np.random.PCG64(splitmix64(seed, index)) does.

        The seed words are those of index's block of _BLOCK indices, derived
        together and kept for the latest block, so a run of consecutive
        trials hashes each index once, in bulk.  The generator cannot spawn:
        it has no SeedSequence to spawn from, and nothing in this package
        spawns.  The index is read as _strict_int reads it, and one outside
        0..2^64-1 raises ValueError, as splitmix64 would read it mod 2^64.
        """
        block, row = divmod(_word64(index, "trial index"), _BLOCK)
        words = _block_words(self.seed, block)[row]
        return np.random.Generator(np.random.PCG64(_seed_words(words)))


def fresh_seed() -> int:
    return secrets.randbits(63)


def coupon_read(sequence, n: int) -> int:
    """First a with distinct(sequence[:a]) >= n - a.

    Same rule, same implementation as the read_alpha codec operation; the
    equality of game value and independence read is the point, not an
    accident.  prefix_alpha reads n by _strict_int, so a trial hands on its
    caller's n as it came.
    """
    return prefix_alpha(sequence, n)


def dice_deal(n: int, rng: np.random.Generator) -> np.ndarray:
    """n-1 throws of an n-sided die; as a code they are a uniform rooted tree."""
    n = _check_positive(n, "n")
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
        object.__setattr__(self, "n", _check_positive(self.n, "n"))
        mult = tuple(_strict_ints(_sequence(self.multiplicities, "multiplicities"), "multiplicity"))
        object.__setattr__(self, "multiplicities", mult)
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
        """The deck of the tree's out-degrees; bin 0 takes the parent tuple's two 0s."""
        mult = np.bincount(tree.parent, minlength=tree.n + 1)[1:]
        return cls(n=tree.n, multiplicities=mult.tolist())

    @classmethod
    def full_binary(cls, m: int) -> "Deck":
        """Two cards of each of 1..m, none of m+1..2m+1; n = 2m+1."""
        m = _check_positive(m, "m")
        return cls(n=2 * m + 1, multiplicities=(2,) * m + (0,) * (m + 1))


def card_trial(deck: Deck, rng: np.random.Generator) -> int:
    return coupon_read(rng.permutation(deck.cards()), deck.n)


def full_binary_m(n: int) -> int:
    """Internal-vertex count m of the full binary trees on n = 2m+1 vertices."""
    n = _strict_int(n, "n")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"full-binary needs odd n = 2m+1 >= 3, got {n}")
    return (n - 1) // 2


def full_binary_deal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled deck of two cards of each of 1..m: the cards of Deck.full_binary(m)."""
    m = _check_positive(m, "m")
    return rng.permutation(np.repeat(np.arange(1, m + 1), 2))


def full_binary_trial(m: int, rng: np.random.Generator) -> int:
    m = _check_positive(m, "m")
    return coupon_read(full_binary_deal(m, rng), 2 * m + 1)


def binary_lr_deal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Deck of 2n cards (v, left/right side), deal n-1, sides ignored.

    Models uniform binary trees with distinguished left/right children; the
    n+1 undealt cards are the free attachment slots.
    """
    n = _check_positive(n, "n")
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

    The cards are perm's values, reds 0..n-2 and blacks n-1..2n-3.  The r-th
    red card from the left has r reds before it, so the blacks before it
    are its position less r.
    """
    n = _check_positive(n, "n")
    perm = rng.permutation(2 * n - 2)
    red = np.flatnonzero(perm < n - 1)
    labels = np.empty(n - 1, dtype=np.int64)
    labels[perm[red]] = red - np.arange(n - 1)
    return labels


def plane_trial(n: int, rng: np.random.Generator) -> int:
    return coupon_read(plane_deal(n, rng), n)


# DEALS[family](n) reads n once by the family's size rule and returns its deal(rng):
# the n-1 cards whose coupon read is the family's game.  Decoded at any variant
# they draw the family's trees with one law, as a vertex's symbol count is its
# out-degree under every variant; plane's deal has no tree codec here.
DEALS = {
    "dice": lambda n: functools.partial(dice_deal, _check_positive(n, "n")),
    "full-binary": lambda n: functools.partial(full_binary_deal, full_binary_m(n)),
    "binary-lr": lambda n: functools.partial(binary_lr_deal, _check_positive(n, "n")),
    "plane": lambda n: functools.partial(plane_deal, _check_positive(n, "n")),
}


def sample_uniform_rooted_tree(n: int, variant: Variant = NORMAL,
                               rng: np.random.Generator | None = None) -> RootedTree:
    """Exactly uniform over the n^(n-1) rooted labelled trees.

    The dice throws are the code: uniform symbols -> uniform trees, by
    bijectivity; the variant changes which tree a given throw sequence maps
    to but not the distribution.  With no rng, one is seeded from system entropy.
    """
    if rng is None:
        rng = np.random.default_rng()
    return decode_sequence(dice_deal(n, rng).tolist(), n, variant)


def sample_uniform_labelled_tree(n: int, rng: np.random.Generator | None = None):
    """Uniform unrooted labelled tree as a sorted edge list, via Prufer; rng as above."""
    n = _check_positive(n, "n")
    if rng is None:
        rng = np.random.default_rng()
    if n == 1:
        return []
    return prufer_decode(rng.integers(1, n + 1, size=n - 2))


@dataclass(frozen=True)
class TrialHistogram:
    """Counts of a trial statistic, tagged with its provenance.  Where it is built,
    parameter must be a string, n and trials >= 1, the seed one RandomSource takes,
    and the counts >= 0, summing to trials."""

    parameter: str
    n: int
    trials: int
    seed: int
    counts: dict[int, int]

    def __post_init__(self):
        if not isinstance(self.parameter, str):
            raise ValueError(f"parameter must be a string, got {_echo(self.parameter)}")
        object.__setattr__(self, "n", _check_positive(self.n, "n"))
        object.__setattr__(self, "seed", RandomSource(self.seed).seed)
        object.__setattr__(self, "trials", _check_positive(self.trials, "trials"))
        total = _total(self.counts)
        if total != self.trials:
            raise ValueError(f"counts sum to {total}, not to trials = {self.trials}")

    def probabilities(self) -> dict[int, float]:
        return {v: c / self.trials for v, c in sorted(self.counts.items())}

    def mean(self) -> float:
        return sum(v * c for v, c in self.counts.items()) / self.trials

    def variance(self) -> float:
        mu = self.mean()
        return sum(c * (v - mu) ** 2 for v, c in self.counts.items()) / self.trials

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "parameter": self.parameter,
            "trials": self.trials,
            "seed": self.seed,
            "counts": {str(v): c for v, c in sorted(self.counts.items())},
        }


def run_trials(trial, trials: int, seed: int, *, n: int, parameter: str,
               threads: int | None = None) -> TrialHistogram:
    """Tally trial(rng) over trial indices 0..trials-1, one generator per index.

    Trials run serially; threads is kept for old callers and accepts only
    None or 1.
    """
    if threads not in (None, 1):
        raise ValueError(f"threads must be 1, trials run on one thread; got {threads}")
    trials = _check_positive(trials, "trials")
    source = RandomSource(seed)
    counts = Counter(trial(source.trial_rng(i)) for i in range(trials))
    return TrialHistogram(parameter=parameter, n=n, trials=trials, seed=source.seed,
                          counts=dict(sorted(counts.items())))


def _total(counts: dict) -> int:
    """The sum of the counts; ValueError names a negative one, which no distribution has."""
    for v, c in counts.items():
        if c < 0:
            raise ValueError(f"counts must be >= 0, got {c} for value {v}")
    return sum(counts.values())


def _counts_and_total(dist):
    counts = getattr(dist, "counts", dist)
    if not counts:
        raise ValueError("empty distribution")
    total = _total(counts)
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
