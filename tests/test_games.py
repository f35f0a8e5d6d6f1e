"""Seeded simulation harness: games, decks, histograms, and the fit checks."""

import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slithercode import (
    Deck,
    RandomSource,
    TrialHistogram,
    binary_lr_trial,
    chi_square,
    dice_trial,
    fresh_seed,
    full_binary_trial,
    independence_number,
    plane_trial,
    prefix_alpha,
    run_trials,
    sample_uniform_labelled_tree,
    sample_uniform_rooted_tree,
    tv_distance,
)

from slithercode.codec import decode_sequence
from slithercode.games import DEALS, _plane, full_binary_m
from slithercode.trees import COMPLY, NORMAL, Variant

from conftest import multiset_permutations


# --- randomness plumbing ----------------------------------------------------


def test_trial_rng_is_deterministic_per_index():
    src = RandomSource(seed=5)
    a = src.trial_rng(3).integers(0, 1 << 30, size=8)
    b = RandomSource(seed=5).trial_rng(3).integers(0, 1 << 30, size=8)
    c = src.trial_rng(4).integers(0, 1 << 30, size=8)
    assert (a == b).all()
    assert (a != c).any()


def test_fresh_seed_range():
    seeds = {fresh_seed() for _ in range(8)}
    assert all(0 <= s < 2**63 for s in seeds)
    assert len(seeds) > 1


@pytest.mark.parametrize("seed", (-1, 2**64, 2**64 + 5, -(2**64)))
def test_seeds_outside_64_bits_are_refused(seed):
    # the generator reads a seed mod 2^64, so each of these would repeat a seed inside
    trial = lambda rng: dice_trial(6, rng)
    for make in (lambda: RandomSource(seed),
                 lambda: run_trials(trial, 10, seed, n=6, parameter="alpha")):
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\^64-1"):
            make()


@pytest.mark.parametrize("seed, shown", ((True, "True"), (1.5, "1.5"), (None, "None"),
                                         ("x", "'x'")))
def test_seeds_are_read_strictly(seed, shown):
    trial = lambda rng: dice_trial(6, rng)
    for make in (lambda: RandomSource(seed),
                 lambda: run_trials(trial, 10, seed, n=6, parameter="alpha")):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(shown)}$"):
            make()


def test_a_seed_in_text_is_read_as_an_int():
    assert RandomSource("7") == RandomSource(7)
    assert run_trials(lambda rng: dice_trial(6, rng), 10, "7", n=6, parameter="alpha") == \
        run_trials(lambda rng: dice_trial(6, rng), 10, 7, n=6, parameter="alpha")


@pytest.mark.parametrize("seed", (0, 1, 2**63, 2**64 - 1))
def test_seeds_inside_64_bits_are_accepted(seed):
    assert RandomSource(seed).trial_rng(0).integers(1, 7, size=3).shape == (3,)
    hist = run_trials(lambda rng: dice_trial(6, rng), 10, seed, n=6, parameter="alpha")
    assert (hist.seed, hist.trials) == (seed, 10)


def _splitmix64(seed: int, index: int) -> int:
    # the scalar splitmix64 that seeded trial generators one at a time, kept as the oracle
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_trial_rng_has_numpys_pcg64_state():
    # the bulk seed words must give the state numpy gives the integer seed; seeds below
    # 2^32 are one-word entropy, and the indices sit at block edges and at either end
    seeds = [0, 1, 5, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
             *map(int, np.random.default_rng(18).integers(0, 2**64 - 1, 12, dtype=np.uint64))]
    indices = (0, 1, 1023, 1024, 2049, 10**7 - 1, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in seeds:
            source = RandomSource(seed)
            for i in indices:
                want = np.random.PCG64(_splitmix64(seed, i)).state
                assert source.trial_rng(i).bit_generator.state == want, (seed, i)


@pytest.mark.parametrize("j", (4, 700, 5000))  # same block as i, and a later block
def test_trial_generators_draw_independently(j):
    source = RandomSource(11)
    whole = source.trial_rng(3).integers(0, 1 << 62, size=40)
    first = source.trial_rng(3)
    head = first.integers(0, 1 << 62, size=20)
    source.trial_rng(j).integers(0, 1 << 62, size=1000)
    source.trial_rng(3 + 2048).random(10)
    tail = first.integers(0, 1 << 62, size=20)
    assert (np.concatenate([head, tail]) == whole).all()


def test_the_64_bit_range_is_named_in_full():
    with pytest.raises(ValueError) as err:
        RandomSource(-5)
    assert str(err.value) == "seed must be in 0..2^64-1, got -5"
    with pytest.raises(ValueError) as err:
        RandomSource(5).trial_rng(2**64)
    assert str(err.value) == f"trial index must be in 0..2^64-1, got {2**64}"


@pytest.mark.parametrize("index", (-1, 2**64, -(2**64)))
def test_trial_index_outside_64_bits_is_refused(index):
    # splitmix64 reads the index mod 2^64, so -1 would repeat 2^64 - 1
    with pytest.raises(ValueError, match=r"trial index must be in 0\.\.2\^64-1"):
        RandomSource(5).trial_rng(index)


def test_trial_generator_cannot_spawn():
    rng = RandomSource(8).trial_rng(1500)
    with pytest.raises(TypeError):
        rng.spawn(1)


def test_import_loads_no_numpy_random():
    # numpy.random costs 10-15 ms to import; the first trial loads it, not the import
    code = "import sys, slithercode, slithercode.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=os.environ, check=True).stdout
    assert out == "False\n"


def test_samplers_draw_without_a_generator():
    # with no rng they seed one from system entropy; they need no trial block for one draw
    tree = sample_uniform_rooted_tree(30)
    assert tree.n == 30 and len(tree.edges()) == 29
    assert len(sample_uniform_labelled_tree(30)) == 29


def test_run_trials_is_seed_deterministic():
    mk = lambda: run_trials(lambda rng: dice_trial(6, rng), 400, 21, n=6, parameter="alpha")
    assert mk() == mk()


@pytest.mark.parametrize("k", (0, 117, 300))
def test_run_trials_merges_index_ranges(k):
    # trial i is a pure function of (seed, i): tallies of [0, k) and [k, N)
    # made by hand add up to the run over [0, N)
    trial = lambda rng: dice_trial(200, rng)
    source = RandomSource(9)
    parts = [Counter(trial(source.trial_rng(i)) for i in range(lo, hi))
             for lo, hi in ((0, k), (k, 300))]
    assert parts[0] + parts[1] == run_trials(trial, 300, 9, n=200, parameter="alpha").counts


def test_run_trials_runs_on_one_thread():
    trial = lambda rng: dice_trial(8, rng)
    kw = dict(n=8, parameter="alpha")
    assert run_trials(trial, 50, 9, threads=1, **kw) == run_trials(trial, 50, 9, **kw)
    for threads in (2, 0):
        with pytest.raises(ValueError, match="threads must be 1"):
            run_trials(trial, 50, 9, threads=threads, **kw)


# --- the games --------------------------------------------------------------


@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_dice_trial_bounds(n, seed):
    a = dice_trial(n, np.random.default_rng(seed))
    assert 1 <= a <= n - 1


@pytest.mark.parametrize("symbols, n, message", (
    ([1, 2], 0, "^n must be >= 1, got 0$"),
    ([1, 2], -4, "^n must be >= 1, got -4$"),
    ((), True, "^n must be an integer, got True$"),
))
def test_the_coupon_read_refuses_n_below_1(symbols, n, message):
    # each of these read 1, as n = 1 does
    with pytest.raises(ValueError, match=message):
        prefix_alpha(symbols, n)
    assert prefix_alpha((), 1) == 1


def test_single_symbol_deck_always_reads_three():
    d = Deck(n=4, multiplicities=(3, 0, 0, 0))
    rng = np.random.default_rng(0)
    assert {prefix_alpha(rng.permutation(d.cards()), d.n) for _ in range(20)} == {3}


def test_full_binary_one_pair_always_reads_two():
    rng = np.random.default_rng(1)
    assert {full_binary_trial(1, rng) for _ in range(20)} == {2}


def test_deck_for_tree_matches_out_degrees(fig1):
    d = Deck.for_tree(fig1["tree"])
    assert d.n == 10
    kids = fig1["tree"].children_lists()
    assert d.multiplicities == tuple(len(kids[v]) for v in range(1, 11))
    assert sorted(d.cards()) == sorted(fig1["code"])


@pytest.mark.parametrize(
    "n, mult, fragment",
    (
        (4, (1, 1, 1), "one multiplicity per card"),
        (4, (1, 1, 1, 1), "must hold n-1"),
        (0, (), "n must be >= 1"),
        (4, (-1, 2, 1, 1), "negative multiplicity"),
        (3, (1.9, 1.2, 0), r"^multiplicity at index 0 must be an integer, got 1\.9$"),
        (3, (True, 1, 0), "^multiplicity at index 0 must be an integer, got True$"),
        (2, 5, "^multiplicities must be a sequence, got 5$"),
        # a str was read as its characters and a set in hash order
        (3, "110", "^multiplicities must be a sequence, got '110'$"),
        (3, {1, 0}, r"^multiplicities must be a sequence, got \{0, 1\}$"),
    ),
)
def test_deck_rejects(n, mult, fragment):
    with pytest.raises(ValueError, match=fragment):
        Deck(n=n, multiplicities=mult)


@pytest.mark.parametrize("n, mult, shown", ((True, (0,), "True"), (2.0, (1, 0), "2.0"),
                                             ("x", (1, 0), "'x'"), (None, (1, 0), "None")))
def test_deck_reads_n_strictly(n, mult, shown):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(shown)}$"):
        Deck(n=n, multiplicities=mult)


def test_deck_reads_n_as_an_int():
    d = Deck(n="2", multiplicities=(1, 0))
    assert type(d.n) is int and d.cards().tolist() == [1]


def test_card_trial_matches_the_exhaustive_conditional_law():
    # deck with cards (1,1,1,2): three of the four distinct deals read 3
    d = Deck(n=5, multiplicities=(3, 1, 0, 0, 0))
    exact = Counter(prefix_alpha(deal, 5) for deal in multiset_permutations(d.cards()))
    assert exact == {3: 3, 4: 1}
    hist = run_trials(lambda rng: prefix_alpha(rng.permutation(d.cards()), d.n), 4000, 17,
                      n=5, parameter="alpha")
    assert chi_square(hist, exact).ok


@given(st.integers(2, 50), st.integers(0, 2**32 - 1))
def test_lr_and_plane_trials_stay_in_range(n, seed):
    rng = np.random.default_rng(seed)
    assert 1 <= binary_lr_trial(n, rng) <= n - 1
    assert 1 <= plane_trial(n, rng) <= n - 1


# --- deals ------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, deal, trial, size, n",
    (
        # each deck as first defined; the plane deal's reference is the next test's
        ("dice", lambda rng: rng.integers(1, 10, size=8), dice_trial, 9, 9),
        ("full-binary", lambda rng: rng.permutation(Deck.full_binary(4).cards()),
         full_binary_trial, 4, 9),
        ("binary-lr", lambda rng: rng.permutation(np.repeat(np.arange(1, 10), 2))[:8],
         binary_lr_trial, 9, 9),
        ("plane", lambda rng: _plane(9, rng), plane_trial, 9, 9),
        ("plane", lambda rng: _plane(1, rng), plane_trial, 1, 1),
    ),
    ids=("dice_deal-dice_trial-9-9", "full_binary_deal-full_binary_trial-4-9",
         "binary_lr_deal-binary_lr_trial-9-9", "plane_deal-plane_trial-9-9",
         "plane_deal-plane_trial-1-1"),
)
def test_each_trial_is_the_coupon_read_of_its_deal(family, deal, trial, size, n):
    # a trial takes its family's size (m for full-binary); DEALS[family] takes n
    for i in range(20):
        cards = deal(RandomSource(3).trial_rng(i))
        assert len(cards) == n - 1
        assert trial(size, RandomSource(3).trial_rng(i)) == prefix_alpha(cards, n)
        assert np.array_equal(DEALS[family](n)(RandomSource(3).trial_rng(i)), cards)


def test_plane_deal_draws_the_cards_of_a_running_black_count():
    # the reference labels each red card by a running count of the black cards before it
    def reference(n, rng):
        perm = rng.permutation(2 * n - 2)
        is_black = perm >= n - 1
        blacks_before = np.cumsum(is_black) - is_black
        labels = np.empty(n - 1, dtype=np.int64)
        labels[perm[~is_black]] = blacks_before[~is_black]
        return labels

    source = RandomSource(26)
    for i in range(1000):
        n = (1, 2, 3, 7, 40, 500)[i % 6]
        got, want = DEALS["plane"](n)(source.trial_rng(i)), reference(n, source.trial_rng(i))
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, i)


@pytest.mark.parametrize(
    "n, deals",
    (
        # binary-lr: every ordered draw of 4 of the 10 cards (v, side), sides ignored
        (5, [[c // 2 + 1 for c in draw] for draw in itertools.permutations(range(10), 4)]),
        # full-binary at m = 3: the 90 distinct orders of 1, 1, 2, 2, 3, 3
        (7, list(multiset_permutations((1, 1, 2, 2, 3, 3)))),
    ),
    ids=("binary-lr", "full-binary"),
)
def test_deal_decodes_to_one_tree_law_at_every_variant(n, deals):
    # a vertex's symbol count is its out-degree at every variant, and a deal's
    # probability depends only on those counts, so sample may decode at any
    laws = [Counter(decode_sequence(d, n, variant) for d in deals)
            for variant in (NORMAL, COMPLY, Variant(3))]
    assert laws[0] == laws[1] == laws[2]


def plane_tree_alpha_law(n):
    """Independence numbers of the plane trees on n vertices, one per Dyck word."""
    law = Counter()
    for word in itertools.product((1, -1), repeat=2 * n - 2):
        if sum(word) or min(itertools.accumulate(word), default=0) < 0:
            continue
        parent, path = [0], [0]  # an up step adds a child to the end of the path
        for step in word:
            if step == 1:
                parent.append(path[-1])
                path.append(len(parent) - 1)
            else:
                path.pop()
        # children follow their parent in the word, so a reverse scan sees them first
        has_p_child, alpha = [False] * n, 0
        for v in range(n - 1, -1, -1):
            if not has_p_child[v]:
                alpha += 1
                if v:
                    has_p_child[parent[v]] = True
        law[alpha] += 1
    return law


class _FixedOrder:
    """Stands in for a generator whose permutation(k) returns one given order."""

    def __init__(self, order=None):
        self.order, self.sizes = order, []

    def permutation(self, k):
        self.sizes.append(k)
        return np.arange(k) if self.order is None else np.array(self.order, dtype=np.int64)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_plane_trial_has_the_plane_tree_law_over_every_order_of_its_deal(n):
    probe = _FixedOrder()
    plane_trial(n, probe)
    (k,) = probe.sizes
    tally = Counter(plane_trial(n, _FixedOrder(order))
                    for order in itertools.permutations(range(k)))
    law = plane_tree_alpha_law(n)
    total, trees = math.factorial(k), math.comb(2 * n - 2, n - 1) // n
    assert sum(law.values()) == trees
    assert {a: Fraction(c, total) for a, c in tally.items()} == \
        {a: Fraction(c, trees) for a, c in law.items()}


def test_plane_tree_alpha_law_small_cases():
    # of the 5 plane trees on 4 vertices, the star and the root over a cherry read 3
    assert plane_tree_alpha_law(1) == {1: 1}
    assert plane_tree_alpha_law(3) == {2: 2}
    assert plane_tree_alpha_law(4) == {2: 3, 3: 2}


def test_full_binary_deal_shuffles_the_full_binary_deck():
    # the same cards in the same order, so the same draws give the same deal; binary-lr
    # deals the first n - 1 of its shuffled deck of two cards of each of 1..n
    for m in (1, 3, 40):
        want = np.random.default_rng(m).permutation(Deck.full_binary(m).cards())
        got = DEALS["full-binary"](2 * m + 1)(np.random.default_rng(m))
        assert got.dtype == want.dtype and (got == want).all()
    for n in (1, 2, 9, 80):
        want = np.random.default_rng(n).permutation(np.repeat(np.arange(1, n + 1), 2))[:n - 1]
        got = DEALS["binary-lr"](n)(np.random.default_rng(n))
        assert got.dtype == want.dtype and (got == want).all()


@pytest.mark.parametrize("family, message", (
    ("dice", "^n must be >= 1, got 0$"),
    ("full-binary", r"^full-binary needs odd n = 2m\+1 >= 3, got 0$"),
    ("binary-lr", "^n must be >= 1, got 0$"),
    ("plane", "^n must be >= 1, got 0$"),
), ids=("dice_deal", "full_binary_deal", "binary_lr_deal", "plane_deal"))
def test_deals_check_their_size(family, message):
    # DEALS reads the size; the deal it returns trusts it
    with pytest.raises(ValueError, match=message):
        DEALS[family](0)


def test_full_binary_m():
    assert [full_binary_m(n) for n in (3, 5, 501)] == [1, 2, 250]
    for n in (-1, 0, 1, 2, 6):
        with pytest.raises(ValueError, match="odd n"):
            full_binary_m(n)


# --- samplers ---------------------------------------------------------------


def test_uniform_rooted_sampler_decodes_the_dice_deal():
    for variant in (NORMAL, COMPLY):
        tree = sample_uniform_rooted_tree(9, variant, RandomSource(4).trial_rng(0))
        throws = DEALS["dice"](9)(RandomSource(4).trial_rng(0))
        assert tree == decode_sequence(throws, 9, variant)


def test_uniform_rooted_sampler_hits_all_nine_trees_uniformly():
    rng = np.random.default_rng(33)
    tally = Counter(sample_uniform_rooted_tree(3, rng=rng) for _ in range(1800))
    assert len(tally) == 9
    stat = sum((c - 200) ** 2 / 200 for c in tally.values())
    assert stat < 20.1  # chi-square 0.99 quantile at 8 dof


def test_uniform_rooted_sampler_alpha_law():
    rng = np.random.default_rng(7)
    tally = Counter(
        independence_number(sample_uniform_rooted_tree(4, rng=rng)) for _ in range(2000))
    h = TrialHistogram(parameter="alpha", n=4, trials=2000, seed=7, counts=dict(tally))
    assert chi_square(h, {2: 48, 3: 16}).ok


def test_uniform_labelled_sampler_returns_tree_edges():
    edges = sample_uniform_labelled_tree(6, rng=np.random.default_rng(2))
    assert len(edges) == 5
    seen = set()
    for u, v in edges:
        assert 1 <= u < v <= 6
        seen.update((u, v))
    assert len(seen) == 6  # spanning


# --- histograms -------------------------------------------------------------


def test_histogram_moments():
    h = TrialHistogram(parameter="alpha", n=4, trials=4, seed=0, counts={2: 3, 3: 1})
    assert h.mean() == 2.25
    assert h.variance() == pytest.approx(0.1875)
    assert h.probabilities() == {2: 0.75, 3: 0.25}


def test_histogram_json_keys_are_strings():
    h = run_trials(lambda rng: dice_trial(5, rng), 150, 3, n=5, parameter="alpha")
    assert all(isinstance(k, str) for k in h.to_json_dict()["counts"])


@pytest.mark.parametrize("counts, message", (
    ({3: 4}, "counts sum to 4, not to trials = 10"),
    ({3: 14, 4: -4}, "counts must be >= 0, got -4 for value 4"),
    ({3: 10, 4: 1}, "counts sum to 11, not to trials = 10"),
))
def test_histogram_checks_its_counts_where_it_is_built(counts, message):
    # unchecked, mean() of counts={3: 4} over 10 trials read 1.2
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrialHistogram(parameter="alpha", n=5, trials=10, seed=1, counts=counts)


@pytest.mark.parametrize("field, bad, message", [
    ("parameter", 5, "parameter must be a string, got 5"),
    ("n", 0, "n must be >= 1, got 0"),
    ("seed", -3, "seed must be in 0..2^64-1, got -3"),
    ("parameter", None, "parameter must be a string, got None"),
    ("seed", 2**70, f"seed must be in 0..2^64-1, got {2**70}"),
    ("trials", 0, "trials must be >= 1, got 0"),
], ids=("parameter", "n", "seed", "parameter-null", "seed-past-64-bits", "trials"))
def test_histogram_checks_its_fields_where_it_is_built(field, bad, message):
    # unchecked, TrialHistogram(parameter=5, n=0, seed=-3) was built, and with
    # trials=0 and no counts, mean() raised ZeroDivisionError
    good = dict(parameter="alpha", n=5, trials=2, seed=1, counts={3: 2})
    assert TrialHistogram(**good).mean() == 3
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrialHistogram(**{**good, field: bad})


# --- fit statistics ---------------------------------------------------------


def test_tv_distance_basics():
    assert tv_distance({1: 4}, {1: 9}) == 0.0
    assert tv_distance({1: 1, 2: 1}, {1: 1, 2: 3}) == 0.25
    assert tv_distance({1: 1}, {2: 7}) == 1.0


@pytest.mark.parametrize("fit", (lambda c: tv_distance(c, {1: 1}),
                                 lambda c: chi_square(TrialHistogram("alpha", 4, 1, 0, {1: 1}), c)),
                         ids=("tv_distance", "chi_square"))
def test_fit_statistics_refuse_negative_counts(fit):
    # tv_distance({1: -1, 2: 2}, {1: 1}) was 2.0, past the most a TV distance can be
    with pytest.raises(ValueError, match="^counts must be >= 0, got -1 for value 1$"):
        fit({1: -1, 2: 2})


def test_tv_accepts_histograms():
    h = TrialHistogram(parameter="alpha", n=4, trials=4, seed=0, counts={2: 3, 3: 1})
    assert tv_distance(h, {2: 3, 3: 1}) == 0.0


def test_chi_square_accepts_the_true_law():
    h = run_trials(lambda rng: dice_trial(4, rng), 2000, 5, n=4, parameter="alpha")
    r = chi_square(h, {2: 48, 3: 16})
    assert r.ok and r.dof == 1 and r.statistic < r.threshold


def test_chi_square_rejects_an_inverted_law():
    h = run_trials(lambda rng: dice_trial(4, rng), 2000, 5, n=4, parameter="alpha")
    r = chi_square(h, {2: 16, 3: 48}, significance=0.999)
    assert not r.ok


def test_chi_square_pools_thin_cells():
    h = run_trials(lambda rng: dice_trial(4, rng), 500, 5, n=4, parameter="alpha")
    r = chi_square(h, {1: 1, 2: 3000, 3: 1000, 4: 1})
    assert r.dof == 1  # the four cells cannot all reach the floor of 5


def test_chi_square_rejects_forbidden_values():
    h = TrialHistogram(parameter="alpha", n=4, trials=100, seed=0, counts={2: 99, 9: 1})
    r = chi_square(h, {2: 48, 3: 16})
    assert math.isinf(r.statistic) and not r.ok


def test_chi_square_unsupported_significance():
    h = TrialHistogram(parameter="alpha", n=4, trials=10, seed=0, counts={2: 10})
    with pytest.raises(ValueError, match="significance"):
        chi_square(h, {2: 1}, significance=0.5)
