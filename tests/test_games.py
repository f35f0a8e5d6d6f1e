"""Seeded simulation harness: games, decks, histograms, and the fit checks."""

import itertools
import math
import re
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
    card_trial,
    chi_square,
    coupon_read,
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
from slithercode.games import (binary_lr_deal, dice_deal, full_binary_deal, full_binary_m,
                               plane_deal)
from slithercode.trees import COMPLY, NORMAL

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


def test_run_trials_is_seed_deterministic():
    mk = lambda: run_trials(lambda rng: dice_trial(6, rng), 400, 21, n=6, parameter="alpha")
    assert mk() == mk()


@pytest.mark.parametrize("k", (0, 117, 300))
def test_run_trials_merges_index_ranges(k):
    # trial i is a pure function of (seed, i): tallies of [0, k) and [k, N)
    # made by hand merge into the run over [0, N)
    trial = lambda rng: dice_trial(200, rng)
    source = RandomSource(9)
    kw = dict(parameter="alpha", n=200, seed=9)
    parts = [TrialHistogram(trials=hi - lo, counts=dict(Counter(
        trial(source.trial_rng(i)) for i in range(lo, hi))), **kw)
        for lo, hi in ((0, k), (k, 300))]
    merged = parts[0].merge(parts[1])
    assert merged == run_trials(trial, 300, 9, n=200, parameter="alpha")


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


@given(st.lists(st.integers(1, 9), min_size=8, max_size=8))
def test_coupon_read_is_prefix_alpha(seq):
    assert coupon_read(seq, 9) == prefix_alpha(seq, 9)


def test_single_symbol_deck_always_reads_three():
    d = Deck(n=4, multiplicities=(3, 0, 0, 0))
    rng = np.random.default_rng(0)
    assert {card_trial(d, rng) for _ in range(20)} == {3}


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
        (3, (1.9, 1.2, 0), "multiplicity must be an integer"),
        (3, (True, 1, 0), "multiplicity must be an integer"),
    ),
)
def test_deck_rejects(n, mult, fragment):
    with pytest.raises(ValueError, match=fragment):
        Deck(n=n, multiplicities=mult)


def test_card_trial_matches_the_exhaustive_conditional_law():
    # deck with cards (1,1,1,2): three of the four distinct deals read 3
    d = Deck(n=5, multiplicities=(3, 1, 0, 0, 0))
    exact = Counter(coupon_read(deal, 5) for deal in multiset_permutations(d.cards()))
    assert exact == {3: 3, 4: 1}
    hist = run_trials(lambda rng: card_trial(d, rng), 4000, 17, n=5, parameter="alpha")
    assert chi_square(hist, exact).ok


@given(st.integers(2, 50), st.integers(0, 2**32 - 1))
def test_lr_and_plane_trials_stay_in_range(n, seed):
    rng = np.random.default_rng(seed)
    assert 1 <= binary_lr_trial(n, rng) <= n - 1
    assert 1 <= plane_trial(n, rng) <= n - 1


# --- deals ------------------------------------------------------------------


@pytest.mark.parametrize(
    "deal, trial, size, n",
    (
        (dice_deal, dice_trial, 9, 9),
        (full_binary_deal, full_binary_trial, 4, 9),
        (binary_lr_deal, binary_lr_trial, 9, 9),
        (plane_deal, plane_trial, 9, 9),
        (plane_deal, plane_trial, 1, 1),
    ),
)
def test_each_trial_is_the_coupon_read_of_its_deal(deal, trial, size, n):
    for i in range(20):
        cards = deal(size, RandomSource(3).trial_rng(i))
        assert len(cards) == n - 1
        assert trial(size, RandomSource(3).trial_rng(i)) == coupon_read(cards, n)


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
    # the same cards in the same order, so the same draws give the same deal
    for m in (1, 3, 40):
        want = np.random.default_rng(m).permutation(Deck.full_binary(m).cards())
        assert (full_binary_deal(m, np.random.default_rng(m)) == want).all()


@pytest.mark.parametrize("deal", (dice_deal, full_binary_deal, binary_lr_deal, plane_deal))
def test_deals_check_their_size(deal):
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        deal(0, np.random.default_rng(0))


def test_full_binary_m():
    assert [full_binary_m(n) for n in (3, 5, 501)] == [1, 2, 250]
    for n in (-1, 0, 1, 2, 6):
        with pytest.raises(ValueError, match="odd n"):
            full_binary_m(n)


# --- samplers ---------------------------------------------------------------


def test_uniform_rooted_sampler_decodes_the_dice_deal():
    for variant in (NORMAL, COMPLY):
        tree = sample_uniform_rooted_tree(9, variant, RandomSource(4).trial_rng(0))
        throws = dice_deal(9, RandomSource(4).trial_rng(0))
        assert tree == decode_sequence(throws, 9, variant)


def test_uniform_rooted_sampler_hits_all_nine_trees_uniformly():
    rng = np.random.default_rng(33)
    tally = Counter(sample_uniform_rooted_tree(3, rng=rng).key() for _ in range(1800))
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


def test_histogram_merge_adds_counts():
    a = run_trials(lambda rng: dice_trial(5, rng), 200, 11, n=5, parameter="alpha")
    b = run_trials(lambda rng: dice_trial(5, rng), 300, 99, n=5, parameter="alpha")
    m = a + b
    assert m.trials == 500
    assert m.seed == 11
    assert sum(m.counts.values()) == 500
    for v in set(a.counts) | set(b.counts):
        assert m.counts.get(v, 0) == a.counts.get(v, 0) + b.counts.get(v, 0)


def test_histogram_merge_rejects_other_experiments():
    a = run_trials(lambda rng: dice_trial(5, rng), 100, 1, n=5, parameter="alpha")
    b = run_trials(lambda rng: dice_trial(4, rng), 100, 1, n=4, parameter="alpha")
    with pytest.raises(ValueError, match="different experiments"):
        a.merge(b)


def test_histogram_json_roundtrip():
    h = run_trials(lambda rng: dice_trial(5, rng), 150, 3, n=5, parameter="alpha")
    j = h.to_json_dict()
    assert all(isinstance(k, str) for k in j["counts"])
    assert TrialHistogram.from_json_dict(j) == h


@pytest.mark.parametrize("field, bad, message", [
    ("n", 1.9, "n must be an integer, got 1.9"),
    ("trials", True, "trials must be an integer, got True"),
    ("seed", 3.7, "seed must be an integer, got 3.7"),
    ("counts", {"1": 2.5}, "count must be an integer, got 2.5"),
    ("counts", {"1.5": 2}, "'1.5'"),
], ids=("n", "trials", "seed", "count", "count-key"))
def test_histogram_from_json_refuses_non_integers(field, bad, message):
    good = {"parameter": "alpha", "n": 5, "trials": 2, "seed": 3, "counts": {"1": 2}}
    assert TrialHistogram.from_json_dict(good).counts == {1: 2}
    with pytest.raises(ValueError, match=re.escape(message)):
        TrialHistogram.from_json_dict({**good, field: bad})


@pytest.mark.parametrize("field, bad, message", [
    ("n", -5, "n must be >= 1, got -5"),
    ("trials", 0, "trials must be >= 1, got 0"),
    ("counts", {"1": 7, "9": -4}, "counts must be >= 0, got -4 for value 9"),
    ("counts", {"1": 1}, "counts sum to 1, not to trials = 2"),
    ("counts", {"1": 2, "2": 1}, "counts sum to 3, not to trials = 2"),
], ids=("n", "trials", "negative-count", "short-sum", "long-sum"))
def test_histogram_from_json_checks_its_invariants(field, bad, message):
    good = {"parameter": "alpha", "n": 5, "trials": 2, "seed": 3, "counts": {"1": 2}}
    with pytest.raises(ValueError, match=re.escape(message)):
        TrialHistogram.from_json_dict({**good, field: bad})


# --- fit statistics ---------------------------------------------------------


def test_tv_distance_basics():
    assert tv_distance({1: 4}, {1: 9}) == 0.0
    assert tv_distance({1: 1, 2: 1}, {1: 1, 2: 3}) == 0.25
    assert tv_distance({1: 1}, {2: 7}) == 1.0


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
