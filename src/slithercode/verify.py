"""Self-checks of the library against oracles and exact references.

run(level) yields (name, ok, detail) for each check of CHECKS in order; a
check that raises counts as failed.  The full level widens the sweeps and
adds the sampling check.  Checks call the library through its modules
(codec.slither_decode), so a tracer patched onto those modules sees them.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations

from . import asymptotics, codec, counting, games, trees
from .codec import SlitherCode
from .trees import NORMAL, Variant


def _worked_example(full: bool):
    tree = trees.validate_tree({"n": 10, "root": 9, "parent": {
        5: 9, 2: 5, 3: 5, 1: 2, 7: 3, 6: 1, 8: 1, 4: 6, 10: 4}})
    code, aux = codec.slither_encode(tree, NORMAL)
    code2, _ = codec.slither_encode(tree, Variant(2))
    rr = codec.read_root_and_pset(code)
    ok = (code.symbols == (3, 1, 4, 1, 5, 9, 2, 6, 5)
          and aux == (7, 8, 10, 6, 2, 5, 1, 4, 3)
          and code2.symbols == (3, 5, 1, 4, 6, 1, 5, 9, 2)
          and codec.slither_decode(code) == tree
          and codec.slither_decode(code2) == tree
          and codec.read_alpha(code) == 6
          and (rr.root, rr.root_class) == (9, "P")
          and rr.p_set == frozenset({2, 6, 7, 8, 9, 10})
          and codec.read_matching_via_beta(code) == (5, 4)
          and codec.read_path_edges(code2) == (7, 7)
          and len(trees.path_cover_decomposition(tree)) == 3)
    return ok, "10-vertex reference tree, both variants"


def _bijection(full: bool):
    nmax = 5 if full else 4
    for b in (1, 2, 3):
        for n in range(1, nmax + 1):
            # a round trip on every code makes decode injective: c = encode(decode(c))
            for digits in counting.all_codes(n):
                t = codec.slither_decode(SlitherCode(n=n, variant=Variant(b),
                                                     symbols=digits))
                back, _ = codec.slither_encode(t, Variant(b))
                if back.symbols != digits:
                    return False, f"round trip failed at n={n} b={b} {digits}"
    return True, f"all codes, b in 1..3, n <= {nmax}"


def _reads(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        for digits in counting.all_codes(n):
            code = SlitherCode(n=n, variant=NORMAL, symbols=digits)
            t = codec.slither_decode(code)
            pm = trees.classify(t, NORMAL)
            p_set = pm.p_set()
            if codec.read_alpha(code) != len(p_set):
                return False, f"alpha read wrong for {digits} n={n}"
            rr = codec.read_root_and_pset(code)
            if rr.root != t.root or rr.p_set != p_set or rr.root_class != pm.label(t.root):
                return False, f"root/p-set read wrong for {digits} n={n}"
            if codec.read_matching_via_beta(code)[1] != n - len(p_set):
                return False, f"matching read wrong for {digits} n={n}"
            for b in (2, 3):
                code_b = SlitherCode(n=n, variant=Variant(b), symbols=digits)
                want = trees.classify(codec.slither_decode(code_b), Variant(b)).capacity_edges()
                if codec.read_capacity_edges(code_b, b)[1] != want:
                    return False, f"capacity read wrong for {digits} n={n} b={b}"
    return True, f"alpha, root, p-set, matching, capacity reads, n <= {nmax}"


def _counting(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        table = counting.exact_rooted_distribution(n, "independence")
        for a, c in table.counts.items():
            if c != counting.count_independence(n, a) * n:
                return False, f"rooted count mismatch n={n} alpha={a}"
        if counting.exact_dice_distribution(n).counts != table.counts:
            return False, f"dice law differs from tree law at n={n}"
    for n in range(2, 41):
        counting.independence_table(n)  # raises if the total identity fails
    for n in range(2, 13):
        if counting.expected_alpha(n) != counting.independence_table(n).mean():
            return False, f"expectation identity fails at n={n}"
    return True, f"closed forms vs exhaustive (n <= {nmax}), totals to n=40"


def _full_binary(full: bool):
    mmax = 4 if full else 3
    for m in range(1, mmax + 1):
        deck = games.Deck.full_binary(m)
        tally = Counter(games.coupon_read(deal, deck.n)
                        for deal in set(permutations(deck.cards().tolist())))
        if tally != counting.full_binary_table(m).counts:
            return False, f"deck table mismatch at m={m}"
    for m in range(1, 9):
        counting.full_binary_table(m)  # raises if the total identity fails
    return True, f"exhaustive deals m <= {mmax}, totals to m=8"


def _capacity_oracle(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        for digits in counting.all_codes(n):
            t = codec.decode_sequence(digits, n)
            for b in (1, 2, 3):
                if trees.max_capacity_edges(t, b) != trees.bf_max_capacity_edges(t, b):
                    return False, f"formula vs brute force differs n={n} b={b}"
    rng_count = 2000 if full else 300
    source = games.RandomSource(1851)
    for i in range(rng_count):
        rng = source.trial_rng(i)
        n = int(rng.integers(7, 13))
        t = games.sample_uniform_rooted_tree(n, NORMAL, rng)
        if trees.bf_max_independent(t) != trees.independence_number(t):
            return False, f"independence mismatch on random tree {t}"
        for b in (1, 2, 3):
            if trees.max_capacity_edges(t, b) != trees.bf_max_capacity_edges(t, b):
                return False, f"capacity mismatch on random tree {t} b={b}"
    return True, f"exhaustive n <= {nmax} plus {rng_count} random trees, b in 1..3"


def _constants(full: bool):
    c = asymptotics.constants()
    checks = [
        abs(c.rho - math.exp(-c.rho)) < 1e-14,
        abs(c.full_binary_mean - (2 - math.sqrt(2))) < 1e-12,
        abs(c.binary_lr_mean - (4 - 2 * math.sqrt(3))) < 1e-12,
        abs(c.plane_mean - (math.sqrt(5) - 1) / 2) < 1e-12,
        abs(c.full_binary_variance_coeff - (17 / 2 - 6 * math.sqrt(2))) < 1e-10,
        abs(c.t0 - (1 + c.t0) * math.exp(-c.t0)) < 1e-14,
        abs(c.sigma2 - 0.0256803222936) < 1e-10,
        abs(c.path_cover_coeff - 0.2528989726646) < 1e-10,
    ]
    return all(checks), "fixed points vs closed forms"


def _sampling(full: bool):
    if not full:
        return True, "skipped at quick level"
    c = asymptotics.constants()
    h = games.run_trials(lambda rng: games.dice_trial(400, rng), 20_000, 97,
                         n=400, parameter="alpha")
    if abs(h.mean() / 400 - c.rho) > 0.01:
        return False, f"dice mean/n {h.mean() / 400:.4f} far from rho"
    h6 = games.run_trials(lambda rng: games.dice_trial(6, rng), 20_000, 98,
                          n=6, parameter="alpha")
    if games.tv_distance(h6, counting.exact_dice_distribution(6)) > 0.02:
        return False, "dice n=6 tv distance too large"
    for trial, want in ((games.binary_lr_trial, c.binary_lr_mean),
                        (games.plane_trial, c.plane_mean)):
        h = games.run_trials(lambda rng: trial(300, rng), 10_000, 99,
                             n=300, parameter="alpha")
        if abs(h.mean() / 300 - want) > 0.03:
            return False, f"{trial.__name__} mean/n {h.mean() / 300:.4f} far from {want:.4f}"
    hfb = games.run_trials(lambda rng: games.full_binary_trial(3, rng), 20_000, 100,
                           n=7, parameter="alpha")
    if games.tv_distance(hfb, counting.full_binary_table(3)) > 0.02:
        return False, "full-binary m=3 tv distance too large"
    return True, "simulated means/laws against exact references"


CHECKS = (
    ("worked-example", _worked_example),
    ("bijection-sweep", _bijection),
    ("reading-rules", _reads),
    ("counting-formulas", _counting),
    ("full-binary-decks", _full_binary),
    ("capacity-oracle", _capacity_oracle),
    ("constants", _constants),
    ("sampling-statistics", _sampling),
)


def run(level: str):
    """Run CHECKS at level "quick" or "full", yielding (name, ok, detail) per check."""
    if level not in ("quick", "full"):
        raise ValueError(f"verify level must be quick or full, got {level!r}")
    return _run(level == "full")


def _run(full: bool):
    for name, check in CHECKS:
        try:
            ok, detail = check(full)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc!r}"
        yield name, ok, detail
