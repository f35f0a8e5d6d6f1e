"""Acceptance suite: one test per advertised guarantee, one PASS/FAIL line each.

Each test prints its verdict line before asserting, so a full run always
shows the complete scorecard.  Checks that involve sampling use pinned
seeds; the tolerances are part of the guarantee, not tuning knobs.

Each decimal reference in criterion 08 is its constant correctly rounded to
the digits shown, and its tolerance is half a unit in the last of those
digits.  A reference that is truncated instead of rounded can sit up to a
whole unit from the constant and fail that window.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from slithercode import (
    COMPLY,
    NORMAL,
    RandomSource,
    SlitherCode,
    Variant,
    bf_max_capacity_edges,
    binary_lr_trial,
    classify,
    cli,
    clt_check,
    constants,
    count_full_binary,
    count_independence,
    decode_sequence,
    exact_dice_distribution,
    exact_rooted_distribution,
    expected_alpha,
    full_binary_table,
    independence_number,
    independence_table,
    max_capacity_edges,
    plane_trial,
    prefix_alpha,
    read_alpha,
    read_capacity_edges,
    read_matching_via_beta,
    read_path_edges,
    read_root_and_pset,
    run_trials,
    sample_uniform_rooted_tree,
    slither_decode,
    slither_encode,
)

from conftest import FIG1_AUX, FIG1_CODE, FIG1_PARENT, FIG1_ROOT, FIG1_PSET, all_codes, multiset_permutations

SEED = 20260822

_capsys = None


@pytest.fixture(autouse=True)
def _scorecard(capsys):
    # verdict lines must reach the terminal even when pytest captures output
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    with _capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def test_criterion_01_bijection_sweep():
    start = time.perf_counter()
    problems = []
    for variant in (NORMAL, COMPLY, Variant(3)):
        for n in range(2, 6):
            seen = set()
            for sym in all_codes(n):
                t = slither_decode(SlitherCode(n=n, variant=variant, symbols=sym))
                seen.add(t)
                back, _ = slither_encode(t, variant)
                if back.symbols != sym:
                    problems.append(f"{variant.name} n={n} {sym} re-encoded to {back.symbols}")
            if len(seen) != n ** (n - 1):
                problems.append(f"{variant.name} n={n}: {len(seen)} distinct trees")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60
    detail = problems[0] if problems else (
        f"2100 sequences, 3 variants, all distinct and re-encoded identically in {elapsed:.1f}s")
    _report(1, "bijection sweep", ok, detail)


def test_criterion_02_cli_n4_table(capsys):
    rc = cli.main(["enumerate", "--n", "4", "--format", "json"])
    out = capsys.readouterr().out
    counts = json.loads(out)["counts"] if rc == 0 else {}
    ok = rc == 0 and counts == {"2": "12", "3": "4"}
    _report(2, "cli n=4 table", ok, f"exit {rc}, counts {counts}")


def test_criterion_03_dice_equals_rooted():
    start = time.perf_counter()
    mismatch = None
    for n in range(2, 7):
        dice = exact_dice_distribution(n).counts
        rooted = exact_rooted_distribution(n, "independence").counts
        if dice != rooted:
            mismatch = f"n={n}: {dice} vs {rooted}"
            break
    elapsed = time.perf_counter() - start
    ok = mismatch is None and elapsed < 120
    _report(3, "dice law equals rooted law", ok,
            mismatch or f"exact equality for n=2..6 in {elapsed:.1f}s")


def test_criterion_04_closed_form_counts():
    problems = []
    for n in range(2, 8):
        rooted = exact_rooted_distribution(n, "independence").counts
        for a in set(rooted) | {a for a in range(1, n) if count_independence(n, a)}:
            if count_independence(n, a) * n != rooted.get(a, 0):
                problems.append(f"n={n} alpha={a}")
    for n in range(2, 61):
        if sum(count_independence(n, a) for a in range(n + 1)) != n ** (n - 2):
            problems.append(f"sum identity n={n}")
    ok = not problems
    _report(4, "closed-form counts", ok,
            ", ".join(problems) or "formula x n matches exhaustive counts to n=7, sums to n=60")


def test_criterion_05_worked_example():
    from slithercode import validate_tree
    tree = validate_tree({"n": 10, "root": FIG1_ROOT, "parent": FIG1_PARENT})
    code, aux = slither_encode(tree, NORMAL)
    decoded = slither_decode(SlitherCode(n=10, variant=NORMAL, symbols=FIG1_CODE))
    rr = read_root_and_pset(SlitherCode(n=10, variant=NORMAL, symbols=FIG1_CODE))
    checks = {
        "code": code.symbols == FIG1_CODE,
        "auxiliary": aux == FIG1_AUX,
        "decode": decoded == tree and decoded.root == 9,
        "read_alpha": read_alpha(code) == 6,
        "read_root": (rr.root, rr.root_class, rr.p_set) == (9, "P", FIG1_PSET),
    }
    bad = [k for k, v in checks.items() if not v]
    _report(5, "worked example", not bad,
            ", ".join(bad) + " mismatched" if bad else "encode, auxiliary, decode, and reads byte-exact")


def test_criterion_06_capacity_reads_vs_oracle():
    problems = 0
    checked = 0
    for n in range(2, 7):
        for sym in all_codes(n):
            for b in (1, 2, 3):
                code = SlitherCode(n=n, variant=Variant(b), symbols=sym)
                t = slither_decode(code)
                if b == 1:
                    _, value = read_matching_via_beta(code)
                elif b == 2:
                    _, value = read_path_edges(code)
                    pm = classify(t, COMPLY)
                    if value != 2 * len(pm.n_set()) + len(pm.p_subset(1)):
                        problems += 1
                else:
                    _, value = read_capacity_edges(code, b)
                if value != bf_max_capacity_edges(t, b):
                    problems += 1
                checked += 1
    src = RandomSource(SEED)
    for i in range(10_000):
        t = sample_uniform_rooted_tree(2 + i % 11, rng=src.trial_rng(i))
        for b in (1, 2, 3):
            code, _ = slither_encode(t, Variant(b))
            if b == 1:
                _, value = read_matching_via_beta(code)
            elif b == 2:
                _, value = read_path_edges(code)
            else:
                _, value = read_capacity_edges(code, b)
            if not (value == max_capacity_edges(t, b) == bf_max_capacity_edges(t, b)):
                problems += 1
            checked += 1
    _report(6, "capacity reads vs brute force", problems == 0,
            f"{problems} mismatches over {checked} read/oracle comparisons, b in {{1,2,3}}")


def test_criterion_07_full_binary_formula():
    problems = []
    for m in range(1, 6):
        n = 2 * m + 1
        deck = [v for v in range(1, m + 1) for _ in range(2)]
        tally = Counter(independence_number(decode_sequence(deal, n=n))
                        for deal in multiset_permutations(deck))
        table = full_binary_table(m).counts
        if dict(tally) != table:
            problems.append(f"m={m}: decode tally {dict(tally)} vs formula {table}")
        if sum(count_full_binary(m, a) for a in range(2 * m + 1)) != math.factorial(2 * m) // 2**m:
            problems.append(f"m={m}: total off")
    _report(7, "full binary formula", not problems,
            problems[0] if problems else "formula equals exhaustive deck decoding for m=1..5")


def test_criterion_08_constants():
    start = time.perf_counter()
    c = constants()
    elapsed = time.perf_counter() - start
    checks = [
        ("rho", abs(c.rho - 0.56714), 5e-6),
        ("sigma2", abs(c.sigma2 - 0.025680), 5e-7),
        # 0.80646 was a truncation of the root 0.8064659942...; rounded it is 0.80647
        ("t0", abs(c.t0 - 0.80647), 5e-6),
        ("path_cover_coeff", abs(c.path_cover_coeff - 0.252899), 5e-7),
        ("full_binary_mean", abs(c.full_binary_mean - (2 - math.sqrt(2))), 1e-12),
        ("binary_lr_mean", abs(c.binary_lr_mean - (4 - 2 * math.sqrt(3))), 1e-12),
        ("plane_mean", abs(c.plane_mean - (math.sqrt(5) - 1) / 2), 1e-12),
        ("full_binary_variance", abs(c.full_binary_variance_coeff - 0.014719), 5e-7),
        ("runtime", elapsed, 1.0),
    ]
    bad = [f"{name}: {delta:.3g} > {tol:.3g}" for name, delta, tol in checks if delta > tol]
    _report(8, "constants", not bad,
            "; ".join(bad) if bad else f"all reference values within tolerance in {elapsed:.2f}s")


def test_criterion_09_clt_at_desk_scale():
    start = time.perf_counter()
    rep = clt_check(2000, 100_000, seed=SEED)
    elapsed = time.perf_counter() - start
    checks = [
        ("mean", abs(rep.mean_over_n - rep.rho), 0.002),
        ("variance", abs(rep.variance_over_n - rep.sigma2), 0.15 * rep.sigma2),
        ("ks vs fitted gaussian", rep.ks_fitted, 0.02),
        ("runtime", elapsed, 60.0),
    ]
    bad = [f"{name}: {got:.3g} > {tol:.3g}" for name, got, tol in checks if got > tol]
    _report(9, "clt at n=2000", not bad,
            "; ".join(bad) if bad else
            f"mean/n off by {abs(rep.mean_over_n - rep.rho):.1e}, "
            f"var ratio {rep.variance_over_n / rep.sigma2:.3f}, "
            f"ks {rep.ks_fitted:.4f} in {elapsed:.0f}s")


def test_criterion_10_expectation_formula():
    problems = []
    if expected_alpha(4) != Fraction(9, 4):
        problems.append(f"expected_alpha(4) = {expected_alpha(4)}")
    for n in range(1, 13):
        if expected_alpha(n) != independence_table(n).mean():
            problems.append(f"weighted mean mismatch at n={n}")
    _report(10, "expectation identity", not problems,
            ", ".join(problems) or "alternating-sum formula equals table mean exactly, n=1..12")


def test_criterion_11_card_families():
    problems = []
    for m in range(1, 5):
        deck = [v for v in range(1, m + 1) for _ in range(2)]
        tally = Counter(prefix_alpha(deal, 2 * m + 1) for deal in multiset_permutations(deck))
        if dict(tally) != full_binary_table(m).counts:
            problems.append(f"full-binary deals m={m}")
    targets = (("binary-lr", binary_lr_trial, 4 - 2 * math.sqrt(3)),
               ("plane", plane_trial, (math.sqrt(5) - 1) / 2))
    details = []
    for name, trial, target in targets:
        h = run_trials(lambda rng: trial(500, rng), 100_000, 31, n=500, parameter="alpha")
        delta = abs(h.mean() / 500 - target)
        details.append(f"{name} off by {delta:.1e}")
        if delta > 0.02:
            problems.append(f"{name}: mean/n {h.mean() / 500:.5f} vs {target:.5f}")
    _report(11, "card families", not problems,
            "; ".join(problems) if problems else
            "full-binary deals exact for m=1..4; " + ", ".join(details))
