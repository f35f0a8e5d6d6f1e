"""Exact distribution formulas against independent oracles and identities."""

import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

from slithercode import (
    DistributionTable,
    Variant,
    classify,
    count_full_binary,
    count_independence,
    decode_sequence,
    exact_dice_distribution,
    exact_rooted_distribution,
    expected_alpha,
    full_binary_table,
    independence_number,
    independence_table,
    stirling2,
)

from slithercode import counting
from slithercode.counting import all_codes

from conftest import multiset_permutations, stirling2_oracle


# --- stirling numbers -------------------------------------------------------


def test_stirling_frozen_values():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(5, 6) == 0


def test_stirling_matches_inclusion_exclusion():
    for m in range(13):
        for k in range(m + 2):
            assert stirling2(m, k) == stirling2_oracle(m, k)


def test_stirling_rows_sum_to_bell_numbers():
    bell = [1]
    for m in range(12):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    for m in range(12):
        assert sum(stirling2(m, k) for k in range(m + 1)) == bell[m]


# --- unrooted independence counts -------------------------------------------


def test_count_independence_frozen():
    assert count_independence(1, 1) == 1
    assert count_independence(2, 1) == 1
    assert {a: count_independence(4, a) for a in (2, 3)} == {2: 12, 3: 4}
    assert independence_table(5).counts == {3: 120, 4: 5}


def test_count_independence_out_of_range_is_zero():
    assert count_independence(4, 0) == 0
    assert count_independence(4, 1) == 0
    assert count_independence(4, 4) == 0
    assert count_independence(1, 2) == 0


def test_count_independence_is_the_table_entry():
    for n in range(1, 31):
        table = independence_table(n).counts
        assert [count_independence(n, a) for a in range(-1, n + 2)] == \
            [table.get(a, 0) for a in range(-1, n + 2)]
    with pytest.raises(ValueError, match="n must be >= 1"):
        count_independence(0, 1)


def test_independence_table_holds_no_triangle():
    # a fresh interpreter, so that rows kept by an earlier call cannot hide a cache
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import tracemalloc\n"
             "from slithercode import counting\n"
             "tracemalloc.start()\n"
             "counting.independence_table(600)\n"
             "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 2**20


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 10, 25))
def test_count_independence_sums_to_cayley(n):
    assert sum(count_independence(n, a) for a in range(n + 1)) == n ** (n - 2)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
def test_table_mean_is_the_expectation_formula(n):
    assert independence_table(n).mean() == expected_alpha(n)


def test_expected_alpha_frozen():
    assert expected_alpha(1) == 1
    assert expected_alpha(2) == 1
    assert expected_alpha(3) == 2
    assert expected_alpha(4) == Fraction(9, 4)


# --- full binary counts -----------------------------------------------------


def test_count_full_binary_frozen():
    assert count_full_binary(1, 2) == 1
    assert count_full_binary(1, 1) == 0
    assert {a: count_full_binary(2, a) for a in range(1, 5)} == {1: 0, 2: 0, 3: 6, 4: 0}
    assert full_binary_table(3).counts == {4: 72, 5: 18}


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6))
def test_full_binary_total_counts_distinct_decks(m):
    assert full_binary_table(m).total == factorial(2 * m) // 2**m


@pytest.mark.parametrize("m", (1, 2, 3))
def test_full_binary_matches_exhaustive_deal_decoding(m):
    n = 2 * m + 1
    deck = [v for v in range(1, m + 1) for _ in range(2)]
    tally = Counter(
        independence_number(decode_sequence(deal, n=n))
        for deal in multiset_permutations(deck))
    assert dict(tally) == full_binary_table(m).counts


def test_count_full_binary_rejects_m_zero():
    with pytest.raises(ValueError):
        count_full_binary(0, 1)


# --- exhaustive tables ------------------------------------------------------


def test_rooted_independence_frozen():
    assert exact_rooted_distribution(2).counts == {1: 2}
    assert exact_rooted_distribution(4).counts == {2: 48, 3: 16}


def test_rooted_matching_complements_independence():
    n = 6
    alpha = exact_rooted_distribution(n, "independence").counts
    mu = exact_rooted_distribution(n, "matching").counts
    assert mu == {n - a: c for a, c in alpha.items()}


def test_rooted_path_tables_mirror():
    n = 5
    edges = exact_rooted_distribution(n, "path_edges").counts
    cover = exact_rooted_distribution(n, "path_cover").counts
    assert cover == {n - v: c for v, c in edges.items()}


def test_rooted_capacity_table():
    t = exact_rooted_distribution(5, "capacity_edges", b=3)
    assert t.counts == {3: 25, 4: 600}
    assert t.total == 5**4


# (parameter, b) for every rooted table; b=None stands for b=n
_ROOTED_CASES = [("independence", 2), ("matching", 2), ("path_edges", 2), ("path_cover", 2),
                 *(("capacity_edges", b) for b in (1, 2, 3, 4, None))]


@pytest.mark.parametrize("parameter, b", _ROOTED_CASES,
                         ids=[p + (f"-b{b or 'n'}" if p == "capacity_edges" else "")
                              for p, b in _ROOTED_CASES])
def test_rooted_tables_match_a_tally_of_every_code(parameter, b):
    for n in range(1, 7):
        bb = b or n
        cap = {"independence": 1, "matching": 1, "path_edges": 2, "path_cover": 2}.get(parameter, bb)
        counts = Counter()
        for digits in product(range(1, n + 1), repeat=n - 1):
            edges = classify(decode_sequence(digits, n, Variant(cap)), Variant(cap)).capacity_edges()
            counts[n - edges if parameter in ("independence", "path_cover") else edges] += 1
        table = exact_rooted_distribution(n, parameter, b=bb)
        assert table.counts == dict(sorted(counts.items())), (n, parameter, bb)
        assert list(table.counts) == sorted(table.counts)


_ONE_AND_TWO = {"independence": ({1: 1}, {1: 2}), "matching": ({0: 1}, {1: 2}),
                "path_edges": ({0: 1}, {1: 2}), "path_cover": ({1: 1}, {1: 2}),
                "capacity_edges": ({0: 1}, {1: 2})}


@pytest.mark.parametrize("parameter", _ONE_AND_TWO)
def test_rooted_tables_at_one_and_two_vertices(parameter):
    one, two = _ONE_AND_TWO[parameter]
    for b in (1, 2, 3):
        assert exact_rooted_distribution(1, parameter, b=b).counts == one
        assert exact_rooted_distribution(2, parameter, b=b).counts == two


def test_dice_equals_rooted_independence_small():
    for n in (2, 3, 4, 5):
        assert exact_dice_distribution(n).counts == exact_rooted_distribution(n).counts


def test_all_codes_is_every_sequence_in_order():
    assert list(all_codes(1)) == [()]
    assert list(all_codes(3)) == [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    assert sum(1 for _ in all_codes(5)) == 5**4


@pytest.mark.parametrize("table, size", ((independence_table, 0), (independence_table, -3),
                                         (full_binary_table, 0)))
def test_tables_reject_empty_sizes(table, size):
    with pytest.raises(ValueError, match="must be >= 1"):
        table(size)


def test_enumeration_budget():
    with pytest.raises(ValueError, match="budget exceeded"):
        exact_rooted_distribution(8)
    with pytest.raises(ValueError, match="budget exceeded"):
        exact_dice_distribution(8)


def test_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        exact_rooted_distribution(4, "diameter")


# --- the sweeps run in one process ------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")


@pytest.mark.parametrize("parameter", counting._ROOTED_PARAMETERS)
def test_rooted_sweep_decodes_each_labelled_tree_once(monkeypatch, parameter):
    decodes = []
    decode = counting.slither_decode
    monkeypatch.setattr(counting, "slither_decode", lambda code: decodes.append(code) or decode(code))
    assert exact_rooted_distribution(6, parameter).total == 6**5
    assert len(decodes) == 6**4  # the Prüfer codes, not the 6**5 rooted codes


def test_a_sweep_loads_no_multiprocessing():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys\n"
             "from slithercode import cli\n"
             "rc = cli.main(['enumerate', '--parameter', 'independence', '--n', '7'])\n"
             "print(rc, 'multiprocessing' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 False\n")
    assert proc.stdout.startswith("# family uniform-rooted\n")


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_fork():
    raise AssertionError("a sweep forked")


@pytest.mark.parametrize(
    "sweep",
    [lambda p=p: exact_rooted_distribution(6, p) for p in counting._ROOTED_PARAMETERS]
    + [lambda: exact_rooted_distribution(6, "capacity_edges", b=3), lambda: exact_dice_distribution(6)],
    ids=[*counting._ROOTED_PARAMETERS, "capacity_edges-b3", "dice"],
)
def test_sweep_tables_do_not_depend_on_the_parts(monkeypatch, sweep):
    # however many CPUs are usable, a sweep is one part in this process
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    tables = []
    for parts in (1, 2, 3):
        _use_cpus(monkeypatch, parts)
        tables.append(sweep())
    assert tables[0].total == 6**5
    assert tables[1] == tables[0] and tables[2] == tables[0]


@needs_fork
def test_a_pool_worker_sweeps_serially():
    # pool workers are daemonic, and multiprocessing lets them start no children
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(exact_dice_distribution, (6,)) == exact_dice_distribution(6)


def test_buffered_output_is_written_once():
    # piped stdout is block-buffered; a forked child must not write the buffer again
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import os; os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from slithercode import counting\n"
             "print('before the sweep')\n"
             "print(counting.exact_rooted_distribution(6).total)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "before the sweep\n7776\n"), proc.stderr


# --- table plumbing ---------------------------------------------------------


def test_table_json_uses_decimal_strings():
    t = independence_table(4)
    j = t.to_json_dict()
    assert j["counts"] == {"2": "12", "3": "4"}
    assert j["total"] == "16"
    assert j["probabilities"]["2"] == 0.75


def test_table_keeps_nonzero_counts_in_value_order_and_checks_the_total():
    table = DistributionTable("x", "y", 3, {2: 1, 1: 2, 3: 0}, 3)
    assert list(table.counts.items()) == [(1, 2), (2, 1)]
    with pytest.raises(AssertionError, match="sum to 3, expected 4"):
        DistributionTable("x", "y", 3, {2: 1, 1: 2, 3: 0}, 4)


def test_table_probabilities_sum_to_one():
    t = exact_rooted_distribution(5)
    assert sum(t.probabilities().values()) == pytest.approx(1.0)
    assert t.mean() == Fraction(
        sum(v * c for v, c in t.counts.items()), t.total)
