"""Exact distribution formulas against independent oracles and identities."""

import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from slithercode import (
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


# --- the sweeps split across processes ---------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@needs_fork
@pytest.mark.parametrize("parts", (1, 2, 3))
def test_tally_in_parts_covers_the_range_once(monkeypatch, parts):
    _use_cpus(monkeypatch, parts)
    got = counting._tally_in_parts(lambda lo, hi: Counter({(lo, hi): os.getpid()}), 3000)
    ranges = sorted(got)
    assert ranges[0][0] == 0 and ranges[-1][1] == 3000 and len(ranges) == parts
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert len(set(got.values())) == parts  # one process per range


@needs_fork
@pytest.mark.parametrize(
    "sweep",
    [lambda p=p: exact_rooted_distribution(6, p) for p in counting._ROOTED_PARAMETERS]
    + [lambda: exact_rooted_distribution(6, "capacity_edges", b=3), lambda: exact_dice_distribution(6)],
    ids=[*counting._ROOTED_PARAMETERS, "capacity_edges-b3", "dice"],
)
def test_sweep_tables_do_not_depend_on_the_parts(monkeypatch, sweep):
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


def _wait_for(path, count):
    deadline = time.monotonic() + 30
    while len(list(path.iterdir())) < count:
        assert time.monotonic() < deadline, "the children did not start"
        time.sleep(0.01)


@needs_fork
@pytest.mark.parametrize("failing", ("child", "caller"))
def test_an_error_reaches_the_caller_and_every_child_is_reaped(monkeypatch, tmp_path, failing):
    _use_cpus(monkeypatch, 3)

    def tally(lo, hi):
        if lo:  # a child's range: leave the pid, then fail or outlast the caller
            (tmp_path / str(os.getpid())).touch()
            if failing == "child":
                raise ValueError(f"bad range {lo}..{hi}")
            time.sleep(60)
        _wait_for(tmp_path, 2)
        if failing == "caller":
            raise ValueError("bad first range")
        return Counter()

    start = time.monotonic()
    with pytest.raises(ValueError, match="bad (range|first range)"):
        counting._tally_in_parts(tally, 3000)
    assert time.monotonic() - start < 30  # a sleeping child was stopped, not awaited
    for pid in (int(p.name) for p in tmp_path.iterdir()):
        with pytest.raises(ChildProcessError):  # reaped already: no zombie is left
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_child_that_dies_without_sending_names_its_exit_code(monkeypatch):
    _use_cpus(monkeypatch, 2)

    def tally(lo, hi):
        if lo:
            os._exit(3)
        return Counter()

    with pytest.raises(RuntimeError, match="exited with code 3"):
        counting._tally_in_parts(tally, 3000)


@needs_fork
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


def test_table_probabilities_sum_to_one():
    t = exact_rooted_distribution(5)
    assert sum(t.probabilities().values()) == pytest.approx(1.0)
    assert t.mean() == Fraction(
        sum(v * c for v, c in t.counts.items()), t.total)
