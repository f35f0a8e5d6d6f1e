"""Exact distribution formulas against independent oracles and identities."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

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
        exact_dice_distribution(5, budget=4)


def test_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        exact_rooted_distribution(4, "diameter")


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
