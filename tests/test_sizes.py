"""Every size the library takes, n, m, b, a capacity or a trial count, is read by one rule.

A size is an int, a numpy integer or a string of an optional sign and ASCII
digits, and it is >= 1.  True, 3.0 and "x" are refused with the entry point's
own error class, naming the value, not read as 1, truncated, or left to fail
deep inside with a TypeError.  Every other integer the library reads, at any
position of its input, is refused in the same words, naming where it sits.
"""

import json
import re
import sys

import numpy as np
import pytest

from slithercode import (
    NORMAL,
    TreeError,
    CodeError,
    Deck,
    RandomSource,
    SlitherCode,
    TrialHistogram,
    Variant,
    bf_max_capacity_edges,
    binary_lr_trial,
    clt_check,
    count_full_binary,
    count_independence,
    dice_trial,
    exact_dice_distribution,
    exact_rooted_distribution,
    expected_alpha,
    full_binary_table,
    full_binary_trial,
    independence_table,
    max_capacity_edges,
    plane_trial,
    prufer_encode,
    read_capacity_edges,
    run_trials,
    sample_uniform_labelled_tree,
    sample_uniform_rooted_tree,
    slither_decode,
    stirling2,
    strategic_set,
    validate_tree,
)
from slithercode.cli import parse_code
from slithercode.counting import all_codes
from slithercode.games import DEALS, full_binary_m

RNG = np.random.default_rng(0)
PATH3 = validate_tree({"n": 3, "parent": {"2": 1, "3": 2}})

# (name, what the message calls the size, the call with the size as s, error class)
ENTRY_POINTS = (
    ("Variant", "capacity", lambda s: Variant(s), ValueError),
    ("SlitherCode", "n", lambda s: SlitherCode(n=s, variant=NORMAL, symbols=()), CodeError),
    ("prufer_encode", "n", lambda s: prufer_encode(s, []), CodeError),
    ("count_independence", "n", lambda s: count_independence(s, 1), ValueError),
    ("independence_table", "n", independence_table, ValueError),
    ("expected_alpha", "n", expected_alpha, ValueError),
    ("count_full_binary", "m", lambda s: count_full_binary(s, 1), ValueError),
    ("full_binary_table", "m", full_binary_table, ValueError),
    ("exact_rooted_distribution", "n", exact_rooted_distribution, ValueError),
    ("exact_dice_distribution", "n", exact_dice_distribution, ValueError),
    # each family's deal reads its size in DEALS, and the deal it returns trusts it
    ("dice_deal", "n", DEALS["dice"], ValueError),
    ("binary_lr_deal", "n", DEALS["binary-lr"], ValueError),
    ("plane_deal", "n", DEALS["plane"], ValueError),
    ("dice_trial", "n", lambda s: dice_trial(s, RNG), ValueError),
    ("full_binary_trial", "m", lambda s: full_binary_trial(s, RNG), ValueError),
    ("binary_lr_trial", "n", lambda s: binary_lr_trial(s, RNG), ValueError),
    ("plane_trial", "n", lambda s: plane_trial(s, RNG), ValueError),
    ("all_codes", "n", all_codes, ValueError),
    ("Deck", "n", lambda s: Deck(n=s, multiplicities=(1, 0)), ValueError),
    ("Deck.full_binary", "m", Deck.full_binary, ValueError),
    ("sample_uniform_rooted_tree", "n", lambda s: sample_uniform_rooted_tree(s, rng=RNG),
     ValueError),
    ("sample_uniform_labelled_tree", "n", lambda s: sample_uniform_labelled_tree(s, RNG),
     ValueError),
    ("run_trials", "trials", lambda s: run_trials(lambda rng: 1, s, 1, n=3, parameter="a"),
     ValueError),
    ("TrialHistogram", "n",
     lambda s: TrialHistogram(parameter="a", n=s, trials=1, seed=1, counts={1: 1}), ValueError),
    ("TrialHistogram-trials", "trials",
     lambda s: TrialHistogram(parameter="a", n=3, trials=s, seed=1, counts={1: 1}), ValueError),
    ("bf_max_capacity_edges", "capacity", lambda s: bf_max_capacity_edges(PATH3, s), ValueError),
)
# these read the size strictly, then check minima of their own, such as n >= 100
WITH_OWN_MINIMA = (
    ("full_binary_m", "n", full_binary_m, ValueError),
    ("full_binary_deal", "n", DEALS["full-binary"], ValueError),
    ("clt_check-n", "n", lambda s: clt_check(s, 10_000, 1), ValueError),
    ("clt_check-trials", "trials", lambda s: clt_check(100, s, 1), ValueError),
)


@pytest.mark.parametrize("bad", (True, 3.0, "x"), ids=("bool", "float", "str"))
@pytest.mark.parametrize("what, call, error",
                         [entry[1:] for entry in ENTRY_POINTS + WITH_OWN_MINIMA],
                         ids=[entry[0] for entry in ENTRY_POINTS + WITH_OWN_MINIMA])
def test_every_size_is_read_strictly(what, call, error, bad):
    with pytest.raises(error, match=f"^{what} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("what, call, error", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_every_size_is_at_least_one(what, call, error):
    with pytest.raises(error, match=f"^{what} must be >= 1, got 0$"):
        call(0)



# integers that are not sizes, as 0 and values past the support are counted as 0
INTEGER_ARGUMENTS = (
    ("stirling2-m", "m", lambda s: stirling2(s, 2)),
    ("stirling2-k", "k", lambda s: stirling2(4, s)),
    ("count_independence-alpha", "alpha", lambda s: count_independence(5, s)),
    ("count_full_binary-alpha", "alpha", lambda s: count_full_binary(2, s)),
)


@pytest.mark.parametrize("bad", (True, 3.0, "x"), ids=("bool", "float", "str"))
@pytest.mark.parametrize("what, call", [entry[1:] for entry in INTEGER_ARGUMENTS],
                         ids=[entry[0] for entry in INTEGER_ARGUMENTS])
def test_every_integer_argument_is_read_strictly(what, call, bad):
    message = f"^{what} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("what, call", [entry[1:] for entry in INTEGER_ARGUMENTS],
                         ids=[entry[0] for entry in INTEGER_ARGUMENTS])
def test_an_integer_argument_in_text_is_the_integer(what, call):
    assert call("3") == call(np.int64(3)) == call(3)


@pytest.mark.parametrize("bad", (True, 1.0, "x"), ids=("bool", "float", "str"))
def test_a_trial_index_is_read_strictly(bad):
    # True gave trial 1's generator, 1.0 an IndexError from numpy and "x" a TypeError
    message = f"^trial index must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        RandomSource(5).trial_rng(bad)


def test_a_trial_index_in_text_is_the_integer():
    states = [RandomSource(5).trial_rng(i).bit_generator.state for i in ("1", np.int64(1), 1)]
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("trial", (dice_trial, full_binary_trial, binary_lr_trial, plane_trial),
                         ids=lambda trial: trial.__name__)
def test_a_trial_reads_its_size_once(trial):
    # the deal and the coupon read both see the size as the size rule reads it
    values = [trial(size, np.random.default_rng(7)) for size in (3, "3", np.int64(3))]
    assert values[0] == values[1] == values[2]


# a capacity-3 code whose tree has vertices of 3 and more P-children
CAPACITY_CODE = SlitherCode(12, Variant(3), (12, 12, 12, 12, 3, 3, 3, 12, 5, 5, 12))


@pytest.mark.parametrize("read", (
    lambda b: max_capacity_edges(slither_decode(CAPACITY_CODE), b),
    lambda b: strategic_set(slither_decode(CAPACITY_CODE), b),
    lambda b: read_capacity_edges(CAPACITY_CODE, b),
), ids=("max_capacity_edges", "strategic_set", "read_capacity_edges"))
def test_a_capacity_is_read_once(read):
    # strategic_set and read_capacity_edges compared the raw "3" with ints: a TypeError
    assert read("3") == read(np.int64(3)) == read(3)


# 0 where int() reads text of any length: before Python 3.10.7, or with the limit off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() reads integer text of any length")
@pytest.mark.parametrize("call, error, what", (
    (lambda: Variant(TOO_LONG), ValueError, "capacity"),
    (lambda: Variant.parse("b=" + TOO_LONG), ValueError, "capacity"),
    (lambda: SlitherCode(3, NORMAL, ["1", TOO_LONG]), CodeError, "symbol at index 1"),
    (lambda: SlitherCode(3, NORMAL, [1, TOO_LONG]), CodeError, "symbol at index 1"),
), ids=("Variant", "Variant.parse", "digit-strings", "mixed"))
def test_integer_text_past_the_digit_limit_is_named(call, error, what):
    # int() raised "Exceeds the limit (4300 digits) for integer string conversion ..."
    message = (f"^{what} has more than {DIGIT_LIMIT} digits, "
               f"got '9{{39}}\\.\\.\\.9{{36}}'$")
    with pytest.raises(error, match=message):
        call()


# (name, what the message calls the integer, the call with it as v, error class): each
# position of an integer in the library's input, beside the sizes of ENTRY_POINTS
INTEGER_POSITIONS = (
    ("symbol-tuple", "symbol at index 1", lambda v: SlitherCode(3, NORMAL, (1, v)), CodeError),
    ("symbol-list", "symbol at index 1", lambda v: SlitherCode(3, NORMAL, [1, v]), CodeError),
    ("symbol-json", "symbol at index 1",
     lambda v: parse_code(json.dumps({"symbols": [1, v]}), NORMAL, None), CodeError),
    ("label-in-dict", "label in parent entry at index 1",
     lambda v: validate_tree({"n": 3, "parent": {2: 1, 3: v}}), TreeError),
    ("label-in-pairs", "label in parent entry at index 1",
     lambda v: validate_tree({"n": 3, "parent": [(2, 1), (v, 1)]}), TreeError),
    ("declared-root", "declared root",
     lambda v: validate_tree({"n": 3, "root": v, "parent": {2: 1, 3: 1}}), TreeError),
    ("edge-end", "end of edge at index 0", lambda v: prufer_encode(3, [(v, 1), (2, 3)]),
     CodeError),
    ("multiplicity", "multiplicity at index 1", lambda v: Deck(3, (1, v, 0)), ValueError),
)


@pytest.mark.parametrize("bad", (True, 3.0, "x"), ids=("bool", "float", "str"))
@pytest.mark.parametrize("what, call, error", [entry[1:] for entry in INTEGER_POSITIONS],
                         ids=[entry[0] for entry in INTEGER_POSITIONS])
def test_every_integer_position_is_refused_in_one_grammar(what, call, error, bad):
    # each was "non-integer symbol V at index i", "non-integer labels in parent entry
    # (c, p)", "non-integer declared root V" or "non-integer edge (u, v)", or named no index
    with pytest.raises(error, match=f"^{what} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() reads integer text of any length")
@pytest.mark.parametrize("what, call, error", [entry[1:] for entry in INTEGER_POSITIONS],
                         ids=[entry[0] for entry in INTEGER_POSITIONS])
def test_every_integer_position_names_the_digit_limit(what, call, error):
    # prufer_encode called an edge end past the limit a non-integer edge
    message = (f"^{what} has more than {DIGIT_LIMIT} digits, "
               f"got '9{{39}}\\.\\.\\.9{{36}}'$")
    with pytest.raises(error, match=message):
        call(TOO_LONG)
