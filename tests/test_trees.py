"""Tree validation, position classification, and the optimal-play certificates."""

import itertools
import re
import sys
from itertools import islice
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slithercode import (
    COMPLY,
    NORMAL,
    RootedTree,
    TreeError,
    Variant,
    bf_max_capacity_edges,
    bf_max_independent,
    capacity,
    classify,
    independence_number,
    matching_certificate,
    matching_number,
    max_capacity_edges,
    path_cover_decomposition,
    slither_encode,
    strategic_set,
    validate_tree,
)

from slithercode import cli
from slithercode.cli import parse_tree
from slithercode.trees import _echo, _popcounts, _strict_int

from conftest import random_tree

trees = st.builds(random_tree, st.integers(2, 40), st.integers(0, 2**32 - 1))
small_trees = st.builds(random_tree, st.integers(2, 12), st.integers(0, 2**32 - 1))


def path_tree(n):
    return RootedTree(n=n, root=1, parent=(0, 0, *range(1, n)))


def star_tree(n):
    return RootedTree(n=n, root=1, parent=(0, 0) + (1,) * (n - 1))


# --- validation -------------------------------------------------------------


def test_validate_accepts_json_style_dict():
    t = validate_tree({"n": "4", "root": "1", "parent": {"2": "1", "3": "1", "4": "3"}})
    assert t.n == 4 and t.root == 1
    assert t.parent == (0, 0, 1, 1, 3)


def test_validate_accepts_pairs_in_place_of_the_map():
    t1 = validate_tree({"n": 4, "root": 1, "parent": {2: 1, 3: 1, 4: 3}})
    t2 = validate_tree({"n": 4, "parent": [(2, 1), (3, 1), (4, 3)]})
    assert t1 == t2


def test_validate_single_vertex():
    t = validate_tree({"n": 1})
    assert t.root == 1 and t.parent == (0, 0)


@pytest.mark.parametrize(
    "data, fragment",
    (
        ({"n": 3, "parent": {2: 1, 3: "x"}},
         "^label in parent entry at index 1 must be an integer, got 'x'$"),
        ({"n": 3, "parent": {2: 1, 3: 5}}, "out of range"),
        ({"n": 3, "parent": [(2, 1), (2, 3)]}, "duplicate parent entry"),
        ({"n": 3, "parent": {2: 2, 3: 1}}, "its own parent"),
        ({"n": 4, "parent": {2: 1}}, "multiple roots"),
        ({"n": 2, "parent": {1: 2, 2: 1}}, "every vertex has a parent"),
        ({"n": 3, "root": 2, "parent": {2: 1, 3: 1}}, "declared root"),
        ({"n": 4, "parent": {2: 3, 3: 2, 4: 2}}, "cycle"),
        ({"n": 0, "parent": {}}, "n must be >= 1"),
        ({"parent": {}}, "missing vertex count n"),
        (42, "cannot interpret"),
        ({"n": 3, "parent": {2: 1.9, 3: 1}},
         r"^label in parent entry at index 0 must be an integer, got 1\.9$"),
        ({"n": 3, "parent": {2: True, 3: 1}},
         "^label in parent entry at index 0 must be an integer, got True$"),
        ({"n": 3.0, "parent": {2: 1, 3: 1}}, "n must be an integer, got 3.0"),
        ({"n": 3, "root": 1.0, "parent": {2: 1, 3: 1}},
         r"^declared root must be an integer, got 1\.0$"),
        ({"n": 3, "parent": 5}, "^parent must be a map or a list of .* got 5$"),
        ({"n": 2, "parent": None}, "^parent must be a map or a list of .* got None$"),
        ({"n": 3, "parent": [1, 2]}, r"^parent entry 1 at index 0 is not a \(child, parent\)"),
        ({"n": 3, "parent": ["21", "31"]}, "^parent entry '21' at index 0 is not a"),
        ({"n": 3, "parent": [(2, 1), (3, 1, 1)]}, r"^parent entry \(3, 1, 1\) at index 1"),
        # past 10 rootless vertices only the first 10 are named, so the message stays short
        ({"n": 10**6, "parent": {}},
         r"^multiple roots: 1000000 vertices have no parent, the first 10 are \[1, .* 10\]$"),
        ({"n": 10**12, "parent": {2: 1}}, "^multiple roots: 999999999999 vertices have"),
        ({"n": 11, "parent": {2: 1}}, r"^multiple roots: vertices \[1, 3, .* 11\] have"),
        # the (n, root, parent) triple and a RootedTree are not read as input
        ((4, 1, {2: 1, 3: 1, 4: 3}), "^cannot interpret tuple as a rooted tree$"),
        (RootedTree(n=2, root=1, parent=(0, 0, 1)), "^cannot interpret RootedTree as a rooted tree$"),
        # labels past int64 are never read as int64, so they give the roots message
        ({"n": 10**30, "parent": {2: 10**20}}, "^multiple roots: 9{30} vertices have no parent"),
        ({"n": 3, "parent": np.array([[2, 1], [2, 1]])}, "^duplicate parent entry for vertex 2$"),
        ({"n": 3, "parent": np.array([[2, 2], [3, 1]])}, "^vertex 2 listed as its own parent$"),
        ({"n": 1, "parent": {1: 1}}, "^vertex 1 listed as its own parent$"),
        ({"n": 1, "root": 2}, "^declared root 2 but vertex 1 has no parent$"),
        ({"n": 5, "parent": [(2, 3), (3, 2), (4, 1), (5, 4)]},
         r"^cycle detected through vertices \[2, 3\]$"),
    ),
)
def test_validate_rejects(data, fragment):
    with pytest.raises(TreeError, match=fragment):
        validate_tree(data)


# 0 where int() reads text of any length: before Python 3.10.7, or with the limit off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() reads integer text of any length")
@pytest.mark.parametrize("data, what", (
    ({"n": TOO_LONG, "parent": {}}, "n"),
    ({"n": 3, "parent": {"2": 1, "3": TOO_LONG}}, "label in parent entry at index 1"),
    ({"n": 3, "parent": [(TOO_LONG, "x"), (3, 1)]}, "label in parent entry at index 0"),
    ({"n": 3, "root": TOO_LONG, "parent": {2: 1, 3: 1}}, "declared root"),
), ids=("n", "parent-label", "child-label", "declared-root"))
def test_integer_text_past_the_digit_limit_is_named(data, what):
    # each was called "non-integer", or n "missing or non-integer"
    message = (f"^{what} has more than {DIGIT_LIMIT} digits, "
               f"got '9{{39}}\\.\\.\\.9{{36}}'$")
    with pytest.raises(TreeError, match=message):
        validate_tree(data)


# The per-entry loop and three-state walk validate_tree ran before its checks
# were written once; kept as the independent reference for the property below.
def _tree_by_entry(n: int, pairs, declared) -> RootedTree:
    """Check the (child, parent) pairs one at a time; raise naming the first defect."""
    parent: dict[int, int] = {}
    for i, (c, p) in enumerate(pairs):
        try:
            c, p = _strict_int(bad := c), _strict_int(bad := p)
        except ValueError:
            raise TreeError(f"label in parent entry at index {i} must be an integer, "
                            f"got {_echo(bad)}") from None
        if not (1 <= c <= n) or not (1 <= p <= n):
            raise TreeError(f"label out of range 1..{n} in parent entry ({c}, {p})")
        if c in parent:
            raise TreeError(f"duplicate parent entry for vertex {c}")
        if c == p:
            raise TreeError(f"vertex {c} listed as its own parent")
        parent[c] = p

    # every entry has a distinct child in 1..n, so n - len(parent) vertices
    # lack a parent, and the first 10 of them lie among labels 1..len(parent)+10
    roots = n - len(parent)
    if not roots:
        raise TreeError("every vertex has a parent, so the parent map closes a cycle")
    rootless = list(islice((v for v in range(1, n + 1) if v not in parent), 10))
    if roots > 10:
        raise TreeError(f"multiple roots: {roots} vertices have no parent, "
                        f"the first 10 are {rootless}")
    if roots > 1:
        raise TreeError(f"multiple roots: vertices {rootless} have no parent")
    root = rootless[0]

    if declared is not None:
        try:
            declared = _strict_int(declared)
        except ValueError:
            raise TreeError(f"declared root must be an integer, got {_echo(declared)}") from None
        if declared != root:
            raise TreeError(f"declared root {declared} but vertex {root} has no parent")

    # each non-root vertex has exactly one parent, so any unreachable part
    # of the functional graph must close a cycle
    state = [0] * (n + 1)  # 0 unvisited, 1 on current walk, 2 done
    state[root] = 2
    for start in range(1, n + 1):
        if state[start]:
            continue
        walk = []
        v = start
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = parent[v]
        if state[v] == 1:
            cyc = walk[walk.index(v):]
            if len(cyc) > 10:
                raise TreeError(f"cycle detected through {len(cyc)} vertices, "
                                f"the first 10 are {cyc[:10]}")
            raise TreeError(f"cycle detected through vertices {cyc}")
        for w in walk:
            state[w] = 2

    return RootedTree(n=n, root=root, parent=tuple(parent.get(v, 0) for v in range(n + 1)))


def test_a_long_cycle_is_named_by_its_count_and_first_10_vertices():
    # 1 is the root; 2 -> 3 -> ... -> n -> 2 is one cycle of 2 * 10^5 vertices
    n = 200_001
    parent = {v: v + 1 for v in range(2, n)} | {n: 2}
    with pytest.raises(TreeError) as err:
        validate_tree({"n": n, "parent": parent})
    assert str(err.value) == ("cycle detected through 200000 vertices, "
                              "the first 10 are [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]")


def line_of_descent(tree, v):
    """v and its ancestors below the root."""
    while v != tree.root:
        yield v
        v = tree.parent[v]


@st.composite
def mutated_parent_entries(draw):
    """(n, root, declared root, pairs): a random tree's entries after a few edits."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        tree = random_tree(n, draw(st.integers(0, 2**32 - 1)))
    else:  # a path, deep enough to need every round of pointer doubling
        order = draw(st.permutations(range(1, n + 1)))
        tree = validate_tree({"n": n, "parent": list(zip(order[1:], order))})
    pairs = [list(e) for e in draw(st.permutations(tree.edges()))]
    label = st.integers(1, n)
    edits = st.sampled_from(
        ("duplicate", "reparent", "cycle", "drop", "root-parent", "range", "type"))
    for edit in draw(st.lists(edits, max_size=2)):
        if edit == "root-parent":  # the root gains a parent: no root, or a cycle
            pairs.append([tree.root, draw(label)])
            continue
        if not pairs:
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        c = pairs[i][0]
        if edit == "duplicate":
            pairs.insert(draw(st.integers(0, len(pairs))), [c, draw(label)])
        elif edit == "reparent":
            pairs[i][1] = draw(label)
        elif edit == "cycle" and c in dict(tree.edges()):  # c's parent becomes a descendant, or c
            below = [v for v in range(1, n + 1) if c in line_of_descent(tree, v) and v != c]
            pairs[i][1] = draw(st.sampled_from(below or [c]))
        elif edit == "drop":  # a second root
            del pairs[i]
        elif edit == "range":
            pairs[i][draw(st.integers(0, 1))] = draw(st.sampled_from((-1, 0, n + 1, 2**70)))
        elif edit == "type":
            v = draw(label)
            pairs[i][draw(st.integers(0, 1))] = draw(st.sampled_from(
                (True, False, float(v), v + 0.5, str(v), f" {v} ", "x", np.int64(v))))
    declared = draw(st.sampled_from((None, None, tree.root, str(tree.root), draw(label), 1.0)))
    return n, tree.root, declared, [tuple(e) for e in pairs]


def outcome(build):
    """The tree, or the TreeError message."""
    try:
        return build()
    except TreeError as exc:
        return str(exc)


@given(mutated_parent_entries(), st.sampled_from(("pairs", "dict", "str-keys", "text")))
@settings(max_examples=400)
@example(case=(1, 1, None, [(" 1 ", 1)]), form="text")  # the row " 1  1" holds 1 and 1
def test_bulk_validation_agrees_with_the_per_entry_loop(case, form):
    n, root, declared, pairs = case
    if form == "text":  # the text always declares a root
        declared = str(root if declared is None else declared)
        text = f"{n} {declared}\n" + "".join(f"{c} {p}\n" for c, p in pairs)
        pairs = [tuple(f"{c} {p}".split()) for c, p in pairs]  # the tokens the text holds
        build = lambda: parse_tree(text)
    else:
        if form != "pairs":
            keyed = {(str(c) if form == "str-keys" else c): p for c, p in pairs}
            if len(keyed) < len(pairs):  # a repeated key keeps only its last parent
                return
            pairs = list(keyed.items())
        raw = dict(pairs) if form != "pairs" else pairs
        build = lambda: validate_tree({"n": n, "root": declared, "parent": raw})
    want = outcome(lambda: _tree_by_entry(n, pairs, declared))
    assert outcome(build) == want
    if not isinstance(want, str):  # valid input never needs the per-entry loop
        with mock.patch("slithercode.trees._entry_by_entry", side_effect=AssertionError("walked")):
            assert outcome(build) == want


# Text the bulk reader must leave to the token path, or read as it reads:
# separators str.splitlines breaks on, signs, long tokens, odd rows, comments.
SEPARATORS = (" ", "  ", "\t", "\r", "\x0b", "\x0c")
ENDINGS = ("\n", "\r\n", "\r", "\x0b", "\x0c", " \n", "\t\n", "\n\n", "\n \n")
TOKEN_EDITS = {"zeros": "00{}".format, "plus": "+{}".format, "minus": "-{}".format,
               "19 digits": lambda t: "1" + t.rjust(18, "0")[-18:],
               "20 digits": lambda t: "9" * 20, "comment": "{} # note".format}


@st.composite
def tree_texts(draw):
    """Tree text from mutated entries, written with odd separators, tokens and rows."""
    n, root, declared, pairs = draw(mutated_parent_entries())
    rows = [[str(n), str(root if declared is None else declared)]]
    rows += [[str(c), str(p)] for c, p in pairs]
    plain = draw(st.booleans())  # spaces and newlines only, for the bulk reader to take
    for _ in range(draw(st.integers(0, 1 if plain else 3))):
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from((*TOKEN_EDITS, "drop", "extra")))
        if edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "extra":
            row.insert(draw(st.integers(0, len(row))), str(draw(st.integers(0, n + 1))))
        elif row:
            i = draw(st.integers(0, len(row) - 1))
            row[i] = TOKEN_EDITS[edit](row[i])
    text = "".join((" " if plain else draw(st.sampled_from(SEPARATORS))).join(row)
                   + ("\n" if plain else draw(st.sampled_from(ENDINGS))) for row in rows)
    return draw(st.sampled_from(("", "\n", " \t\n", *(() if plain else ("# head\n",))))) + text


@given(tree_texts())
@settings(max_examples=300)
@example(text="3 1\n2\r1\n3 1\n")  # a lone CR splits the row in two
@example(text="2 1\n99999999999999999999 1\n")  # np.fromstring would clamp the label
def test_bulk_text_reader_agrees_with_the_token_path(text):
    with mock.patch.object(cli, "_bulk_ints", lambda *args, **kwargs: None):
        want = outcome(lambda: parse_tree(text))
    assert outcome(lambda: parse_tree(text)) == want


# --- variants ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text, b",
    (("normal", 1), ("comply", 2), ("b=4", 4), ("capacity(5)", 5), ("COMPLY", 2)),
)
def test_variant_parse(text, b):
    assert Variant.parse(text).b == b


@pytest.mark.parametrize("text", ("b=0", "b=-1", "capacity(x)", "weird", ""))
def test_variant_parse_rejects(text):
    with pytest.raises(ValueError):
        Variant.parse(text)


def test_variant_rejects_bool():
    with pytest.raises(ValueError, match="^capacity must be an integer, got True$"):
        Variant(True)


def test_variant_names():
    assert NORMAL.name == "normal"
    assert COMPLY.name == "comply"
    assert capacity(3).name == "capacity(3)"
    assert capacity(1) == NORMAL and capacity(2) == COMPLY


# --- classification ---------------------------------------------------------


def test_classify_worked_example(fig1):
    t = fig1["tree"]
    pm = classify(t, NORMAL)
    assert pm.p_set() == fig1["p_set"]
    assert pm.n_set() == frozenset({1, 3, 4, 5})
    assert independence_number(t) == 6
    assert matching_number(t) == 4

    pmc = classify(t, COMPLY)
    assert {v: pmc.label(v) for v in range(1, 11)} == {
        1: "N", 2: "P0", 3: "P1", 4: "P1", 5: "N",
        6: "P1", 7: "P0", 8: "P0", 9: "P0", 10: "P0",
    }
    assert pmc.p_subset(1) == frozenset({3, 4, 6})

    pm3 = classify(t, capacity(3))
    assert pm3.n_set() == frozenset()
    assert pm3.label(1) == "P2"


@pytest.mark.parametrize("b", (11, 12, 10**5))
def test_labels_past_b_equal_n_are_those_at_n(fig1, b):
    at_n, pm = classify(fig1["tree"], Variant(10)), classify(fig1["tree"], Variant(b))
    assert pm.label_list() == at_n.label_list()
    assert pm.labels() == at_n.labels()
    assert [pm.label(v) for v in range(1, 11)] == at_n.label_list()


def test_labels_cost_nothing_per_unit_of_b(fig1):
    # a P-child count is below n, so a large b names no more than n P-classes
    pm = classify(fig1["tree"], Variant(10**5))
    for read in (lambda: pm.label(1), pm.label_list, pm.labels):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"{read} traced {peak} bytes"


def test_path_alternates():
    t = path_tree(9)
    pm = classify(t, NORMAL)
    # leaf is P, then strictly alternating up to the root
    assert [pm.is_p(v) for v in range(9, 0, -1)] == [True, False] * 4 + [True]
    assert independence_number(t) == 5


@pytest.mark.parametrize("n", (3, 5, 8))
def test_star_counts(n):
    assert independence_number(star_tree(n)) == n - 1
    assert matching_number(star_tree(n)) == 1


def test_deep_path_is_iterative():
    # would blow the interpreter stack if any of these recursed per vertex
    n = 200_000
    t = path_tree(n)
    assert independence_number(t) == n // 2
    assert matching_number(t) == n // 2
    assert max_capacity_edges(t, 2) == n - 1
    assert len(path_cover_decomposition(t)) == 1


@pytest.mark.parametrize(
    "n, root, parent",
    (
        (3, 1, {2: 1, 3: 1}),  # the child -> parent map, which the scan would read by its keys
        (3, 1, (0, 0, 1)),  # one entry short
        (3, 1, (0, 0, 1, 1, 1)),
        (3, 1, [0, 0, 1, 1]),
        (3, 1, (1, 0, 1, 1)),  # entry 0 is not 0
        (3, 2, (0, 0, 1, 1)),  # the root's entry is not 0
        (3, 4, (0, 0, 1, 1)),
    ),
)
def test_a_tree_is_its_label_indexed_parent_tuple(n, root, parent):
    with pytest.raises(TreeError, match=r"^parent must be a tuple of n \+ 1 .*validate_tree"):
        RootedTree(n=n, root=root, parent=parent)


@pytest.mark.parametrize(
    "n, root, parent",
    (
        (True, 1, (0, 0)),  # True == 1, so only its type tells it from a one-vertex tree
        (3.0, 1, (0, 0, 1, 1)),  # the pruning scan cannot size its lists by 3.0
        (np.int64(3), 1, (0, 0, 1, 1)),
        (3, 1.0, (0, 0, 1, 1)),  # a tuple cannot be indexed by 1.0
        (3, True, (0, 0, 1, 1)),  # True == 1 again
    ),
)
def test_a_tree_refuses_n_and_root_that_are_not_exact_ints(n, root, parent):
    what, value = ("n", n) if type(n) is not int else ("root", root)
    with pytest.raises(TreeError, match=rf"^{what} must be an int, got {re.escape(repr(value))}; "
                                        "build a tree .* with validate_tree$"):
        RootedTree(n=n, root=root, parent=parent)


@given(trees)
def test_a_tree_is_its_own_key(t):
    twin = validate_tree({"n": t.n, "root": t.root, "parent": t.edges()[::-1]})
    assert twin == t and hash(twin) == hash(t) and len({t, twin}) == 1
    assert len(t.parent) == t.n + 1 and t.parent[0] == t.parent[t.root] == 0
    assert all(kids == sorted(kids) for kids in t.children_lists())


# A hand-built tree is checked where it is built, by validate_tree's checks, so classify and
# encode never read one that is not a tree: each call below is reached only through the
# constructor, which raises first.


@pytest.mark.parametrize("call", (classify, slither_encode), ids=("classify", "slither_encode"))
def test_unvalidated_cycle_raises_tree_error(call):
    # 2 and 3 are each other's parent, so neither is ever a leaf
    with pytest.raises(TreeError, match=r"^cycle detected through vertices \[2, 3\]$"):
        call(RootedTree(n=4, root=1, parent=(0, 0, 3, 2, 1)))


@pytest.mark.parametrize("call", (classify, slither_encode), ids=("classify", "slither_encode"))
def test_unvalidated_second_root_raises_tree_error(call):
    # 2's entry is 0 like the root's
    with pytest.raises(TreeError, match=r"^multiple roots: vertices \[1, 2\] have no parent$"):
        call(RootedTree(n=3, root=1, parent=(0, 0, 0, 1)))


@pytest.mark.parametrize("call", (classify, slither_encode), ids=("classify", "slither_encode"))
@pytest.mark.parametrize("parent, message", (
    ((0, 0, -1, 1), r"label out of range 1\.\.3 in parent entry \(2, -1\)"),
    ((0, 0, -4, 1), r"label out of range 1\.\.3 in parent entry \(2, -4\)"),
    ((0, 0, 4, 1), r"label out of range 1\.\.3 in parent entry \(2, 4\)"),
    ((0, 0, 1.5, 1), "parent entry at index 2 must be an integer, got 1.5"),
    ((0, 0, "x", 1), "parent entry at index 2 must be an integer, got 'x'"),
    # True == 1, so the shape check passed it, and classify read it as 1 while encode refused it
    ((0, 0, True, 1), "parent entry at index 2 must be an integer, got True"),
), ids=("minus-1", "wraps-to-0", "past-n", "float", "str", "true"))
def test_unvalidated_label_outside_0_to_n_raises_tree_error(call, parent, message):
    # pending[-1] wrapped to label 3 in the scan, so classify returned counts [0, 0, 0, 1]
    with pytest.raises(TreeError, match=f"^{message}$"):
        call(RootedTree(n=3, root=1, parent=parent))


def test_a_tree_refuses_a_self_parent():
    with pytest.raises(TreeError, match="^vertex 3 listed as its own parent$"):
        RootedTree(n=3, root=1, parent=(0, 0, 1, 3))


@pytest.mark.parametrize("entry", (np.int64(1), np.uint8(1), "1"), ids=("int64", "uint8", "str"))
def test_a_tree_stores_its_entries_as_ints(entry):
    # read as _strict_int reads a symbol, so the tree equals, and hashes as, the int one
    t = RootedTree(n=3, root=1, parent=(0, 0, entry, 1))
    assert t.parent == (0, 0, 1, 1) and all(type(p) is int for p in t.parent)
    assert t == star_tree(3) and hash(t) == hash(star_tree(3))


@given(trees)
def test_a_tree_built_by_hand_equals_the_validated_one(t):
    twin = RootedTree(n=t.n, root=t.root, parent=t.parent)
    assert twin == t and hash(twin) == hash(t)
    assert RootedTree(n=t.n, root=t.root, parent=tuple(map(np.int64, t.parent))) == t


@pytest.mark.parametrize("call", (classify, slither_encode), ids=("classify", "slither_encode"))
@pytest.mark.parametrize("variant", (2, "normal", None))
def test_the_scan_refuses_a_variant_that_is_not_one(fig1, call, variant):
    # both read variant.b and failed with an AttributeError
    shown = re.escape(repr(variant))
    with pytest.raises(ValueError, match=f"^variant must be a Variant, got {shown}$"):
        call(fig1["tree"], variant)


@given(trees)
def test_alpha_mu_complement(t):
    assert independence_number(t) + matching_number(t) == t.n


@given(st.builds(random_tree, st.integers(2, 12), st.integers(0, 2**32 - 1)))
@settings(max_examples=40)
def test_alpha_matches_brute_force(t):
    assert independence_number(t) == bf_max_independent(t)


@pytest.mark.parametrize("b", range(1, 5))
@given(t=trees)
def test_p_child_counts_recount(t, b):
    pm = classify(t, Variant(b))
    kids = t.children_lists()
    for v in range(1, t.n + 1):
        assert pm.p_child_count[v] == sum(1 for c in kids[v] if pm.is_p(c))
        assert pm.is_p(v) == (pm.p_child_count[v] <= b - 1)


# --- certificates -----------------------------------------------------------


@given(trees)
def test_matching_certificate_is_a_maximum_matching(t):
    cert = matching_certificate(t)
    assert len(cert) == matching_number(t)
    seen = set()
    pm = classify(t, NORMAL)
    for v, c in cert:
        assert t.parent[c] == v
        assert not pm.is_p(v) and pm.is_p(c)
        assert v not in seen and c not in seen
        seen.update((v, c))


@given(trees, st.integers(1, 3))
def test_strategic_set_size_and_degrees(t, b):
    ss = strategic_set(t, b)
    assert type(ss) is tuple and list(ss) == sorted(ss)
    assert len(ss) == max_capacity_edges(t, b)
    degree = {}
    for v, c in ss:
        assert t.parent[c] == v
        degree[v] = degree.get(v, 0) + 1
        degree[c] = degree.get(c, 0) + 1
    assert all(d <= b for d in degree.values())


@given(small_trees, st.integers(1, 3))
@settings(max_examples=60)
def test_capacity_edges_match_brute_force(t, b):
    assert max_capacity_edges(t, b) == bf_max_capacity_edges(t, b)


@given(trees, st.integers(1, 4))
def test_capacity_edges_of_a_classification(t, b):
    pm = classify(t, Variant(b))
    assert pm.capacity_edges() == max_capacity_edges(t, b) == len(strategic_set(t, b))
    if b == 1:
        assert pm.capacity_edges() == t.n - len(pm.p_set()) == matching_number(t)


def test_strategic_b1_is_the_certificate_matching(fig1):
    t = fig1["tree"]
    assert strategic_set(t, 1) == matching_certificate(t)


# --- path cover -------------------------------------------------------------


def test_path_cover_worked_example(fig1):
    assert path_cover_decomposition(fig1["tree"]) == [
        [8, 1, 6, 4, 10], [2, 5, 3, 7], [9]]


@given(trees)
def test_path_cover_partitions_into_tree_paths(t):
    paths = path_cover_decomposition(t)
    covered = [v for p in paths for v in p]
    assert sorted(covered) == list(range(1, t.n + 1))
    edges = {frozenset(e) for e in t.edges()}
    for p in paths:
        for a, c in zip(p, p[1:]):
            assert frozenset((a, c)) in edges
        assert p[0] <= p[-1]
    assert len(paths) == t.n - max_capacity_edges(t, 2)
    assert [min(p) for p in paths] == sorted(min(p) for p in paths)


# --- brute-force oracles ----------------------------------------------------


def largest_subset(items, ok):
    """Size of the largest subset of items that ok accepts, by itertools.combinations."""
    return max(k for k in range(len(items) + 1)
               if any(ok(sub) for sub in itertools.combinations(items, k)))


def independent(t, vertices):
    return not any(t.parent[v] in vertices for v in vertices)


def degrees_within(b, edges):
    return max(Counter(v for e in edges for v in e).values(), default=0) <= b


@pytest.mark.parametrize("n", range(1, 9))
def test_bit_mask_oracles_match_an_enumeration_of_subsets(n):
    cases = [random_tree(n, seed) for seed in range(12)] + [path_tree(n), star_tree(n)]
    for t in cases:
        vertices = range(1, t.n + 1)
        assert bf_max_independent(t) == largest_subset(
            vertices, lambda sub: independent(t, set(sub)))
        for b in (1, 2, 3):
            assert bf_max_capacity_edges(t, b) == largest_subset(
                t.edges(), lambda sub: degrees_within(b, sub))


def test_bit_count_tables_are_built_once_per_size_and_read_only():
    assert _popcounts(5) is _popcounts(5)
    assert _popcounts(5).tolist() == [bin(i).count("1") for i in range(32)]
    with pytest.raises(ValueError, match="read-only"):
        _popcounts(5)[0] = 1


# --- brute-force guards -----------------------------------------------------


def test_brute_force_caps():
    with pytest.raises(ValueError, match="capped at n <= 20"):
        bf_max_independent(path_tree(21))
    with pytest.raises(ValueError, match="capped at n <= 16"):
        bf_max_capacity_edges(path_tree(17), 2)
