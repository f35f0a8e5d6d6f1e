"""Tree validation, position classification, and the optimal-play certificates."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from slithercode.cli import parse_tree
from slithercode.trees import _bulk_tree, _tree_by_entry

from conftest import random_tree

trees = st.builds(random_tree, st.integers(2, 40), st.integers(0, 2**32 - 1))
small_trees = st.builds(random_tree, st.integers(2, 12), st.integers(0, 2**32 - 1))


def path_tree(n):
    return RootedTree(n=n, root=1, parent={i: i - 1 for i in range(2, n + 1)})


def star_tree(n):
    return RootedTree(n=n, root=1, parent={i: 1 for i in range(2, n + 1)})


# --- validation -------------------------------------------------------------


def test_validate_accepts_json_style_dict():
    t = validate_tree({"n": "4", "root": "1", "parent": {"2": "1", "3": "1", "4": "3"}})
    assert t.n == 4 and t.root == 1
    assert t.parent == {2: 1, 3: 1, 4: 3}


def test_validate_accepts_triple_and_pairs():
    t1 = validate_tree((4, 1, {2: 1, 3: 1, 4: 3}))
    t2 = validate_tree({"n": 4, "parent": [(2, 1), (3, 1), (4, 3)]})
    assert t1 == t2


def test_validate_single_vertex():
    t = validate_tree({"n": 1})
    assert t.root == 1 and t.parent == {}


def test_validate_passthrough_identity():
    t = path_tree(5)
    assert validate_tree(t) == t


@pytest.mark.parametrize(
    "data, fragment",
    (
        ({"n": 3, "parent": {2: 1, 3: "x"}}, "non-integer labels"),
        ({"n": 3, "parent": {2: 1, 3: 5}}, "out of range"),
        ({"n": 3, "parent": [(2, 1), (2, 3)]}, "duplicate parent entry"),
        ({"n": 3, "parent": {2: 2, 3: 1}}, "its own parent"),
        ({"n": 4, "parent": {2: 1}}, "multiple roots"),
        ({"n": 2, "parent": {1: 2, 2: 1}}, "every vertex has a parent"),
        ({"n": 3, "root": 2, "parent": {2: 1, 3: 1}}, "declared root"),
        ({"n": 4, "parent": {2: 3, 3: 2, 4: 2}}, "cycle"),
        ({"n": 0, "parent": {}}, "n must be >= 1"),
        ({"parent": {}}, "missing or non-integer"),
        (42, "cannot interpret"),
        ({"n": 3, "parent": {2: 1.9, 3: 1}}, "non-integer labels"),
        ({"n": 3, "parent": {2: True, 3: 1}}, "non-integer labels"),
        ({"n": 3.0, "parent": {2: 1, 3: 1}}, "non-integer vertex count"),
        ({"n": 3, "root": 1.0, "parent": {2: 1, 3: 1}}, "non-integer declared root"),
    ),
)
def test_validate_rejects(data, fragment):
    with pytest.raises(TreeError, match=fragment):
        validate_tree(data)


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
        tree = RootedTree(n=n, root=order[0], parent=dict(zip(order[1:], order)))
    pairs = [list(e) for e in tree.parent.items()]
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
        elif edit == "cycle" and c in tree.parent:  # c's parent becomes a descendant, or c
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
    """The tree and its entry order, or the TreeError message."""
    try:
        tree = build()
    except TreeError as exc:
        return str(exc)
    return tree, list(tree.parent.items())


@given(mutated_parent_entries(), st.sampled_from(("pairs", "dict", "str-keys", "text")))
@settings(max_examples=400)
def test_bulk_validation_agrees_with_the_per_entry_loop(case, form):
    n, root, declared, pairs = case
    if form == "text":  # the text always declares a root
        declared = str(root if declared is None else declared)
        pairs = [(str(c), str(p)) for c, p in pairs]
        text = f"{n} {declared}\n" + "".join(f"{c} {p}\n" for c, p in pairs)
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
    if n > 1 and not isinstance(want, str):  # valid input never needs the per-entry loop
        assert _bulk_tree(n, [c for c, _ in pairs], [p for _, p in pairs], declared) == want[0]


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
    with pytest.raises(ValueError, match="positive integer"):
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


@pytest.mark.parametrize("call", (classify, slither_encode), ids=("classify", "slither_encode"))
def test_unvalidated_cycle_raises_tree_error(call):
    # 2 and 3 are each other's parent, so neither is ever a leaf
    t = RootedTree(n=4, root=1, parent={2: 3, 3: 2, 4: 1})
    with pytest.raises(TreeError, match="did not reach every vertex"):
        call(t)


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
    assert len(cert.edges) == matching_number(t)
    seen = set()
    pm = classify(t, NORMAL)
    for v, c in cert.edges:
        assert t.parent[c] == v
        assert not pm.is_p(v) and pm.is_p(c)
        assert v not in seen and c not in seen
        seen.update((v, c))


@given(trees, st.integers(1, 3))
def test_strategic_set_size_and_degrees(t, b):
    ss = strategic_set(t, b)
    assert ss.b == b
    assert len(ss.edges) == max_capacity_edges(t, b)
    degree = {}
    for v, c in ss.edges:
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
    assert pm.capacity_edges() == max_capacity_edges(t, b) == len(strategic_set(t, b).edges)
    if b == 1:
        assert pm.capacity_edges() == t.n - len(pm.p_set()) == matching_number(t)


def test_strategic_b1_is_the_certificate_matching(fig1):
    t = fig1["tree"]
    assert strategic_set(t, 1).edges == matching_certificate(t).edges


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
    return not any(t.parent.get(v) in vertices for v in vertices)


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


# --- brute-force guards -----------------------------------------------------


def test_brute_force_caps():
    with pytest.raises(ValueError, match="capped at n <= 20"):
        bf_max_independent(path_tree(21))
    with pytest.raises(ValueError, match="capped at n <= 16"):
        bf_max_capacity_edges(path_tree(17), 2)
