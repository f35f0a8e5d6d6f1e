"""Encode/decode round trips and the prefix reading rules."""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slithercode import (
    COMPLY,
    NORMAL,
    CodeError,
    ReadResult,
    RootedTree,
    SlitherCode,
    TreeError,
    capacity,
    classify,
    decode_sequence,
    independence_number,
    matching_number,
    max_capacity_edges,
    prefix_alpha,
    prufer_decode,
    prufer_encode,
    read_alpha,
    read_capacity_edges,
    read_matching_via_beta,
    read_path_edges,
    read_root_and_pset,
    slither_decode,
    slither_encode,
)
from slithercode.games import DEALS, RandomSource
from slithercode.trees import _prune

from conftest import random_tree

variants = st.sampled_from((NORMAL, COMPLY, capacity(3)))


@st.composite
def codes(draw, max_n=64):
    n = draw(st.integers(2, max_n))
    sym = draw(st.lists(st.integers(1, n), min_size=n - 1, max_size=n - 1))
    return SlitherCode(n=n, variant=draw(variants), symbols=tuple(sym))


# --- worked example ---------------------------------------------------------


def test_encode_worked_example(fig1):
    code, aux = slither_encode(fig1["tree"], NORMAL)
    assert code.symbols == fig1["code"]
    assert aux == fig1["aux"]


def test_decode_worked_example(fig1):
    t = decode_sequence(fig1["code"], n=10, variant=NORMAL)
    assert t == fig1["tree"]
    assert t.root == 9


def test_worked_example_reads(fig1):
    code = SlitherCode(n=10, variant=NORMAL, symbols=fig1["code"])
    assert read_alpha(code) == 6
    r = read_root_and_pset(code)
    assert (r.root, r.root_class) == (9, "P")
    assert r.p_set == fig1["p_set"]


def test_worked_example_comply_roundtrip(fig1):
    code, _ = slither_encode(fig1["tree"], COMPLY)
    assert slither_decode(code) == fig1["tree"]
    assert code.symbols != fig1["code"]  # variants really differ on this tree


# --- code construction ------------------------------------------------------


def test_code_normalizes_symbols():
    c = SlitherCode(n=4, variant=NORMAL, symbols=["3", np.int64(1), 2])
    assert c.symbols == (3, 1, 2)


@pytest.mark.parametrize(
    "n, symbols, fragment",
    (
        (4, (1, 2), "expected 3 symbols"),
        (4, (1, 2, 9), "out of range"),
        (4, (1, "x", 2), "^symbol at index 1 must be an integer, got 'x'$"),
        (0, (), "n must be >= 1"),
        (3, (1.5, 2.9), r"^symbol at index 0 must be an integer, got 1\.5$"),
        (3, (True, 1), "^symbol at index 0 must be an integer, got True$"),
        (5, [1, 2, 1.5, 3], r"^symbol at index 2 must be an integer, got 1\.5$"),
        # a one-shot iterator is read once, so its bad symbol is still named
        (2, iter(["x"]), "^symbol at index 0 must be an integer, got 'x'$"),
        (3, 5, r"^symbols must be a sequence, got 5$"),
    ),
)
def test_code_rejects(n, symbols, fragment):
    with pytest.raises(CodeError, match=fragment):
        SlitherCode(n=n, variant=NORMAL, symbols=symbols)


@pytest.mark.parametrize("variant", (2, "normal", None))
def test_code_rejects_a_variant_that_is_not_one(variant):
    # slither_decode read variant.b and failed with an AttributeError
    shown = re.escape(repr(variant))
    with pytest.raises(CodeError, match=f"^variant must be a Variant, got {shown}$"):
        SlitherCode(n=3, variant=variant, symbols=(1, 2))


@pytest.mark.parametrize("decode", (decode_sequence, prufer_decode))
def test_decoding_a_non_sequence_names_it(decode):
    with pytest.raises(CodeError, match="^symbols must be a sequence, got 5$"):
        decode(5)


@pytest.mark.parametrize("decode", (decode_sequence, prufer_decode))
def test_a_type_error_raised_while_reading_the_symbols_is_their_own(decode):
    # it was caught as "not iterable" and reported as symbols must be a sequence
    def symbols():
        yield 1
        raise TypeError("inner")

    with pytest.raises(TypeError, match="^inner$"):
        decode(symbols())


# tuple() splits a str or bytes into characters, reads a map by its keys and a set in hash
# order, so decode_sequence("312") decoded the code (3, 1, 2) and a set was silently sorted
NOT_SEQUENCES = ("312", b"312", {3: 1, 1: 1, 2: 1}, {3, 1, 2}, 5)
SEQUENCE_READERS = {
    "SlitherCode": lambda symbols: SlitherCode(n=4, variant=NORMAL, symbols=symbols),
    "decode_sequence": decode_sequence,
    "prufer_decode": prufer_decode,
}


@pytest.mark.parametrize("read", SEQUENCE_READERS.values(), ids=SEQUENCE_READERS)
@pytest.mark.parametrize("symbols", NOT_SEQUENCES, ids=("str", "bytes", "dict", "set", "int"))
def test_symbols_that_are_not_a_sequence_are_refused(read, symbols):
    shown = re.escape(repr(symbols))
    with pytest.raises(CodeError, match=f"^symbols must be a sequence, got {shown}$"):
        read(symbols)


@pytest.mark.parametrize("symbols", ((1, 2, 3), [1, 2, 3], np.array([1, 2, 3]), range(1, 4),
                                     iter([1, 2, 3])),
                         ids=("tuple", "list", "array", "range", "iterator"))
def test_every_sequence_form_reads_the_same_code(symbols):
    code = SlitherCode(n=4, variant=NORMAL, symbols=symbols)
    assert code.symbols == (1, 2, 3) and type(code.symbols[0]) is int


@pytest.mark.parametrize("edges, shown", (
    (5, "^edges must be a sequence, got 5$"),
    ({1: 2, 2: 3}, r"^edges must be a sequence, got \{1: 2, 2: 3\}$"),
    ({(1, 2), (2, 3)}, r"^edges must be a sequence, got \{\("),
    (["12", "23"], r"^edge '12' at index 0 is not a \(u, v\) pair$"),
    ([(1, 2), (1, 2, 3)], r"^edge \(1, 2, 3\) at index 1 is not a \(u, v\) pair$"),
), ids=("int", "dict", "set", "str-edge", "triple"))
def test_prufer_encode_refuses_edges_that_are_not_pairs(edges, shown):
    # the bare "for u, v in edges" read "12" as the edge (1, 2) and leaked a TypeError
    # for an int or a map
    with pytest.raises(CodeError, match=shown):
        prufer_encode(3, edges)


@pytest.mark.parametrize("edges", ([(1, 2), (2, 3)], ([1, 2], [2, 3]), iter([(1, 2), (2, 3)]),
                                   np.array([[1, 2], [2, 3]]), {1: 2, 2: 3}.items()),
                         ids=("list", "tuple-of-lists", "iterator", "array", "items"))
def test_prufer_encode_reads_every_sequence_of_pairs(edges):
    assert prufer_encode(3, edges) == (2,)


@pytest.mark.parametrize("n, shown", ((True, "True"), (3.0, "3.0"), (None, "None"), ("x", "'x'")))
def test_code_reads_n_strictly(n, shown):
    with pytest.raises(CodeError, match=f"^n must be an integer, got {re.escape(shown)}$"):
        SlitherCode(n=n, variant=NORMAL, symbols=(1, 2))


@pytest.mark.parametrize("n", ("3", np.int64(3)))
def test_code_reads_n_as_an_int(n):
    code = SlitherCode(n=n, variant=NORMAL, symbols=(1, 2))
    assert type(code.n) is int and code.n == 3


@pytest.mark.parametrize("n", (1, 2, 5, 17, 40))
def test_an_encoded_code_equals_the_one_built_from_its_symbols(n):
    # slither_encode builds its code unchecked; it must be the code the public
    # constructor builds from the same symbols, equal and with the same hash
    shapes = [random_tree(n, seed) for seed in range(6)] + [
        RootedTree(n=n, root=1, parent=(0, 0, *range(1, n))),  # a path
        RootedTree(n=n, root=1, parent=(0, 0) + (1,) * (n - 1))]  # a star
    for tree in shapes:
        for variant in {NORMAL, COMPLY, capacity(3), capacity(n)}:
            code = slither_encode(tree, variant)[0]
            checked = SlitherCode(n=tree.n, variant=variant, symbols=code.symbols)
            assert code == checked and hash(code) == hash(checked)
            assert type(code.n) is int and type(code.symbols) is tuple
            assert all(type(s) is int for s in code.symbols)


def test_a_hand_built_trees_labels_are_read_as_a_code_reads_them():
    # the constructor reads each entry as SlitherCode reads a symbol, so encode gathers ints
    code = slither_encode(RootedTree(n=3, root=1, parent=(0, 0, 1, np.int64(1))))[0]
    assert code.symbols == (1, 1) and all(type(s) is int for s in code.symbols)
    with pytest.raises(TreeError, match="^parent entry at index 2 must be an integer, got True$"):
        RootedTree(n=3, root=1, parent=(0, 0, True, 1))


def test_single_vertex_conventions():
    t = decode_sequence((), n=1)
    assert t.n == 1 and t.root == 1
    code, aux = slither_encode(t, NORMAL)
    assert code.symbols == () and aux == ()
    assert prefix_alpha((), 1) == 1
    r = read_root_and_pset(SlitherCode(n=1, variant=NORMAL, symbols=()))
    assert r == ReadResult(n=1, alpha=1, root=1, root_class="P", p_set=frozenset({1}))


# --- round trips ------------------------------------------------------------


@given(codes())
@settings(max_examples=150)
def test_decode_encode_identity(code):
    t = slither_decode(code)
    back, aux = slither_encode(t, code.variant)
    assert back == code
    assert sorted(aux) == [v for v in range(1, code.n + 1) if v != t.root]


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), variants)
def test_encode_decode_identity(n, seed, variant):
    t = random_tree(n, seed)
    code, _ = slither_encode(t, variant)
    assert slither_decode(code) == t


def definitional_encode(tree, variant):
    """Delete the smallest leaf of the shrinking tree, one at a time: O(n^2)."""
    pm = classify(tree, variant)
    alive = dict(tree.edges())
    left, right = [], []
    while alive:
        inner = set(alive.values())
        v = min(c for c in alive if c not in inner)
        (left if pm.is_p(v) else right).append((alive.pop(v), v))
    return tuple(zip(*(left + right[::-1])))


@given(st.integers(2, 150), st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60)
def test_encode_matches_the_definition(n, seed, b):
    # past n = 7 many parents become ready behind the pruning scan's pointer
    t = random_tree(n, seed)
    for variant in (capacity(b), capacity(n)):
        code, aux = slither_encode(t, variant)
        assert (code.symbols, aux) == definitional_encode(t, variant)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3, None)))
def test_the_scans_slot_order_is_the_auxiliary_sequence(n, seed, b):
    # read by label from the tree or by slot from its code, the scan places
    # every vertex in the same slot and counts the same P-children
    t, variant = random_tree(n, seed), capacity(b or n)
    code, aux = slither_encode(t, variant)
    by_label = _prune(n, t.parent, variant)
    by_slot = _prune(n, code.symbols, variant, by_slot=True)
    assert tuple(by_label[1]) == tuple(by_slot[1]) == aux
    assert by_label[0] == by_slot[0] == classify(t, variant).p_child_count


@given(codes(max_n=32))
def test_occurrences_are_out_degrees(code):
    t = slither_decode(code)
    kids = t.children_lists()
    for v in range(1, code.n + 1):
        assert code.symbols.count(v) == len(kids[v])


# --- reading rules ----------------------------------------------------------


@pytest.mark.parametrize(
    "symbols, n, alpha, root, root_class, p_set",
    (
        ((2, 2, 1, 1), 5, 3, 1, "N", {3, 4, 5}),
        ((1, 1, 1), 4, 3, 1, "N", {2, 3, 4}),
        ((1,), 2, 1, 1, "N", {2}),
        ((2,), 2, 1, 2, "N", {1}),
    ),
)
def test_read_frozen_examples(symbols, n, alpha, root, root_class, p_set):
    code = SlitherCode(n=n, variant=NORMAL, symbols=symbols)
    assert read_alpha(code) == alpha
    r = read_root_and_pset(code)
    assert (r.n, r.alpha, r.root, r.root_class) == (n, alpha, root, root_class)
    assert r.p_set == frozenset(p_set)


def test_read_matching_frozen_examples():
    assert read_matching_via_beta(SlitherCode(n=2, variant=NORMAL, symbols=(1,))) == (1, 1)
    assert read_matching_via_beta(SlitherCode(n=4, variant=NORMAL, symbols=(1, 1, 1))) == (2, 1)
    assert read_path_edges(SlitherCode(n=2, variant=COMPLY, symbols=(1,))) == (1, 1)
    assert read_path_edges(SlitherCode(n=4, variant=COMPLY, symbols=(1, 1, 1))) == (2, 2)


@given(codes(max_n=40))
@settings(max_examples=150)
def test_reads_agree_with_the_decoded_tree(code):
    t = slither_decode(code)
    b = code.variant.b
    if b == 1:
        assert read_alpha(code) == independence_number(t)
        r = read_root_and_pset(code)
        assert r.root == t.root
        assert r.p_set == classify(t, NORMAL).p_set()
        assert r.root_class == ("P" if t.root in r.p_set else "N")
        beta, value = read_matching_via_beta(code)
        assert value == matching_number(t)
        assert 1 <= beta <= code.n - 1
    elif b == 2:
        _, value = read_path_edges(code)
        assert value == max_capacity_edges(t, 2)
    else:
        _, value = read_capacity_edges(code, b)
        assert value == max_capacity_edges(t, b)


@pytest.mark.parametrize(
    "call, code_variant, fragment",
    (
        (read_matching_via_beta, COMPLY, "reads normal codes"),
        (read_path_edges, NORMAL, "reads comply codes"),
        (lambda c: read_capacity_edges(c, 3), COMPLY, "reads capacity"),
    ),
)
def test_reads_enforce_their_variant(call, code_variant, fragment):
    code = SlitherCode(n=4, variant=code_variant, symbols=(1, 1, 1))
    with pytest.raises(CodeError, match=fragment):
        call(code)


def _read_or_error(symbols, n):
    try:
        return prefix_alpha(symbols, n)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Symbol ranges: dice throws 1..n, plane labels 0..n-1, integers outside
# 0..n, and floats (integral and halves).  size None is a full deal of n - 1;
# 64 is the shortest array the sorted read takes, and 63 the longest it leaves
# to the loop.  Integer styles are cast to dtype, so negatives wrap in the
# unsigned ones and both paths read the wrapped values.
@given(st.integers(2, 200), st.sampled_from(("dice", "plane", "outside", "float")),
       st.sampled_from((None, 63, 64, 100)),
       st.sampled_from(("int64", "int32", "uint8", "uint16", "uint64")),
       st.integers(0, 2**32 - 1))
@example(n=200, style="dice", size=64, dtype="int64", seed=0)
@example(n=200, style="plane", size=100, dtype="int64", seed=1)
@example(n=128, style="dice", size=64, dtype="uint8", seed=2)
@example(n=127, style="plane", size=64, dtype="uint64", seed=3)
def test_prefix_alpha_numpy_path_matches_loop(n, style, size, dtype, seed):
    rng = np.random.default_rng(seed)
    lo, hi = {"dice": (1, n), "plane": (0, n - 1), "outside": (-2, n + 2),
              "float": (1, n)}[style]
    arr = rng.integers(lo, hi + 1, size=n - 1 if size is None else size)
    if style == "float":
        arr = arr / rng.choice((1, 2), size=arr.shape[0])
    else:
        arr = arr.astype(dtype)
    assert _read_or_error(arr, n) == _read_or_error(list(arr), n)


@pytest.mark.parametrize("n", (500, 2000))
@pytest.mark.parametrize("family", sorted(DEALS))
def test_prefix_alpha_reads_each_familys_deals_as_the_loop_does(family, n):
    n += family == "full-binary"  # that family needs odd n
    source = RandomSource(26)
    for i in range(25):
        cards = DEALS[family](n)(source.trial_rng(i))
        assert prefix_alpha(cards, n) == prefix_alpha(cards.tolist(), n)


@pytest.mark.parametrize("n, last, want", (
    (10**12, 100, None),
    (201, 100, None), (200, 100, 100), (199, 100, 100),  # 2m = n - 1, n and n + 1
    (200, 1, None), (199, 1, 100),
))
def test_prefix_alpha_needs_half_as_many_symbols_as_faces(n, last, want):
    # distinct(a) <= a, so no read stops when 2m < n; the sorted read refuses that
    # before it allocates its n + 1 entries (at n = 10^12 it raised MemoryError)
    arr = np.arange(1, 101)
    arr[-1] = last
    for seq in (arr, arr.tolist()):
        if want is None:
            with pytest.raises(ValueError, match="exhausted"):
                prefix_alpha(seq, n)
        else:
            assert prefix_alpha(seq, n) == want


def test_prefix_alpha_numpy_path_exhausted():
    # 64 and more symbols, too few distinct ones: both paths run out
    for arr in (np.arange(1, 65), np.zeros(100, dtype=np.int64), np.full(80, 7.0)):
        for seq in (arr, list(arr)):
            with pytest.raises(ValueError, match="exhausted"):
                prefix_alpha(seq, 200)


def test_prefix_alpha_exhausted():
    with pytest.raises(ValueError, match="exhausted"):
        prefix_alpha([], 3)
    with pytest.raises(ValueError, match="exhausted"):
        prefix_alpha([5, 5], 9)


@pytest.mark.parametrize("n", (150.0, True, "x"))
def test_prefix_alpha_reads_n_by_the_size_rule(n):
    # coupon_read hands n on unread, so the list and array paths read it alike
    shown = re.escape(repr(n))
    for seq in (list(range(1, 101)), np.arange(1, 101)):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {shown}$"):
            prefix_alpha(seq, n)


# --- classic prufer ---------------------------------------------------------


def test_prufer_star():
    assert prufer_encode(4, [(1, 2), (1, 3), (1, 4)]) == (1, 1)
    assert prufer_decode((1, 1)) == [(1, 2), (1, 3), (1, 4)]


def test_prufer_two_vertices():
    assert prufer_encode(2, [(1, 2)]) == ()
    assert prufer_decode(()) == [(1, 2)]


@pytest.mark.parametrize(
    "call",
    (
        lambda: prufer_encode(3, [(1, 2), (1, 2)]),  # repeated edge, vertex 3 isolated
        lambda: prufer_encode(4, [(1, 2), (2, 3), (3, 1)]),  # cycle, vertex 4 isolated
        lambda: prufer_decode((1.9,)),
        lambda: prufer_encode(3, [(1.5, 2), (2, 3)]),
        lambda: prufer_encode(1, [(5, 6)]),  # an edge, and out of range, for one vertex
        lambda: prufer_encode(0, []),
    ),
    ids=("repeated-edge", "cycle", "float-symbol", "float-endpoint", "one-vertex-edge",
         "zero-vertices"),
)
def test_prufer_rejects(call):
    with pytest.raises(CodeError):
        call()


@pytest.mark.parametrize("n", range(2, 7))
def test_prufer_exhaustive_cayley(n):
    seqs = list(product(range(1, n + 1), repeat=n - 2))
    trees = {tuple(prufer_decode(s)) for s in seqs}
    assert len(trees) == len(seqs) == n ** (n - 2)
    for s in seqs:
        assert prufer_encode(n, prufer_decode(s)) == s


@given(st.integers(2, 50), st.integers(0, 2**32 - 1))
def test_prufer_roundtrip(n, seed):
    t = random_tree(n, seed)
    edges = sorted((min(c, p), max(c, p)) for c, p in t.edges())
    assert prufer_decode(prufer_encode(n, edges)) == edges
