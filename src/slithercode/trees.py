"""Rooted labelled trees and the slither-game position classification.

Trees live on vertex labels 1..n with a designated root, held as one
label-indexed tuple: parent[v] is v's parent, and entries 0 and root are 0.
The pruning scan, the links and the codes all index that tuple, and
validate_tree is the one way in from a child -> parent map.  A tree is checked
once, where it is built, so the scan trusts it: RootedTree(...) runs
validate_tree's checks, and _rooted builds the library's own trees without
them.  The slither game moves a token from the root toward the leaves, one
edge per move, and the player who cannot move loses; in the capacity-b variant
each vertex may be entered up to b times before it is used up.  All variants
collapse to one classification rule on the rooted tree:

    a vertex is a P-position iff at most b-1 of its children are P-positions

with b=1 the plain game ("normal"), b=2 the constrained game ("comply"),
and b>=3 the general capacity game.  Leaves are always P.  The P-set under
b=1 is a maximum independent set, so |P| is the independence number and
n-|P| the matching number; at b=2 the links of _links, each vertex to its
two smallest P-children, decompose the tree into a minimum path cover.

The rule is evaluated in one place, the pruning scan _prune behind classify
and the codes' encode and decode: it deletes smallest-labelled leaves one
by one, classifies each vertex as it is deleted, and places it in the
leftmost open slot of the code if it is P, the rightmost if it is N.  Its
slot order is the codes' auxiliary sequence.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice

import numpy as np


class TreeError(ValueError):
    """Raised when input fails to describe a rooted tree on 1..n."""


def _cut(text: str, width: int = 80) -> str:
    """text, cut in the middle to width characters when it is longer."""
    head = width // 2
    return text if len(text) <= width else f"{text[:head]}...{text[head + 3 - width:]}"


def _echo(value) -> str:
    """repr(value) for an error message, cut in the middle past 80 characters.

    Messages echo outside input, which can be of any size; a shorter repr
    is kept whole, so the message is the same as with !r.
    """
    try:
        return _cut(repr(value))
    except RecursionError:  # a JSON value nested deeper than repr can walk
        return f"<{type(value).__name__} nested too deeply to show>"


# An integer in text: an optional sign, then ASCII digits.  int() also takes
# digit-group underscores, surrounding spaces and non-ASCII digits.
_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _strict_int(value, what: str = "value", error: type[ValueError] = ValueError) -> int:
    """int(value) for ints, numpy integers and strings matching _INT_TEXT only.

    Outside input goes through here instead of int(), which truncates 1.9
    to 1, reads True as 1 and " 1_0" as 10.  Raises error for anything else.
    """
    # exact int first: this runs once per label or symbol
    if type(value) is int:
        return value
    if isinstance(value, str):
        if _INT_TEXT.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # past int()'s digit limit
                raise _too_long(what, value, error) from None
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{what} must be an integer, got {_echo(value)}")


def _too_long(what: str, text: str, error: type[ValueError] = ValueError) -> ValueError:
    """The error for integer text longer than int() reads, sys.get_int_max_str_digits()."""
    return error(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                 f"got {_echo(text)}")


def _check_positive(value, what: str, error: type[ValueError] = ValueError) -> int:
    """value as _strict_int reads it, the one rule for every size; raise error unless it is >= 1."""
    value = _strict_int(value, what, error)
    if value < 1:
        raise error(f"{what} must be >= 1, got {value}")
    return value


def _check_variant(value, error: type[ValueError] = ValueError) -> Variant:
    """value, the one rule for every variant argument; raise error unless it is a Variant."""
    if not isinstance(value, Variant):
        raise error(f"variant must be a Variant, got {_echo(value)}")
    return value


@dataclass(frozen=True)
class Variant:
    """Game variant, determined entirely by the capacity b >= 1."""

    b: int

    def __post_init__(self):
        object.__setattr__(self, "b", _check_positive(self.b, "capacity"))

    @property
    def name(self) -> str:
        if self.b == 1:
            return "normal"
        if self.b == 2:
            return "comply"
        return f"capacity({self.b})"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        """Accepts 'normal', 'comply', 'b=K', or 'capacity(K)'."""
        t = text.strip().lower()
        if t == "normal":
            return cls(1)
        if t == "comply":
            return cls(2)
        if t.startswith("b="):
            body = t[2:]
        elif t.startswith("capacity(") and t.endswith(")"):
            body = t[len("capacity("):-1]
        else:
            raise ValueError(f"unknown variant {_echo(text)} (expected normal, comply, or b=K)")
        return cls(body)  # read by the size rule

    def __str__(self):
        return self.name


NORMAL = Variant(1)
COMPLY = Variant(2)


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree on labels 1..n given by its label-indexed parent tuple.

    parent has n + 1 entries: parent[v] is v's parent, and parent[0] and
    parent[root] are 0.  A tree is hashable, so it serves as its own key.
    That shape is checked here, with n and root exact ints, then every entry
    is read by _strict_ints and stored as an int, then validate_tree's checks
    run, in _tree.  Use validate_tree to build a tree from a child -> parent
    map or other untrusted input.
    """

    n: int
    root: int
    parent: tuple[int, ...]

    def __post_init__(self):
        n, root, p = self.n, self.root, self.parent
        if not (type(n) is int and type(root) is int and type(p) is tuple and len(p) == n + 1
                and 1 <= root <= n and p[0] == p[root] == 0):
            for what, value in (("n", n), ("root", root)):
                if type(value) is not int:
                    raise TreeError(f"{what} must be an int, got {_echo(value)}; "
                                    "build a tree from a child -> parent map with validate_tree")
            raise TreeError(f"parent must be a tuple of n + 1 = {n + 1} labels, 0 at "
                            f"entries 0 and root {root}, got {_echo(p)}; "
                            "build a tree from a child -> parent map with validate_tree")
        p = _strict_ints(p, "parent entry", TreeError)  # the index is the vertex's label
        try:  # read once: _entries takes int64 columns as they are
            up = np.asarray(p, dtype=np.int64)
        except OverflowError:  # a label past int64, which _entries walks to name
            up = np.asarray(p, dtype=object)
        kids = np.flatnonzero(up)  # each label whose entry is not 0, and its entry
        object.__setattr__(self, "parent", _tree(n, kids, up[kids], None)[1])

    def children_lists(self) -> list[list[int]]:
        """Adjacency indexed by label, each list ascending; entry 0 is unused padding."""
        ch: list[list[int]] = [[] for _ in range(self.n + 1)]
        for c, p in self.edges():
            ch[p].append(c)
        return ch

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs, sorted by child."""
        return [(c, p) for c, p in enumerate(self.parent) if p]


def _rooted(n: int, root: int, parent: tuple[int, ...]) -> RootedTree:
    """The RootedTree as given, without RootedTree's O(n) checks, for ints known to be a tree."""
    tree = object.__new__(RootedTree)
    tree.__dict__.update(n=n, root=root, parent=parent)  # frozen, so not by setattr
    return tree


def _strict_ints(values, what: str, error: type[ValueError] = ValueError):
    """The values as ints, read once, each as _strict_int reads it.

    All ints come back as they are.  Strings that are all unsigned are
    checked at once, over their joined text, and read by int(); any other
    values are read by _strict_int.  Either way one walk reads them, and the
    first value it could not read is read again by _strict_int, whose error
    names it and its index.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return values
    # bytes.isdigit takes ASCII digits only, and "replace" turns the rest into "?"
    digits = kinds == {str} and all(values) and "".join(values).encode("ascii", "replace").isdigit()
    out: list[int] = []
    try:  # extend keeps what it read before a failure, so len(out) is the index
        out.extend(map(int if digits else _strict_int, values))
        return out
    except ValueError:
        i = len(out)
    _strict_int(values[i], f"{what} at index {i}", error)  # raises, naming the index


def _sequence(values, what: str, error: type[ValueError] = ValueError) -> tuple:
    """tuple(values), the one reader of a sequence; raise error naming values unless they are
    iterable, or if a str, bytes, map or set: tuple() reads characters, keys or hash order."""
    if type(values) is tuple:
        return values
    if not isinstance(values, (str, bytes, bytearray, Mapping, set, frozenset)):
        try:
            it = iter(values)
        except TypeError:  # not iterable
            pass
        else:  # outside the try, so a TypeError raised while reading values is their own
            return tuple(it)
    raise error(f"{what} must be a sequence, got {_echo(values)}")


def _pairs(entries, what: str, pair: str, error: type[ValueError] = ValueError):
    """The two columns of entries, a sequence of 2-element lists, tuples or 1-D arrays; raise
    error naming the first entry that is not one, as what, and its index."""
    for i, e in enumerate(entries):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                or isinstance(e, np.ndarray) and e.shape == (2,)):
            raise error(f"{what} {_echo(e)} at index {i} is not a {pair} pair")
    return [e[0] for e in entries], [e[1] for e in entries]


def _bulk_ints(text: str, pairs: bool = False):
    """Every token of text as an int64 array, or None when the token path must read it.

    Only text of ASCII digits, spaces, tabs and newlines, with no token over
    18 digits and, with pairs, 0 or 2 tokens on every line, is read here:
    str.split and str.splitlines cut it the same way, and int() of each
    token gives the array.  np.fromstring clamps overflow, reads signs and
    stops silently at other characters, hence the checks first.
    """
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    digit = b - np.uint8(48) < 10  # wraps below "0"
    if not (digit | (b == 32) | (b == 9) | (b == 10)).all():
        return None
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]  # each token's first and past-last byte
    if not len(starts):
        return np.zeros(0, dtype=np.int64)
    if (ends - starts).max() > 18:
        return None
    if pairs:
        per_line = np.bincount(np.searchsorted(np.flatnonzero(b == 10), starts))
        if not np.isin(per_line, (0, 2)).all():
            return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


def validate_tree(data) -> RootedTree:
    """Build a RootedTree from a dict.

    Accepted form: {"n": int, "root": int optional, "parent": {child: parent}}
    with string or int keys (JSON round-trips produce strings).  A list of
    (child, parent) pairs, or an integer array of them, is also accepted in
    place of the parent dict.
    Raises TreeError naming the defect: a parent that is neither a map nor
    pairs, label out of range, duplicate parent entry, multiple roots, root
    mismatch, or a cycle; past 10 roots or cycle vertices, it names the
    first 10 and their count.  Each check runs once, in that order: the
    entries, read in bulk and walked one at a time only to name a bad one,
    then the root count, the declared root, and cycles by pointer doubling.
    """
    if not isinstance(data, dict):
        raise TreeError(f"cannot interpret {type(data).__name__} as a rooted tree")

    if "n" not in data:
        raise TreeError("missing vertex count n")
    n = _check_positive(data["n"], "n", TreeError)

    raw = data.get("parent", {})
    if isinstance(raw, dict):
        kids, pars = list(raw), list(raw.values())
    elif isinstance(raw, np.ndarray) and raw.ndim == 2 and raw.shape[1] == 2 \
            and raw.dtype.kind in "iu":
        kids, pars = raw[:, 0], raw[:, 1]
    else:
        try:
            entries = tuple(raw)
        except TypeError:
            raise TreeError("parent must be a map or a list of (child, parent) pairs, "
                            f"got {_echo(raw)}") from None
        kids, pars = _pairs(entries, "parent entry", "(child, parent)", TreeError)

    return _rooted(n, *_tree(n, kids, pars, data.get("root")))


def _tree(n: int, kids, pars, declared) -> tuple[int, tuple[int, ...]]:
    """(root, parent tuple) of the (child, parent) columns, each check written once, in
    message order."""
    c, p = _entries(n, kids, pars)
    # every entry has a distinct child in 1..n, so n - len(c) vertices
    # lack a parent, and the first 10 of them lie among labels 1..len(c)+10
    roots = n - len(c)
    if not roots:
        raise TreeError("every vertex has a parent, so the parent map closes a cycle")
    if roots > 1:
        children = set(c)
        rootless = list(islice((v for v in range(1, n + 1) if v not in children), 10))
        if roots > 10:
            raise TreeError(f"multiple roots: {roots} vertices have no parent, "
                            f"the first 10 are {rootless}")
        raise TreeError(f"multiple roots: vertices {rootless} have no parent")
    root = n * (n + 1) // 2 - int(c.sum())  # the one label that is not a child

    if declared is not None:
        declared = _strict_int(declared, "declared root", TreeError)
        if declared != root:
            raise TreeError(f"declared root {declared} but vertex {root} has no parent")

    up = np.zeros(n + 1, dtype=np.int64)
    up[c] = p
    parent = tuple(up.tolist())
    # pointer doubling: after k rounds up[v] is v's ancestor 2^k steps up,
    # or the root, so every vertex reaches the root within n.bit_length()
    # rounds unless a cycle holds it
    up[root] = root
    for _ in range(n.bit_length()):
        up = up[up]
    stuck = np.flatnonzero(up[1:] != root)
    if len(stuck):  # the walk up from the smallest stuck vertex closes its cycle
        walk, v = {}, int(stuck[0]) + 1
        while v not in walk:
            walk[v] = len(walk)
            v = parent[v]
        cycle = list(walk)[walk[v]:]
        named = (f"vertices {cycle}" if len(cycle) <= 10
                 else f"{len(cycle)} vertices, the first 10 are {cycle[:10]}")
        raise TreeError(f"cycle detected through {named}")
    return root, parent


def _entries(n: int, kids, pars):
    """The entries as two int64 arrays when there are n - 1 and all are good.

    With n - 1 entries a good label fits in int64 and bincount needs only
    n + 1 bins, so range, self-parents and repeated children are checked in
    numpy.  On a failed check _entry_by_entry names the first bad entry; any
    other count is walked there too, and its good entries, as lists, then
    fail the root count.
    """
    if len(kids) == n - 1:
        try:
            c, p = (np.asarray(x if isinstance(x, np.ndarray) else _strict_ints(x, "label"),
                               dtype=np.int64) for x in (kids, pars))
        except (ValueError, OverflowError):
            pass
        else:
            if not ((c < 1) | (c > n) | (p < 1) | (p > n) | (c == p)).any() \
                    and np.bincount(c, minlength=n + 1).max() <= 1:
                return c, p
    return _entry_by_entry(n, kids, pars)


def _entry_by_entry(n: int, kids, pars) -> tuple[list[int], list[int]]:
    """The entries as ints, walked in order; raise TreeError naming the first bad one."""
    checked: dict[int, int] = {}
    for i, (c, p) in enumerate(zip(kids, pars)):
        what = f"label in parent entry at index {i}"
        c, p = _strict_int(c, what, TreeError), _strict_int(p, what, TreeError)
        if not (1 <= c <= n) or not (1 <= p <= n):
            raise TreeError(f"label out of range 1..{n} in parent entry ({c}, {p})")
        if c in checked:
            raise TreeError(f"duplicate parent entry for vertex {c}")
        if c == p:
            raise TreeError(f"vertex {c} listed as its own parent")
        checked[c] = p
    return list(checked), list(checked.values())


@dataclass(frozen=True)
class PositionMap:
    """Classification of every vertex under one game variant.

    p_child_count is the pruning scan's list, indexed by label with entry 0
    unused: p_child_count[v] counts the P-children of v, and v is P iff that
    count is at most b-1.  Labels follow the variant: P/N for normal,
    P0/P1/N for comply, Pk/N in general.
    """

    variant: Variant
    n: int
    p_child_count: list[int]

    def is_p(self, v: int) -> bool:
        return self.p_child_count[v] <= self.variant.b - 1

    def p_set(self) -> frozenset[int]:
        return frozenset(v for v in range(1, self.n + 1) if self.is_p(v))

    def n_set(self) -> frozenset[int]:
        return frozenset(v for v in range(1, self.n + 1) if not self.is_p(v))

    def p_subset(self, k: int) -> frozenset[int]:
        """P-vertices with exactly k P-children (the Pk class)."""
        pc = self.p_child_count
        return frozenset(v for v in range(1, self.n + 1) if pc[v] == k and self.is_p(v))

    def names(self) -> list[str]:
        """The naming table: a vertex with P-child count c is names()[min(c, b)].
        A count is below n, so past b = n there are n P-names, P0..P(n-1)."""
        b = self.variant.b
        return (["P"] if b == 1 else [f"P{c}" for c in range(min(b, self.n))]) + ["N"]

    def label(self, v: int) -> str:
        return self.names()[min(self.p_child_count[v], self.variant.b)]

    def label_list(self) -> list[str]:
        """label(v) for v = 1..n, in order."""
        names = self.names() + ["N"] * self.n  # a count is below n, so no min is needed
        return list(map(names.__getitem__, islice(self.p_child_count, 1, None)))

    def labels(self) -> dict[int, str]:
        return dict(enumerate(self.label_list(), start=1))

    def capacity_edges(self) -> int:
        """Largest edge set in which every vertex has degree <= b.

        Each N-vertex supports b edges, each P-vertex one per P-child.  At
        b=1 a vertex is N exactly when it has a P-child, so this is the
        number of N-vertices: the matching number, n minus the independence
        number.
        """
        b = self.variant.b
        return sum(b if c > b - 1 else c for c in islice(self.p_child_count, 1, None))


def _prune(n: int, parents, variant: Variant, by_slot: bool = False):
    """Delete n-1 vertices, smallest ready first, each into a slot; return (pcount, order).

    pcount holds the P-child counts by label, and order the deleted vertices
    by slot: of the n-1 slots, a P-vertex takes the leftmost open one and an
    N-vertex the rightmost, so order is the code's auxiliary sequence.
    parents[v] is v's parent, or parents[slot] with by_slot: a tree's parent
    tuple, whose 0s at entry 0 and the root count toward entry 0 only, or a
    code's symbols.  A vertex is ready once all its children are deleted, so
    its P-child count is final and it is P iff the count is below b.  Only
    the parent of a deleted vertex can become ready, and if it lies below
    the scan pointer it is the smallest ready vertex, so a forward pointer
    plus that one candidate replaces a heap.
    """
    b = _check_variant(variant).b
    pending, pcount, order = [0] * (n + 1), [0] * (n + 1), [0] * (n - 1)
    for p in parents:
        pending[p] += 1
    left, right = 0, n - 2
    ptr = v = pending.index(0, 1)
    for _ in range(n - 1):
        if pcount[v] < b:
            p = parents[left if by_slot else v]
            pcount[p] += 1
            order[left] = v
            left += 1
        else:
            p = parents[right if by_slot else v]
            order[right] = v
            right -= 1
        pending[p] -= 1
        if pending[p] == 0 and p < ptr:
            v = p
        else:
            ptr += 1
            while pending[ptr]:
                ptr += 1
            v = ptr
    return pcount, order


def classify(tree: RootedTree, variant: Variant = NORMAL) -> PositionMap:
    """Classify all vertices bottom-up by the codes' pruning scan, keeping its count list."""
    pcount, _ = _prune(tree.n, tree.parent, variant)
    return PositionMap(variant=variant, n=tree.n, p_child_count=pcount)


def matching_number(tree: RootedTree) -> int:
    """The capacity count at b=1, the number of N-vertices; equals the maximum matching size."""
    return classify(tree, NORMAL).capacity_edges()


def independence_number(tree: RootedTree) -> int:
    """n - matching number, which is |P| under b=1; equals the maximum independent set size."""
    return tree.n - matching_number(tree)


def max_capacity_edges(tree: RootedTree, b: int) -> int:
    """Largest edge set in which every vertex has degree <= b."""
    return classify(tree, Variant(b)).capacity_edges()


def _links(tree: RootedTree, b: int) -> list[int]:
    """The link rule: every vertex links down to its b smallest-labelled P-children.

    Returns up, indexed by label with entry 0 unused: up[c] is the parent
    that c links up to, and 0 means no link.  A P-vertex has fewer than b
    P-children, so it links to all of them.
    """
    pm = classify(tree, Variant(b))
    b, pcount = pm.variant.b, pm.p_child_count
    taken, up = [0] * (tree.n + 1), [0] * (tree.n + 1)
    for c, v in enumerate(tree.parent):  # ascending, so each vertex takes its smallest first
        if v and pcount[c] < b and taken[v] < b:
            taken[v] += 1
            up[c] = v
    return up


def strategic_set(tree: RootedTree, b: int) -> tuple[tuple[int, int], ...]:
    """An optimal degree-<=b edge set: the links, as sorted (parent, child) pairs.

    An N-vertex links down to b P-children and never up, so its degree is b;
    a P-vertex links up once at most and down b-1 times at most.  There are
    max_capacity_edges(tree, b) pairs.  At b=1 each N-vertex is paired with
    its smallest-labelled P-child, which is paired at most once, and a
    P-vertex has no P-child, so these n - |P| edges form a maximum matching.
    """
    return tuple(sorted((v, c) for c, v in enumerate(_links(tree, b)) if v))


def path_cover_decomposition(tree: RootedTree) -> list[list[int]]:
    """Partition the vertices into a minimum number of paths.

    The b=2 strategic set has maximum degree 2 and no cycles, so its
    components are paths; uncovered vertices become singletons.  The number
    of paths is n - max_capacity_edges(tree, 2), which is minimum possible.
    Paths are returned oriented from their smaller-labelled endpoint and
    sorted by smallest contained vertex.

    Each path hangs from its top, the one vertex without an up link, and
    below the top every vertex has one down link at most.
    """
    n, up = tree.n, _links(tree, 2)
    first, second = [0] * (n + 1), [0] * (n + 1)
    for c, v in enumerate(up):  # ascending, so first[v] < second[v]
        if v:
            if first[v]:
                second[v] = c
            else:
                first[v] = c

    paths = []
    for top in range(1, n + 1):
        if up[top]:
            continue
        halves = [[], []]
        for half, c in zip(halves, (first[top], second[top])):
            while c:
                half.append(c)
                c = first[c]
        path = halves[0][::-1] + [top] + halves[1]
        if path[0] > path[-1]:
            path.reverse()
        paths.append(path)
    paths.sort(key=min)
    return paths


# --- brute-force oracles ----------------------------------------------------
#
# Exponential checks used to validate the game-theoretic formulas.  Subsets
# are the integers 0..2^k-1 read as bit masks, all tested at once in numpy;
# a table of bit counts gives each subset's size and each vertex's degree.

_BF_INDEP_LIMIT = 20
_BF_EDGES_LIMIT = 16


@functools.lru_cache(maxsize=_BF_INDEP_LIMIT + 1)  # k <= 20: read-only tables, 2 MB in all
def _popcounts(k: int) -> np.ndarray:
    """Bit counts of 0..2^k-1; i + 2^j has one bit more than i < 2^j."""
    pc = np.zeros(1 << k, dtype=np.uint8)
    for j in range(k):
        pc[1 << j:2 << j] = pc[:1 << j] + 1
    pc.flags.writeable = False
    return pc


def bf_max_independent(tree: RootedTree) -> int:
    """Exhaustive maximum independent set size.  Guarded at n <= 20."""
    n = tree.n
    if n > _BF_INDEP_LIMIT:
        raise ValueError(f"brute force capped at n <= {_BF_INDEP_LIMIT}, got {n}")
    subsets = np.arange(1 << n)
    ok = np.ones(1 << n, dtype=bool)
    for c, p in tree.edges():
        pair = (1 << (c - 1)) | (1 << (p - 1))
        ok &= (subsets & pair) != pair
    return int(_popcounts(n)[ok].max())


def bf_max_capacity_edges(tree: RootedTree, b: int) -> int:
    """Exhaustive largest degree-<=b edge subset.  Guarded at n <= 16."""
    n = tree.n
    if n > _BF_EDGES_LIMIT:
        raise ValueError(f"brute force capped at n <= {_BF_EDGES_LIMIT}, got {n}")
    b = _check_positive(b, "capacity")
    incident = [0] * (n + 1)  # bit i set when edge i meets the vertex
    for i, (c, p) in enumerate(tree.edges()):
        incident[c] |= 1 << i
        incident[p] |= 1 << i
    m = n - 1
    pc = _popcounts(m)
    subsets = np.arange(1 << m)
    ok = np.ones(1 << m, dtype=bool)
    for mask in incident:
        if pc[mask] > b:
            ok &= pc[subsets & mask] <= b
    return int(pc[ok].max())
