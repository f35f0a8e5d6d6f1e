"""Rooted labelled trees and the slither-game position classification.

Trees live on vertex labels 1..n with a designated root.  The slither game
moves a token from the root toward the leaves, one edge per move, and the
player who cannot move loses; in the capacity-b variant each vertex may be
entered up to b times before it is used up.  All variants collapse to one
classification rule on the rooted tree:

    a vertex is a P-position iff at most b-1 of its children are P-positions

with b=1 the plain game ("normal"), b=2 the constrained game ("comply"),
and b>=3 the general capacity game.  Leaves are always P.  The P-set under
b=1 is a maximum independent set, so |P| is the independence number and
n-|P| the matching number; under b=2 the induced strategic edge set
decomposes the tree into a minimum path cover.

The rule is evaluated in one place, the pruning scan _prune behind classify
and the codes' encode and decode: it deletes smallest-labelled leaves one
by one, and classifies each vertex as it is deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TreeError(ValueError):
    """Raised when input fails to describe a rooted tree on 1..n."""


@dataclass(frozen=True)
class Variant:
    """Game variant, determined entirely by the capacity b >= 1."""

    b: int

    def __post_init__(self):
        if not isinstance(self.b, int) or isinstance(self.b, bool) or self.b < 1:
            raise ValueError(f"capacity must be a positive integer, got {self.b!r}")

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
            raise ValueError(f"unknown variant {text!r} (expected normal, comply, or b=K)")
        try:
            b = int(body)
        except ValueError:
            raise ValueError(f"bad capacity in variant {text!r}") from None
        return cls(b)

    def __str__(self):
        return self.name


NORMAL = Variant(1)
COMPLY = Variant(2)


def capacity(b: int) -> Variant:
    return Variant(b)


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree on labels 1..n given by a child -> parent map.

    The parent map has exactly one entry per non-root vertex.  Instances are
    assumed valid; use validate_tree to build one from untrusted input.
    """

    n: int
    root: int
    parent: dict[int, int] = field(compare=True)

    def children_lists(self) -> list[list[int]]:
        """Adjacency indexed by label; entry 0 is unused padding."""
        ch: list[list[int]] = [[] for _ in range(self.n + 1)]
        for c, p in self.parent.items():
            ch[p].append(c)
        return ch

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs, sorted by child."""
        return sorted(self.parent.items())

    def key(self):
        # hashable identity, handy for set-based sweeps
        return (self.n, self.root, tuple(sorted(self.parent.items())))


def _strict_int(value, what: str = "value") -> int:
    """int(value) for ints, numpy integers and integral strings only.

    Outside input goes through here instead of int(), which truncates 1.9
    to 1 and reads True as 1.  Raises ValueError for anything else.
    """
    # exact int and str first: this runs once per label or symbol
    if type(value) is int:
        return value
    if type(value) is str or (isinstance(value, (int, np.integer, str))
                              and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def validate_tree(data) -> RootedTree:
    """Build a RootedTree from a dict, a (n, root, parent) triple, or pairs.

    Accepted dict form: {"n": int, "root": int optional, "parent": {child: parent}}
    with string or int keys (JSON round-trips produce strings).  A list of
    (child, parent) pairs is also accepted in place of the parent dict.
    Raises TreeError naming the defect: label out of range, duplicate parent
    entry, multiple roots, root mismatch, or a cycle.  Valid input is checked
    in bulk; the entries are walked one at a time only when a check fails, so
    the message names the same first defect either way.
    """
    if isinstance(data, RootedTree):
        data = {"n": data.n, "root": data.root, "parent": data.parent}
    if isinstance(data, tuple) and len(data) == 3:
        data = {"n": data[0], "root": data[1], "parent": data[2]}
    if not isinstance(data, dict):
        raise TreeError(f"cannot interpret {type(data).__name__} as a rooted tree")

    try:
        n = _strict_int(data["n"])
    except (KeyError, ValueError):
        raise TreeError("missing or non-integer vertex count n") from None
    if n < 1:
        raise TreeError(f"n must be >= 1, got {n}")

    raw = data.get("parent", {})
    if isinstance(raw, dict):
        kids, pars = list(raw), list(raw.values())
    else:
        kids, pars = [], []
        for c, p in raw:
            kids.append(c)
            pars.append(p)
    declared = data.get("root")
    tree = _bulk_tree(n, kids, pars, declared)
    return tree if tree is not None else _tree_by_entry(n, zip(kids, pars), declared)


def _labels(values: list) -> list:
    """The labels as ints, converted in one step; ValueError as _strict_int gives."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return values
    if kinds == {str}:  # int() on a str accepts exactly what _strict_int does
        return list(map(int, values))
    return list(map(_strict_int, values))


def _bulk_tree(n: int, kids: list, pars: list, declared) -> RootedTree | None:
    """The tree when every check passes, None when any fails.

    Range and duplicates are checked in numpy; the root is the one label
    that is not a child, and the walk for cycles, self-parents included, is
    pointer doubling: after k rounds up[v] is v's ancestor 2^k steps up, or
    the root, so every vertex reaches the root within n.bit_length() rounds
    unless a cycle holds it.
    """
    if not kids or len(kids) != n - 1:
        return None
    try:
        kids, pars = _labels(kids), _labels(pars)
        if declared is not None:
            declared = _strict_int(declared)
        c, p = np.array(kids, dtype=np.int64), np.array(pars, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if min(c.min(), p.min()) < 1 or max(c.max(), p.max()) > n:
        return None
    seen = np.bincount(c, minlength=n + 1)
    if seen.max() > 1:
        return None
    root = int(seen[1:].argmin()) + 1
    if declared is not None and declared != root:
        return None
    up = np.empty(n + 1, dtype=np.int64)
    up[0], up[root], up[c] = 0, root, p
    for _ in range(n.bit_length()):
        up = up[up]
    if (up[1:] != root).any():
        return None
    return RootedTree(n=n, root=root, parent=dict(zip(kids, pars)))


def _tree_by_entry(n: int, pairs, declared) -> RootedTree:
    """Check the (child, parent) pairs one at a time; raise naming the first defect."""
    parent: dict[int, int] = {}
    for c, p in pairs:
        try:
            c, p = _strict_int(c), _strict_int(p)
        except ValueError:
            raise TreeError(f"non-integer labels in parent entry ({c!r}, {p!r})") from None
        if not (1 <= c <= n) or not (1 <= p <= n):
            raise TreeError(f"label out of range 1..{n} in parent entry ({c}, {p})")
        if c in parent:
            raise TreeError(f"duplicate parent entry for vertex {c}")
        if c == p:
            raise TreeError(f"vertex {c} listed as its own parent")
        parent[c] = p

    rootless = [v for v in range(1, n + 1) if v not in parent]
    if not rootless:
        raise TreeError("every vertex has a parent, so the parent map closes a cycle")
    if len(rootless) > 1:
        raise TreeError(f"multiple roots: vertices {rootless} have no parent")
    root = rootless[0]

    if declared is not None:
        try:
            declared = _strict_int(declared)
        except ValueError:
            raise TreeError(f"non-integer declared root {declared!r}") from None
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
            raise TreeError(f"cycle detected through vertices {cyc}")
        for w in walk:
            state[w] = 2

    return RootedTree(n=n, root=root, parent=parent)


@dataclass(frozen=True)
class PositionMap:
    """Classification of every vertex under one game variant.

    p_child_count[v] counts the P-children of v; v is P iff that count is
    at most b-1.  Labels follow the variant: P/N for normal, P0/P1/N for
    comply, Pk/N in general.
    """

    variant: Variant
    n: int
    p_child_count: dict[int, int]

    def is_p(self, v: int) -> bool:
        return self.p_child_count[v] <= self.variant.b - 1

    def p_set(self) -> frozenset[int]:
        return frozenset(v for v in self.p_child_count if self.is_p(v))

    def n_set(self) -> frozenset[int]:
        return frozenset(v for v in self.p_child_count if not self.is_p(v))

    def p_subset(self, k: int) -> frozenset[int]:
        """P-vertices with exactly k P-children (the Pk class)."""
        return frozenset(
            v for v, c in self.p_child_count.items() if c == k and self.is_p(v)
        )

    def label(self, v: int) -> str:
        c = self.p_child_count[v]
        if c > self.variant.b - 1:
            return "N"
        if self.variant.b == 1:
            return "P"
        return f"P{c}"

    def labels(self) -> dict[int, str]:
        return {v: self.label(v) for v in sorted(self.p_child_count)}

    def capacity_edges(self) -> int:
        """Largest edge set in which every vertex has degree <= b.

        Each N-vertex supports b edges, each P-vertex one per P-child.  At
        b=1 a vertex is N exactly when it has a P-child, so this is the
        number of N-vertices: the matching number, n minus the independence
        number.
        """
        b = self.variant.b
        return sum(b if c > b - 1 else c for c in self.p_child_count.values())


def _prune(n: int, parents, b: int, place) -> list[int]:
    """Delete n-1 vertices, smallest ready first; return P-child counts by label.

    `parents` lists every non-root vertex's parent, in any order; a vertex
    is ready once all its children are deleted, so its P-child count is
    final and it is P iff the count is below b.  place(v, is_p) records the
    deletion and returns v's parent.  Only that parent can become ready, and
    if it lies below the scan pointer it is the smallest ready vertex, so a
    forward pointer plus that one candidate replaces a heap.  A parent map
    with a cycle raises TreeError.
    """
    pending, pcount = [0] * (n + 1), [0] * (n + 1)
    try:
        for p in parents:
            pending[p] += 1
        ptr = v = pending.index(0, 1)
        for _ in range(n - 1):
            is_p = pcount[v] < b
            p = place(v, is_p)
            if is_p:
                pcount[p] += 1
            pending[p] -= 1
            if pending[p] == 0 and p < ptr:
                v = p
            else:
                ptr += 1
                while pending[ptr]:
                    ptr += 1
                v = ptr
    except (LookupError, ValueError):  # the scan deleted the root, overran or never began
        raise TreeError("pruning did not reach every vertex") from None
    return pcount


def classify(tree: RootedTree, variant: Variant = NORMAL) -> PositionMap:
    """Classify all vertices bottom-up, by the codes' pruning scan (no recursion)."""
    parent, n = tree.parent, tree.n
    pcount = _prune(n, parent.values(), variant.b, lambda v, is_p: parent[v])
    return PositionMap(variant=variant, n=n,
                       p_child_count=dict(zip(range(1, n + 1), pcount[1:])))


def independence_number(tree: RootedTree) -> int:
    """|P| under the normal variant; equals the maximum independent set size."""
    return len(classify(tree, NORMAL).p_set())


def matching_number(tree: RootedTree) -> int:
    """n - independence number; equals the maximum matching size."""
    return tree.n - independence_number(tree)


@dataclass(frozen=True)
class MatchingCertificate:
    """Explicit matching witnessing the matching number."""

    edges: tuple[tuple[int, int], ...]  # (n_vertex, p_child) pairs

    def size(self) -> int:
        return len(self.edges)


def matching_certificate(tree: RootedTree) -> MatchingCertificate:
    """Pair each N-vertex with its smallest-labelled P-child.

    Every N-vertex has a P-child by definition, and a P-child has a P or N
    parent but is itself paired at most once, so the edges are disjoint and
    there are exactly n - |P| of them.  This is the b=1 strategic set: under
    b=1 a P-vertex has no P-child, so only N-vertices contribute an edge.
    """
    return MatchingCertificate(edges=strategic_set(tree, 1).edges)


def max_capacity_edges(tree: RootedTree, b: int) -> int:
    """Largest edge set in which every vertex has degree <= b."""
    return classify(tree, Variant(b)).capacity_edges()


@dataclass(frozen=True)
class StrategicSet:
    """Edge set realizing max_capacity_edges, as (parent, child) pairs."""

    b: int
    edges: tuple[tuple[int, int], ...]

    def size(self) -> int:
        return len(self.edges)


def strategic_set(tree: RootedTree, b: int) -> StrategicSet:
    """Concrete optimal edge set for the degree-<=b problem.

    Each N-vertex takes edges to its b smallest-labelled P-children, each
    P-vertex an edge to every P-child (it has fewer than b).  N-vertices
    never receive an edge from above, giving them degree exactly b;
    P-vertices get at most one from above and b-1 at most from below.
    Edges are sorted by parent, then child.
    """
    if b < 1:
        raise ValueError(f"capacity must be >= 1, got {b}")
    n, root, parent = tree.n, tree.root, tree.parent
    pcount = classify(tree, Variant(b)).p_child_count
    pkids: list[list[int]] = [[] for _ in range(n + 1)]
    for c in range(1, n + 1):  # ascending, so each list comes out sorted
        if c != root and pcount[c] < b:
            pkids[parent[c]].append(c)
    edges = tuple((v, c) for v in range(1, n + 1) for c in pkids[v][:b])
    return StrategicSet(b=b, edges=edges)


def path_cover_decomposition(tree: RootedTree) -> list[list[int]]:
    """Partition the vertices into a minimum number of paths.

    The b=2 strategic set has maximum degree 2 and no cycles, so its
    components are paths; uncovered vertices become singletons.  The number
    of paths is n - max_capacity_edges(tree, 2), which is minimum possible.
    Paths are returned oriented from their smaller-labelled endpoint and
    sorted by smallest contained vertex.

    Each path hangs from its top: an N-vertex with two down links, or a
    P-vertex with no up link; below it every vertex has one down link at most.
    The links are the strategic set's edges, read straight off the P-child
    counts: every vertex links down to its two smallest P-children.
    """
    n, root, parent = tree.n, tree.root, tree.parent
    pcount = classify(tree, COMPLY).p_child_count
    up, first, second = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for c in range(1, n + 1):  # ascending, so first[v] < second[v]
        if c != root and pcount[c] < 2:
            v = parent[c]
            if not first[v]:
                first[v], up[c] = c, v
            elif not second[v]:
                second[v], up[c] = c, v

    seen = [False] * (n + 1)
    paths = []
    for v in range(1, n + 1):
        if seen[v]:
            continue
        # v is the smallest vertex of its path, so paths come out by minimum
        top = v
        while up[top]:
            top = up[top]
        halves = [[], []]
        for half, c in zip(halves, (first[top], second[top])):
            while c:
                half.append(c)
                c = first[c]
        path = halves[0][::-1] + [top] + halves[1]
        if path[0] > path[-1]:
            path.reverse()
        for w in path:
            seen[w] = True
        paths.append(path)
    return paths


# --- brute-force oracles ----------------------------------------------------
#
# Exponential checks used to validate the game-theoretic formulas.  Subsets
# are the integers 0..2^k-1 read as bit masks, all tested at once in numpy;
# a table of bit counts gives each subset's size and each vertex's degree.

_BF_INDEP_LIMIT = 20
_BF_EDGES_LIMIT = 16


def _popcounts(k: int) -> np.ndarray:
    """Bit counts of 0..2^k-1; i + 2^j has one bit more than i < 2^j."""
    pc = np.zeros(1 << k, dtype=np.uint8)
    for j in range(k):
        pc[1 << j:2 << j] = pc[:1 << j] + 1
    return pc


def bf_max_independent(tree: RootedTree) -> int:
    """Exhaustive maximum independent set size.  Guarded at n <= 20."""
    n = tree.n
    if n > _BF_INDEP_LIMIT:
        raise ValueError(f"brute force capped at n <= {_BF_INDEP_LIMIT}, got {n}")
    subsets = np.arange(1 << n)
    ok = np.ones(1 << n, dtype=bool)
    for c, p in tree.parent.items():
        pair = (1 << (c - 1)) | (1 << (p - 1))
        ok &= (subsets & pair) != pair
    return int(_popcounts(n)[ok].max())


def bf_max_capacity_edges(tree: RootedTree, b: int) -> int:
    """Exhaustive largest degree-<=b edge subset.  Guarded at n <= 16."""
    n = tree.n
    if n > _BF_EDGES_LIMIT:
        raise ValueError(f"brute force capped at n <= {_BF_EDGES_LIMIT}, got {n}")
    if b < 1:
        raise ValueError(f"capacity must be >= 1, got {b}")
    incident = [0] * (n + 1)  # bit i set when edge i meets the vertex
    for i, (c, p) in enumerate(tree.parent.items()):
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
