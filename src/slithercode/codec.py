"""Slither codes: bijections between rooted trees and integer sequences.

A slither code of a rooted tree on 1..n is a sequence of n-1 symbols from
1..n, one per non-root vertex, built by repeatedly deleting the
smallest-labelled leaf of the shrinking tree and recording its parent.
The recording position depends on the deleted vertex's game class in the
ORIGINAL tree: parents of P-vertices fill the leftmost open slot, parents
of N-vertices the rightmost.  Under capacity b = n every vertex is P, so
the classical Prufer code is the code of the tree rooted at n less its
last symbol, n.  Every sequence in [n]^(n-1) arises from exactly one tree,
for every variant: uniform random sequences are uniform random trees.

Encode and decode are the pruning scan trees._prune, which classify shares:
a vertex's class is known once its whole subtree is deleted (or restored),
which happens before its own parent is recorded (or read).  The scan places
each vertex in its slot and returns the slot order, the auxiliary sequence.
Encoding gathers the tree's parents in that order, and decoding, whose scan
reads each parent from its slot, scatters the symbols into a parent tuple,
with the root the one label left at 0.  Decoding never looks at the
variant's name, only its capacity b.

SlitherCode checks every code built from outside input, once, as RootedTree
checks every tree.  The library builds its own unchecked: _code builds
encode's code, the parents of a checked tree, and counting's Prufer codes;
trees._rooted builds decode's tree and the Prufer walk's, trees by construction.

The reading rules extract tree parameters from a code without decoding:
independence and matching numbers, the root and full P-set, and the
degree-constrained edge counts for b >= 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .trees import (COMPLY, NORMAL, RootedTree, Variant, _check_positive, _check_variant, _pairs,
                    _prune, _rooted, _sequence, _strict_int, _strict_ints)


class CodeError(ValueError):
    """Raised for malformed code input (bad length, symbol out of range)."""


@dataclass(frozen=True)
class SlitherCode:
    """A length n-1 symbol sequence tagged with its variant."""

    n: int
    variant: Variant
    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_positive(self.n, "n", CodeError))
        _check_variant(self.variant, CodeError)
        sym = _sequence(self.symbols, "symbols", CodeError)
        sym = tuple(_strict_ints(sym, "symbol", CodeError))
        object.__setattr__(self, "symbols", sym)
        if len(sym) != self.n - 1:
            raise CodeError(f"expected {self.n - 1} symbols for n={self.n}, got {len(sym)}")
        if sym and (min(sym) < 1 or max(sym) > self.n):
            s = next(s for s in sym if not 1 <= s <= self.n)
            raise CodeError(f"symbol {s} out of range 1..{self.n}")


def _code(n: int, variant: Variant, symbols: tuple[int, ...]) -> SlitherCode:
    """The SlitherCode as given, without SlitherCode's O(n) checks, for ints known to be in 1..n."""
    code = object.__new__(SlitherCode)
    code.__dict__.update(n=n, variant=variant, symbols=symbols)  # frozen, so not by setattr
    return code


def slither_encode(tree: RootedTree, variant: Variant = NORMAL):
    """Encode a rooted tree.  Returns (code, auxiliary).

    The auxiliary sequence is the scan's slot order: the deleted vertices
    rearranged to the slots their parents landed in, so auxiliary[i] is the
    child whose parent is code.symbols[i].  It is always a permutation of
    the non-root vertices.
    """
    n, parent = tree.n, tree.parent
    _, order = _prune(n, parent, variant)  # checks the variant
    # a RootedTree is checked where it is built, so every deleted vertex's parent is an int in 1..n
    return _code(n, variant, tuple(map(parent.__getitem__, order))), tuple(order)


def slither_decode(code: SlitherCode) -> RootedTree:
    """Invert slither_encode.  Total on [n]^(n-1) for every variant.

    The occurrence count of v in the code is its out-degree, so a vertex is
    ready to be deleted (in replay order) once all its children have been
    assigned.  Ready vertices are consumed smallest-first, and the scan
    reads each one's parent from the slot it places the vertex in, which
    follows from the restored subtree's classification.
    """
    n, sym = code.n, code.symbols
    _, order = _prune(n, sym, code.variant, by_slot=True)
    parent = [0] * (n + 1)
    for v, p in zip(order, sym):
        parent[v] = p
    # the scan deletes n - 1 distinct labels, so the root is the one left at 0
    return _rooted(n, parent.index(0, 1), tuple(parent))


def decode_sequence(symbols, n: int | None = None, variant: Variant = NORMAL) -> RootedTree:
    """Decode a bare symbol sequence; n defaults to len(symbols) + 1."""
    sym = _sequence(symbols, "symbols", CodeError)
    if n is None:
        n = len(sym) + 1
    return slither_decode(SlitherCode(n=n, variant=variant, symbols=sym))


# --- reading rules ----------------------------------------------------------


_EXHAUSTED = "sequence exhausted before the distinct-count threshold"


@functools.lru_cache(maxsize=1)
def _read_constants(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positions 0..m-1 and cut-offs n-1-j for j in 0..n: prefix_alpha's array
    read, the same for every deal of m cards at one n."""
    dtype = np.int32 if 2 * m < 2**31 else np.int64  # n <= 2m + 1 here
    positions, cuts = np.arange(m, dtype=dtype), np.arange(n - 1, -2, -1, dtype=dtype)
    positions.flags.writeable = cuts.flags.writeable = False
    return positions, cuts


def prefix_alpha(symbols, n: int) -> int:
    """Smallest a >= 1 with distinct(symbols[:a]) >= n - a; 1 if n is 1, and n < 1 raises.

    This is both the independence-number read on a normal code and the
    stopping rule of the family card games, which share this implementation
    on purpose.  Symbols may be any hashables; only distinctness matters.
    Raises if the sequence ends before the threshold is met.

    A long integer array with values in 0..n is read off its first
    occurrences.  Let f_1 < f_2 < ... be the 0-based positions where a new
    value appears; distinct(a) >= n - a holds iff f_(n-a) < a, and f_k + k
    strictly increases, so the answer is n - #{k : f_k + k < n}.  A scatter
    keeps each value's first position (m, the length, where it is absent),
    and one sort lines them up.  Absent values sort last, so an answer past
    m counts one of them: the sequence ran out.  As distinct(a) <= a, no read
    stops when 2m < n, which is refused before anything is allocated.
    """
    n = _strict_int(n, "n")  # the size rule, so 150.0 and True are refused on either path
    if n <= 1:
        _check_positive(n, "n")
        return 1
    if (isinstance(symbols, np.ndarray) and symbols.shape[0] >= 64
            and symbols.dtype.kind in "iu" and 0 <= symbols.min() and symbols.max() <= n):
        m = symbols.shape[0]
        if 2 * m < n:
            raise ValueError(_EXHAUSTED)
        positions, cuts = _read_constants(m, n)
        first = np.full(n + 1, m, dtype=positions.dtype)
        np.minimum.at(first, symbols, positions)
        a = n - int(np.count_nonzero(np.sort(first) < cuts))
        if a > m:
            raise ValueError(_EXHAUSTED)
        return a
    seen = set()
    for a, s in enumerate(symbols, start=1):
        seen.add(s)
        if len(seen) >= n - a:
            return a
    raise ValueError(_EXHAUSTED)


def _require_variant(code: SlitherCode, want: Variant, rule: str):
    if code.variant != want:
        raise CodeError(f"{rule} reads {want.name} codes, got a {code.variant.name} code")


def read_alpha(code: SlitherCode) -> int:
    """Independence number of the decoded tree, from a normal code."""
    _require_variant(code, NORMAL, "read_alpha")
    return prefix_alpha(code.symbols, code.n)


@dataclass(frozen=True)
class ReadResult:
    """Root, its class, and the full P-set read off a normal code."""

    n: int
    alpha: int
    root: int
    root_class: str
    p_set: frozenset[int]


def read_root_and_pset(code: SlitherCode) -> ReadResult:
    """Recover root, root class, and P-set from a normal code, no decode.

    With a = alpha, prefix(a) either hits distinct = n - a exactly (root is
    N, the P-set is everything absent from prefix(a)) or overshoots by one
    because symbol a was new (root is P, namely that symbol, and the P-set
    is everything absent from prefix(a-1)).  In the exact case the root is
    s_{a+1} when that symbol already occurred in prefix(a), else s_a; at
    a = n-1 it is s_a.
    """
    _require_variant(code, NORMAL, "read_root_and_pset")
    n, sym = code.n, code.symbols
    if n == 1:
        return ReadResult(n=1, alpha=1, root=1, root_class="P", p_set=frozenset({1}))

    a = prefix_alpha(sym, n)
    before = set(sym[:a - 1])
    overshoot = len(before) == n - a and sym[a - 1] not in before
    if overshoot:
        root = sym[a - 1]
        p_set = frozenset(range(1, n + 1)) - before
        return ReadResult(n=n, alpha=a, root=root, root_class="P", p_set=p_set)

    prefix = before | {sym[a - 1]}
    if a == n - 1:
        root = sym[a - 1]
    else:
        root = sym[a] if sym[a] in prefix else sym[a - 1]
    p_set = frozenset(range(1, n + 1)) - prefix
    return ReadResult(n=n, alpha=a, root=root, root_class="N", p_set=p_set)


def _saturation_read(symbols, n: int, b: int):
    """Smallest beta with #{symbols occurring >= b times in prefix} >= n-1-beta.

    Returns (beta, sum of min(count, b) over the prefix).  Terminates by
    beta = n-1 since the threshold then drops to zero.  Symbols lie in 1..n,
    as SlitherCode checks them or _code's callers build them, so the counts
    are a list indexed by symbol.
    """
    counts = [0] * (n + 1)
    saturated = capped_total = beta = 0
    while saturated < n - 1 - beta:
        try:
            s = symbols[beta]
        except IndexError:
            raise ValueError("sequence exhausted before the saturation threshold") from None
        c = counts[s] = counts[s] + 1
        if c == b:
            saturated += 1
        if c <= b:
            capped_total += 1
        beta += 1
    return beta, capped_total


def read_matching_via_beta(code: SlitherCode):
    """(beta, matching number) from a normal code.

    beta is the smallest prefix length whose distinct count reaches
    n - 1 - beta; the distinct count itself is the matching number, which
    always equals n - read_alpha(code).
    """
    _require_variant(code, NORMAL, "read_matching_via_beta")
    return _saturation_read(code.symbols, code.n, 1)


def read_path_edges(code: SlitherCode):
    """(beta, edge count of an optimal path cover) from a comply code.

    Counts symbols occurring at least twice; n minus the edge count is the
    path cover number of the decoded tree.
    """
    _require_variant(code, COMPLY, "read_path_edges")
    return _saturation_read(code.symbols, code.n, 2)


def read_capacity_edges(code: SlitherCode, b: int):
    """(beta, max size of a degree-<=b edge set) from a capacity-b code."""
    _require_variant(code, Variant(b), "read_capacity_edges")
    return _saturation_read(code.symbols, code.n, code.variant.b)


# --- classical Prufer, for unrooted uniform sampling ------------------------


def prufer_encode(n: int, edges) -> tuple[int, ...]:
    """Classical Prufer sequence of a labelled unrooted tree, length n-2."""
    n = _check_positive(n, "n", CodeError)
    us, vs = _pairs(_sequence(edges, "edges", CodeError), "edge", "(u, v)", CodeError)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (u, v) in enumerate(zip(us, vs)):
        if type(u) is not int or type(v) is not int:  # the index is worded only here
            what = f"end of edge at index {i}"
            u, v = _strict_int(u, what, CodeError), _strict_int(v, what, CodeError)
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise CodeError(f"bad edge ({u}, {v}) for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    if len(us) != n - 1:
        raise CodeError(f"expected {n - 1} edges, got {len(us)}")
    parent, stack = [0] * (n + 1), [n]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w != n and not parent[w]:
                parent[w] = u
                stack.append(w)
    if 0 in parent[1:n]:
        raise CodeError(f"the {n - 1} edges do not connect all {n} vertices")
    # n - 1 edges that connect n vertices are a tree
    return slither_encode(_rooted(n, n, tuple(parent)), Variant(n))[0].symbols[:-1]


def prufer_decode(symbols) -> list[tuple[int, int]]:
    """Invert prufer_encode; n is inferred as len(symbols) + 2.

    Returns the edge list sorted with each edge as (min, max).
    """
    sym = _sequence(symbols, "symbols", CodeError)
    n = len(sym) + 2
    tree = slither_decode(SlitherCode(n=n, variant=Variant(n), symbols=sym + (n,)))
    return sorted((min(c, p), max(c, p)) for c, p in tree.edges())
