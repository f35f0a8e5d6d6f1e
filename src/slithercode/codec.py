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
which happens before its own parent is recorded (or read).  Decoding never
looks at the variant's name, only its capacity b.

The reading rules extract tree parameters from a code without decoding:
independence and matching numbers, the root and full P-set, and the
degree-constrained edge counts for b >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import COMPLY, NORMAL, RootedTree, Variant, _prune, _strict_int


class CodeError(ValueError):
    """Raised for malformed code input (bad length, symbol out of range)."""


@dataclass(frozen=True)
class SlitherCode:
    """A length n-1 symbol sequence tagged with its variant."""

    n: int
    variant: Variant
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise CodeError(f"n must be >= 1, got {self.n}")
        # checked in bulk, and symbol by symbol only to convert or to name a defect
        sym = tuple(self.symbols)
        if set(map(type, sym)) - {int}:
            try:
                sym = tuple(map(_strict_int, sym))
            except ValueError:
                raise _symbol_error(self.symbols) from None
        object.__setattr__(self, "symbols", sym)
        if len(sym) != self.n - 1:
            raise CodeError(f"expected {self.n - 1} symbols for n={self.n}, got {len(sym)}")
        if sym and (min(sym) < 1 or max(sym) > self.n):
            s = next(s for s in sym if not 1 <= s <= self.n)
            raise CodeError(f"symbol {s} out of range 1..{self.n}")


def _symbol_error(symbols) -> CodeError:
    """Name the first symbol that is not an integer, and its index."""
    try:
        for i, s in enumerate(symbols):
            _strict_int(s)
    except ValueError:
        return CodeError(f"non-integer symbol {s!r} at index {i}")
    return CodeError(f"symbols must be a sequence of integers, got {type(symbols).__name__}")


def slither_encode(tree: RootedTree, variant: Variant = NORMAL):
    """Encode a rooted tree.  Returns (code, auxiliary).

    The auxiliary sequence lists the deleted vertices in deletion order
    rearranged to the slots their parents landed in, so auxiliary[i] is the
    child whose parent is code.symbols[i].  It is always a permutation of
    the non-root vertices.
    """
    n, parent = tree.n, tree.parent
    code, aux = [0] * (n - 1), [0] * (n - 1)
    left, right = 0, n - 2

    def place(v, is_p):
        nonlocal left, right
        p = parent[v]
        if is_p:
            code[left], aux[left] = p, v
            left += 1
        else:
            code[right], aux[right] = p, v
            right -= 1
        return p

    _prune(n, parent.values(), variant.b, place)
    if left != right + 1:
        raise AssertionError("slot pointers did not meet")
    return SlitherCode(n=n, variant=variant, symbols=tuple(code)), tuple(aux)


def slither_decode(code: SlitherCode) -> RootedTree:
    """Invert slither_encode.  Total on [n]^(n-1) for every variant.

    The occurrence count of v in the code is its out-degree, so a vertex is
    ready to be deleted (in replay order) once all its children have been
    assigned.  Ready vertices are consumed smallest-first; whether the
    parent is read from the left or the right end follows from the restored
    subtree's classification.
    """
    n, sym = code.n, code.symbols
    parent: dict[int, int] = {}
    left, right = 0, n - 2

    def place(v, is_p):
        nonlocal left, right
        if is_p:
            p = sym[left]
            left += 1
        else:
            p = sym[right]
            right -= 1
        parent[v] = p
        return p

    _prune(n, sym, code.variant.b, place)
    roots = [v for v in range(1, n + 1) if v not in parent]
    if len(roots) != 1:
        raise AssertionError("decode left more than one parentless vertex")
    return RootedTree(n=n, root=roots[0], parent=parent)


def decode_sequence(symbols, n: int | None = None, variant: Variant = NORMAL) -> RootedTree:
    """Decode a bare symbol sequence; n defaults to len(symbols) + 1."""
    sym = tuple(symbols)
    if n is None:
        n = len(sym) + 1
    return slither_decode(SlitherCode(n=n, variant=variant, symbols=sym))


# --- reading rules ----------------------------------------------------------


def prefix_alpha(symbols, n: int) -> int:
    """Smallest a >= 1 with distinct(symbols[:a]) >= n - a; 1 if n <= 1.

    This is both the independence-number read on a normal code and the
    stopping rule of the family card games, which share this implementation
    on purpose.  Symbols may be any hashables; only distinctness matters.
    A long integer array with values in 0..n is read without sorting: a
    scatter keeps each value's first position, and those positions are where
    the distinct count grows.  Raises if the sequence ends before the
    threshold is met.
    """
    if n <= 1:
        return 1
    if (isinstance(symbols, np.ndarray) and symbols.shape[0] >= 64
            and symbols.dtype.kind in "iu" and 0 <= symbols.min() and symbols.max() <= n):
        m = symbols.shape[0]
        first = np.full(n + 1, m)  # m: the value does not occur
        np.minimum.at(first, symbols, np.arange(m))
        new = np.zeros(m + 1, dtype=np.int64)
        new[first] = 1
        distinct = np.cumsum(new[:m])
        hit = distinct >= n - np.arange(1, m + 1)
        a = int(np.argmax(hit))
        if not hit[a]:
            raise ValueError("sequence exhausted before the distinct-count threshold")
        return a + 1
    seen = set()
    for a, s in enumerate(symbols, start=1):
        seen.add(s)
        if len(seen) >= n - a:
            return a
    raise ValueError("sequence exhausted before the distinct-count threshold")


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
    as SlitherCode validates them, so the counts are a list indexed by symbol.
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
    if b < 1:
        raise ValueError(f"capacity must be >= 1, got {b}")
    _require_variant(code, Variant(b), "read_capacity_edges")
    return _saturation_read(code.symbols, code.n, b)


# --- classical Prufer, for unrooted uniform sampling ------------------------


def prufer_encode(n: int, edges) -> tuple[int, ...]:
    """Classical Prufer sequence of a labelled unrooted tree, length n-2."""
    if n < 1:
        raise CodeError(f"n must be >= 1, got {n}")
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    count = 0
    for u, v in edges:
        try:
            u, v = _strict_int(u), _strict_int(v)
        except ValueError:
            raise CodeError(f"non-integer edge ({u!r}, {v!r})") from None
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise CodeError(f"bad edge ({u}, {v}) for n={n}")
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    if count != n - 1:
        raise CodeError(f"expected {n - 1} edges, got {count}")
    parent, stack = {}, [n]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w != n and w not in parent:
                parent[w] = u
                stack.append(w)
    if len(parent) != n - 1:
        raise CodeError(f"the {n - 1} edges do not connect all {n} vertices")
    return slither_encode(RootedTree(n=n, root=n, parent=parent), Variant(n))[0].symbols[:-1]


def prufer_decode(symbols) -> list[tuple[int, int]]:
    """Invert prufer_encode; n is inferred as len(symbols) + 2.

    Returns the edge list sorted with each edge as (min, max).
    """
    sym = tuple(symbols)
    n = len(sym) + 2
    tree = slither_decode(SlitherCode(n=n, variant=Variant(n), symbols=sym + (n,)))
    return sorted((min(c, p), max(c, p)) for c, p in tree.parent.items())
