"""Zero-pattern digraphs of structure matrices, their automorphisms, and
transversal enumeration.

Vertices are 0-based indices internally; the JSON wire format uses 1-based
image arrays, e.g. [2, 3, 1] sends vertex 1 to 2.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterator, Optional

from .errors import DimensionCapError, ParseError, SingularMatrixError

SEARCH_DIMENSION_CAP = 12


class Permutation:
    """A bijection on {0, ..., n-1} stored as its image tuple."""

    __slots__ = ("images", "_cycles")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ParseError(f"not a permutation: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_cycles", None)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, *cycles) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition applying the right factor first: (s*t)(i) = s(t(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ParseError("permutation size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each rotated to start at its least vertex and
        listed by that vertex; fixed points included as 1-cycles."""
        if self._cycles is None:
            seen = [False] * self.n
            out = []
            for start in range(self.n):
                if seen[start]:
                    continue
                cyc = [start]
                seen[start] = True
                cur = self.images[start]
                while cur != start:
                    cyc.append(cur)
                    seen[cur] = True
                    cur = self.images[cur]
                out.append(tuple(cyc))
            object.__setattr__(self, "_cycles", tuple(out))
        return self._cycles

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def to_json(self) -> list[int]:
        return [v + 1 for v in self.images]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation{self.images}"


class Digraph:
    """0/1 adjacency with loops, rows kept as bitmasks: bit j of row i is the
    edge i -> j."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = tuple(rows)
        if len(self.rows) != n or any(r >> n for r in self.rows):
            raise ParseError("adjacency rows do not match vertex count")

    @classmethod
    def from_scalar_rows(cls, rows) -> "Digraph":
        """Zero-pattern of a square matrix of scalars."""
        n = len(rows)
        bits = []
        for row in rows:
            mask = 0
            for j, entry in enumerate(row):
                if not entry.is_zero:
                    mask |= 1 << j
            bits.append(mask)
        return cls(n, bits)

    @classmethod
    def from_bool_rows(cls, rows) -> "Digraph":
        n = len(rows)
        return cls(n, (sum(1 << j for j, x in enumerate(row) if x) for row in rows))

    def edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def out_degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def in_degree(self, j: int) -> int:
        return sum(r >> j & 1 for r in self.rows)

    def has_loop(self, i: int) -> bool:
        return self.edge(i, i)

    def relabel(self, sigma: Permutation) -> "Digraph":
        """Image graph with edge (sigma(i), sigma(j)) for every edge (i, j)."""
        rows = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.edge(i, j):
                    rows[sigma(i)] |= 1 << sigma(j)
        return Digraph(self.n, rows)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Digraph({self.n}, {self.rows})"


def _invariants(g: Digraph) -> list[tuple[int, int, bool]]:
    return [(g.out_degree(v), g.in_degree(v), g.has_loop(v)) for v in range(g.n)]


def pattern_isomorphisms(g: Digraph, h: Digraph) -> Iterator[Permutation]:
    """All vertex bijections sending edges of g exactly onto edges of h,
    emitted in lexicographic image order.

    Backtracking over partial maps, pruned by (out-degree, in-degree, loop)
    vertex invariants. At each level the edges between v and the vertices
    already placed fix which placed images w must reach and be reached from;
    a candidate w is compared with them as two bitmasks.
    """
    if g.n != h.n:
        return
    n = g.n
    if n > SEARCH_DIMENSION_CAP:
        raise DimensionCapError(f"pattern search capped at n = {SEARCH_DIMENSION_CAP}")
    gi, hi = _invariants(g), _invariants(h)
    if sorted(gi) != sorted(hi):
        return
    h_cols = [sum((r >> w & 1) << i for i, r in enumerate(h.rows)) for w in range(n)]
    images = [-1] * n

    def place(v: int, placed: int) -> Iterator[Permutation]:
        if v == n:
            yield Permutation(tuple(images))
            return
        want_out = want_in = 0
        for u in range(v):
            bit = 1 << images[u]
            if g.rows[v] >> u & 1:
                want_out |= bit
            if g.rows[u] >> v & 1:
                want_in |= bit
        for w in range(n):
            if (
                placed >> w & 1
                or gi[v] != hi[w]
                or h.rows[w] & placed != want_out
                or h_cols[w] & placed != want_in
            ):
                continue
            images[v] = w
            yield from place(v + 1, placed | 1 << w)

    yield from place(0, 0)


def graph_automorphisms(g: Digraph) -> list[Permutation]:
    """The full automorphism group of the digraph as an explicit sorted list."""
    return list(pattern_isomorphisms(g, g))


def transversals(g: Digraph) -> Iterator[Permutation]:
    """All permutations tau with entry (tau(j), j) nonzero for every column j,
    i.e. the perfect matchings of the bipartite support, in lexicographic
    image order. Pruned by a one-shot Hall condition on the remaining columns.
    """
    n = g.n
    col_masks = [0] * n
    for i in range(n):
        for j in range(n):
            if g.edge(i, j):
                col_masks[j] |= 1 << i
    images = [0] * n

    def place(j: int, used: int) -> Iterator[Permutation]:
        if j == n:
            yield Permutation(tuple(images))
            return
        free_union = 0
        for jj in range(j, n):
            free_union |= col_masks[jj] & ~used
        if free_union.bit_count() < n - j:
            return
        avail = col_masks[j] & ~used
        while avail:
            low = avail & -avail
            i = low.bit_length() - 1
            avail ^= low
            images[j] = i
            yield from place(j + 1, used | low)

    yield from place(0, 0)


def min_transversal_order(g: Digraph) -> int:
    """The least permutation order among the transversals of the pattern.

    Branch-and-bound over the transversal search tree: a branch dies as soon
    as the lcm of its already-closed cycles reaches the best known order.
    """
    n = g.n
    if all(g.has_loop(i) for i in range(n)):
        return 1
    col_masks = [0] * n
    for i in range(n):
        for j in range(n):
            if g.edge(i, j):
                col_masks[j] |= 1 << i
    best: Optional[int] = None
    images: list[Optional[int]] = [None] * n

    def closed_cycle_length(j: int, i: int) -> Optional[int]:
        # adding tau(j) = i closes a cycle iff following existing images from
        # i leads back to j
        length = 1
        cur = i
        while cur != j:
            if images[cur] is None:
                return None
            cur = images[cur]
            length += 1
        return length

    def place(j: int, used: int, run_lcm: int):
        nonlocal best
        if best == 1:
            return
        if j == n:
            best = run_lcm if best is None else min(best, run_lcm)
            return
        free_union = 0
        for jj in range(j, n):
            free_union |= col_masks[jj] & ~used
        if free_union.bit_count() < n - j:
            return
        avail = col_masks[j] & ~used
        while avail:
            low = avail & -avail
            i = low.bit_length() - 1
            avail ^= low
            length = closed_cycle_length(j, i)
            nxt_lcm = run_lcm if length is None else math.lcm(run_lcm, length)
            if best is not None and nxt_lcm >= best:
                continue
            images[j] = i
            place(j + 1, used | low, nxt_lcm)
            images[j] = None

    place(0, 0, 1)
    if best is None:
        raise SingularMatrixError("pattern admits no transversal")
    return best
