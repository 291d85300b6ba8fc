"""Zero-pattern digraphs of structure matrices, their automorphisms, and
transversal enumeration.

A permutation sigma of the vertices is its image tuple (sigma(0), ...,
sigma(n-1)), 0-based; the JSON wire format uses 1-based image arrays, e.g.
[2, 3, 1] sends vertex 1 to 2. Products are ``groups.compose``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import CapExceededError, ParseError, SingularMatrixError

DIMENSION_CAP = 12
CLOSURE_CAP = 10**6


def check_dimension(n: int) -> None:
    """Refuse n past DIMENSION_CAP, before any work of size n is done."""
    if n > DIMENSION_CAP:
        raise CapExceededError(f"dimension capped at n = {DIMENSION_CAP}")


def check_size(size: int, what: str) -> None:
    """Refuse a list of group elements, orbit points or pattern maps that
    grows past CLOSURE_CAP, read at call time."""
    if size > CLOSURE_CAP:
        raise CapExceededError(f"{what} passed the cap {CLOSURE_CAP}")


def cycles(sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of the permutation, each rotated to start at its
    least vertex and listed by that vertex; fixed points included as
    1-cycles."""
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = sigma[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = sigma[cur]
        out.append(tuple(cyc))
    return tuple(out)


def inverse(sigma: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


class Digraph:
    """0/1 adjacency with loops, rows kept as bitmasks: bit j of row i is the
    edge i -> j."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        check_dimension(n)
        self.n = n
        self.rows = tuple(rows)
        if len(self.rows) != n or any(r >> n for r in self.rows):
            raise ParseError("adjacency rows do not match vertex count")

    @classmethod
    def from_raw_rows(cls, rows, is_zero) -> "Digraph":
        """Zero-pattern of a square matrix of raw field values, ``is_zero``
        the field's raw zero test."""
        masks = []
        for row in rows:
            mask = 0
            for j, x in enumerate(row):
                if not is_zero(x):
                    mask |= 1 << j
            masks.append(mask)
        return cls(len(rows), masks)

    @classmethod
    def from_bool_rows(cls, rows) -> "Digraph":
        n = len(rows)
        return cls(n, (sum(1 << j for j, x in enumerate(row) if x) for row in rows))

    def edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def has_loop(self, i: int) -> bool:
        return self.edge(i, i)

    def relabel(self, sigma: Sequence[int]) -> "Digraph":
        """Image graph with edge (sigma(i), sigma(j)) for every edge (i, j)."""
        rows = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.edge(i, j):
                    rows[sigma[i]] |= 1 << sigma[j]
        return Digraph(self.n, rows)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Digraph({self.n}, {self.rows})"


def _invariants(g: Digraph, cols: list[int]) -> list[tuple[int, int, int]]:
    """(out-degree, in-degree, loop) of each vertex, the in-degrees read
    off the column masks ``cols``."""
    return [
        (r.bit_count(), c.bit_count(), r >> v & 1)
        for v, (r, c) in enumerate(zip(g.rows, cols))
    ]


def _column_masks(g: Digraph) -> list[int]:
    """The columns as bitmasks: bit i of column j is the edge i -> j."""
    cols = [0] * g.n
    for i, r in enumerate(g.rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


def _hall_fails(col_masks: list[int], j: int, used: int) -> bool:
    """One-shot Hall condition on the columns j, j+1, ... still to place:
    together they must reach as many rows outside ``used`` as they number."""
    free_union = 0
    for mask in col_masks[j:]:
        free_union |= mask
    return (free_union & ~used).bit_count() < len(col_masks) - j


def pattern_isomorphisms(g: Digraph, h: Digraph) -> Iterator[tuple[int, ...]]:
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
    h_cols = _column_masks(h)
    hi = _invariants(h, h_cols)
    gi = hi if g is h else _invariants(g, _column_masks(g))
    if gi is not hi and sorted(gi) != sorted(hi):
        return
    images = [-1] * n

    def place(v: int, placed: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(images)
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


def graph_automorphisms(g: Digraph) -> list[tuple[int, ...]]:
    """The full automorphism group of the digraph as an explicit sorted
    list, of at most CLOSURE_CAP maps."""
    auts = list(itertools.islice(pattern_isomorphisms(g, g), CLOSURE_CAP + 1))
    check_size(len(auts), "pattern automorphisms")
    return auts


def transversals(g: Digraph) -> Iterator[tuple[int, ...]]:
    """All permutations tau with entry (tau(j), j) nonzero for every column j,
    i.e. the perfect matchings of the bipartite support, in lexicographic
    image order. Pruned by a one-shot Hall condition on the remaining columns.
    """
    n = g.n
    col_masks = _column_masks(g)
    images = [0] * n

    def place(j: int, used: int) -> Iterator[tuple[int, ...]]:
        if j == n:
            yield tuple(images)
            return
        if _hall_fails(col_masks, j, used):
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

    A transversal's cycles are the pattern's cycles run backwards (a loop is
    a 1-cycle), so this is the least lcm of cycle lengths over the covers of
    the vertices by disjoint cycles. Held-Karp over the vertex subsets: mark
    each subset that one cycle runs through, by paths from its least vertex;
    then collect the lcms each subset's covers reach, splitting off each
    marked block that holds its least vertex (3^n subset pairs in all).
    """
    n = g.n
    if all(g.has_loop(i) for i in range(n)):
        return 1
    col_masks = _column_masks(g)
    size = 1 << n
    ends = [0] * size  # ends[s]: where the paths from min(s) through s end
    for v in range(n):
        ends[1 << v] = 1 << v
    is_cycle = [False] * size
    for s in range(1, size):
        tails = ends[s]
        if not tails:
            continue
        least = (s & -s).bit_length() - 1
        is_cycle[s] = bool(tails & col_masks[least])
        for w in range(least + 1, n):
            if not s >> w & 1 and tails & col_masks[w]:
                ends[s | 1 << w] |= 1 << w
    orders: list[set[int]] = [{1}]  # orders[s]: the lcms the covers of s reach
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        reached = set()
        t = rest
        while True:
            block = t | low
            if is_cycle[block] and orders[s ^ block]:
                reached.update(math.lcm(block.bit_count(), k) for k in orders[s ^ block])
            if not t:
                break
            t = (t - 1) & rest
        orders.append(reached)
    if not orders[-1]:
        raise SingularMatrixError("pattern admits no transversal")
    return min(orders[-1])
