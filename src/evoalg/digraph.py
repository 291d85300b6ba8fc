"""Zero-pattern digraphs of structure matrices, their automorphisms, and
transversal enumeration.

A permutation sigma of the vertices is its image tuple (sigma(0), ...,
sigma(n-1)), 0-based; the JSON wire format uses 1-based image arrays, e.g.
[2, 3, 1] sends vertex 1 to 2. Products are ``compose``.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, NamedTuple, Sequence

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


def compose(a, b) -> tuple:
    """The image tuple of a*b, applying b first: b's images looked up in
    a's."""
    return tuple(map(a.__getitem__, b))


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


def _searcher(g: Digraph, h: Digraph, h_cols: list[int], gi: list, hi: list):
    """The backtrack of ``pattern_isomorphisms``, given h's column masks
    and both patterns' vertex invariants, as a function search(k,
    candidates): the maps that send each i < k to i and k to one of the
    candidates, in lexicographic image order. It starts at vertex k with
    0, ..., k-1 placed on themselves, which is a partial map of g onto h
    when g is h. The searches share one image list, so one runs at a
    time."""
    n = g.n
    images = list(range(n))

    def place(v: int, placed: int, candidates=range(n)) -> Iterator[tuple[int, ...]]:
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
        for w in candidates:
            if (
                placed >> w & 1
                or gi[v] != hi[w]
                or h.rows[w] & placed != want_out
                or h_cols[w] & placed != want_in
            ):
                continue
            images[v] = w
            yield from place(v + 1, placed | 1 << w)

    def search(k: int, candidates=range(n)) -> Iterator[tuple[int, ...]]:
        images[:k] = range(k)
        return place(k, (1 << k) - 1, candidates)

    return search


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
    h_cols = _column_masks(h)
    hi = _invariants(h, h_cols)
    gi = _invariants(g, _column_masks(g))
    if sorted(gi) == sorted(hi):
        yield from _searcher(g, h, h_cols, gi, hi)(0)


class AutomorphismChain(NamedTuple):
    """A permutation group, the automorphisms of a digraph or the group some
    permutations generate, as a stabilizer chain on the base 0, ..., n-1
    (Butler, Fundamental Algorithms for Permutation Groups, 1991; Seress,
    Permutation Group Algorithms, 2003), with no element listed. G_k is the
    subgroup that fixes 0, ..., k-1. For each base point k that G_k moves, a
    level (k, reps) holds one u in G_k with u(k) = w for each w in the orbit
    of k, by w; so the order of the group is the product of the orbit
    lengths."""

    n: int
    order: int
    generators: tuple[tuple[int, ...], ...]  # strong generators, as found
    levels: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    def walk(self) -> Iterator[tuple[int, ...]]:
        """Every automorphism once, in lexicographic image order, and lazily.
        Level by level, each element p is replaced by its products p * u with
        the representatives u of level k: they agree with p before k and
        send k to p(u(k)), so sorting them orders their cosets. Below the
        identity, the products are the first level's representatives."""
        if not self.levels:
            return iter((tuple(range(self.n)),))
        elements = iter(self.levels[0][1])
        for _, reps in self.levels[1:]:
            # p * u is u's images looked up in p
            lookups = [operator.itemgetter(*u) for u in reps]
            elements = itertools.chain.from_iterable(
                map(_sorted_products, itertools.repeat(lookups), elements)
            )
        return elements

    def contains(self, g: tuple[int, ...]) -> bool:
        """Membership: g lies in the group when it sifts to the identity."""
        return _sift(self.levels, g) == tuple(range(self.n))


def _sorted_products(lookups: list, p: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted([lookup(p) for lookup in lookups])


def _orbit_reps(k: int, identity: tuple, generators: list) -> dict[int, tuple[int, ...]]:
    """For each point w of the orbit of k under the generators, a product u
    of them with u(k) = w: a breadth-first search from k."""
    reps = {k: identity}
    todo = [k]
    for x in todo:  # grows while it is walked
        for s in generators:
            y = s[x]
            if y not in reps:
                reps[y] = s if x == k else compose(s, reps[x])
                todo.append(y)
    return reps


def automorphism_chain(g: Digraph) -> AutomorphismChain:
    """Aut(g) as the ``stabilizer_chain`` of strong generators searched
    from level n-1 down to level 0. At level k, one search of the
    ``pattern_isomorphisms`` backtrack looks for an automorphism that fixes
    0, ..., k-1 and sends k to some v > k outside the orbit of k under the
    generators found so far. The first one found joins the generators, and
    the search starts again past its v, so every such v is searched once.
    Those found at levels k and above then generate G_k: they move k over
    the whole orbit of k under G_k, and by induction they generate its
    stabilizer G_(k+1). K_n takes n - 1 searches, each ending at its first
    leaf. A Schreier residue would mean that they are not a strong
    generating set on the base 0, ..., n-1, and raises RuntimeError."""
    n, identity = g.n, tuple(range(g.n))
    cols = _column_masks(g)
    invariants = _invariants(g, cols)
    generators: list[tuple[int, ...]] = []
    if len(set(invariants)) == n:
        return stabilizer_chain(n, generators)  # they tell every vertex apart
    search = _searcher(g, g, cols, invariants, invariants)
    for k in reversed(range(n)):
        # an automorphism keeps the invariants, so only these can be images
        twins = [w for w in range(k + 1, n) if invariants[w] == invariants[k]]
        if not twins:
            continue
        reps = _orbit_reps(k, identity, generators)
        v = k
        while True:
            rest = [w for w in twins if w > v and w not in reps]
            found = rest and next(search(k, rest), None)
            if not found:
                break
            v = found[k]
            generators.append(found)
            reps = _orbit_reps(k, identity, generators)
    chain = stabilizer_chain(n, generators)
    if len(chain.generators) != len(generators):
        raise RuntimeError("the searched automorphisms are not a strong generating set")
    return chain


def stabilizer_chain(n: int, generators) -> AutomorphismChain:
    """The group the permutations generate, as a chain on the base
    0, ..., n-1: deterministic Schreier-Sims (Seress 2003, Section 4.2).
    From level n-1 down, each level k takes the orbit of k under the strong
    generators that fix 0, ..., k-1, and sifts s * u(x) for each of them s
    and each x in that orbit: level k turns it into the Schreier generator
    u(s(x))^-1 * s * u(x), and the levels below, which are complete, sift
    that. A residue that is not the identity joins the strong generators,
    and the work starts again at the first point it moves."""
    identity = tuple(range(n))
    strong = [g for g in dict.fromkeys(generators) if g != identity]
    # the representatives of each level, by image; a level that no strong
    # generator reaches holds the identity alone, and needs no sift
    table = [(identity,)] * n
    k = n - 1
    while k >= 0:
        gens = [s for s in strong if s[:k] == identity[:k]]
        residue = None
        if gens:
            reps = _orbit_reps(k, identity, gens)
            table[k] = tuple(reps[w] for w in sorted(reps))
            below = list(zip(range(k, n), table[k:]))
            residues = (_sift(below, compose(s, u)) for u in reps.values() for s in gens)
            residue = next((r for r in residues if r != identity), None)
        if residue is None:
            k -= 1
        else:
            strong.append(residue)
            k = next(i for i, v in enumerate(residue) if i != v)
    levels = tuple((k, reps) for k, reps in enumerate(table) if len(reps) > 1)
    order = math.prod(len(reps) for _, reps in levels)
    return AutomorphismChain(n, order, tuple(strong), levels)


def _sift(levels, g: tuple[int, ...]) -> tuple[int, ...]:
    """The residue of g sifted through the levels (k, reps): at each level
    whose point k it moves, g becomes u^-1 * g for the representative u with
    u(k) = g(k), until a level has no such u. g lies in the group of
    complete levels exactly when the residue is the identity."""
    for k, reps in levels:
        if g[k] != k:
            u = next((u for u in reps if u[k] == g[k]), None)
            if u is None:
                return g
            g = compose(inverse(u), g)
    return g


def greedy_generators(chain: AutomorphismChain) -> list[tuple[int, ...]]:
    """The greedy generators of the chain's group G: in lexicographic
    order, each element that the ones before it do not generate. G is not
    listed. The walk of ``AutomorphismChain.walk`` skips the subtree below
    p at level i, which holds p * G_(k) for that level's base point k, when
    p and every strong generator of G_(k) lie in H, the group the kept
    elements generate; the first leaf outside H is kept. H is held as its
    own chain, rebuilt at each kept element. Each node visited counts
    against CLOSURE_CAP."""
    n, levels = chain.n, chain.levels
    identity = tuple(range(n))
    # the strong generators found at a level and below fix the points before it
    level_gens = [[s for s in chain.generators if s[:k] == identity[:k]] for k, _ in levels]
    kept: list[tuple[int, ...]] = []
    inside = stabilizer_chain(n, kept)
    # G_(k) lies in H on the levels from ``full`` down
    full = len(levels)
    visited = 0

    def visit(p: tuple[int, ...], i: int) -> None:
        nonlocal inside, full, visited
        visited += 1
        check_size(visited, "greedy generator search")
        if i >= full and inside.contains(p):
            return
        if i == len(levels):
            kept.append(p)
            inside = stabilizer_chain(n, kept)
            while full and all(map(inside.contains, level_gens[full - 1])):
                full -= 1
            return
        for q in sorted(compose(p, u) for u in levels[i][1]):
            visit(q, i + 1)

    visit(identity, 0)
    return kept


def graph_automorphisms(g: Digraph) -> list[tuple[int, ...]]:
    """The full automorphism group of the digraph as an explicit sorted
    list, walked off its chain; more than CLOSURE_CAP maps are refused
    before one is listed."""
    chain = automorphism_chain(g)
    check_size(chain.order, "pattern automorphisms")
    return list(chain.walk())


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
