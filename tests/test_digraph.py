import itertools
import math
import random

import pytest

from evoalg.digraph import (
    Digraph,
    cycles,
    graph_automorphisms,
    inverse,
    min_transversal_order,
    pattern_isomorphisms,
    transversals,
)
from evoalg.errors import CapExceededError, ParseError, SingularMatrixError
from evoalg.fields import RationalField
from evoalg.groups import MonomialMap, compose

Q = RationalField()


def from_cycles(n, *parts):
    """The image tuple of the product of the disjoint cycles ``parts``."""
    images = list(range(n))
    for cycle in parts:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def order(sigma):
    return math.lcm(*(len(c) for c in cycles(sigma)))


def permutation_from_json(data):
    """Read a 1-based image array, the wire format of MonomialMap.to_json."""
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise ParseError(f"bad permutation JSON {data!r}")
    return tuple(v - 1 for v in data)


def cycle_string(p):
    """1-based cycle notation without fixed points; "()" for the identity."""
    parts = ["(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def cyclic(n):
    """Directed n-cycle pattern: edge sigma(j) <- j for sigma = (1 2 ... n)."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = 1
    return Digraph.from_bool_rows(rows)


def complete(n, loops=False):
    rows = [[1 if i != j or loops else 0 for j in range(n)] for i in range(n)]
    return Digraph.from_bool_rows(rows)


def undirected_cycle(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 1
    return Digraph.from_bool_rows(rows)


class TestPermutation:
    """Permutations are image tuples: cycles, inverse and groups.compose."""

    def test_order_of_two_transpositions(self):
        assert order(from_cycles(4, (0, 1), (2, 3))) == 2

    def test_composition_applies_right_factor_first(self):
        three_cycle = from_cycles(3, (0, 1, 2))
        swap = from_cycles(3, (0, 1))
        assert compose(three_cycle, swap) == from_cycles(3, (0, 2))

    def test_order_lcm(self):
        assert order(from_cycles(5, (0, 1, 2), (3, 4))) == 6

    def test_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 8)
            images = list(range(n))
            rng.shuffle(images)
            p = tuple(images)
            assert compose(p, inverse(p)) == tuple(range(n))
            assert compose(inverse(p), p) == tuple(range(n))

    def test_json_round_trip_is_one_based(self):
        p = (1, 2, 0)
        assert MonomialMap(p, (Q.one,) * 3).to_json()["sigma"] == [2, 3, 1]
        assert permutation_from_json([2, 3, 1]) == p

    def test_rejects_non_bijection(self):
        with pytest.raises(ParseError):
            MonomialMap((0, 0, 1), (Q.one,) * 3)

    def test_cycle_string(self):
        assert cycle_string((1, 2, 0, 3)) == "(1 2 3)"
        assert cycle_string((0, 1)) == "()"

    def test_cycles_start_at_their_least_vertex(self):
        assert cycles((2, 0, 1, 3)) == ((0, 2, 1), (3,))
        assert cycles((3, 2, 1, 0)) == ((0, 3), (1, 2))


class TestGraphAutomorphisms:
    def test_directed_3_cycle(self):
        auts = graph_automorphisms(cyclic(3))
        assert len(auts) == 3
        assert (0, 1, 2) in auts
        assert from_cycles(3, (0, 1, 2)) in auts

    def test_undirected_5_cycle_is_dihedral(self):
        assert len(graph_automorphisms(undirected_cycle(5))) == 10

    def test_complete_4(self):
        auts = graph_automorphisms(complete(4))
        assert len(auts) == 24

    def test_sorted_lexicographically(self):
        auts = graph_automorphisms(complete(3))
        assert auts == sorted(auts)

    def test_group_laws(self):
        for g in (cyclic(4), undirected_cycle(4), complete(3, loops=True)):
            auts = graph_automorphisms(g)
            have = set(auts)
            assert tuple(range(g.n)) in have
            for a in auts:
                assert inverse(a) in have
                for b in auts:
                    assert compose(a, b) in have

    def test_relabel_characterization(self):
        # sigma is an automorphism iff the relabeled pattern equals the pattern
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 5)
            g = Digraph.from_bool_rows(
                [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
            )
            auts = set(graph_automorphisms(g))
            for images in itertools.permutations(range(n)):
                sigma = tuple(images)
                assert (sigma in auts) == (g.relabel(sigma) == g)

    def test_invariants_are_taken_once_per_pattern(self, monkeypatch):
        # graph_automorphisms searches g against itself, so g's vertex
        # invariants serve both sides; a search against another pattern
        # takes them for each
        from evoalg import digraph

        taken = []
        real = digraph._invariants

        def counted(g, cols):
            taken.append(g)
            return real(g, cols)

        monkeypatch.setattr(digraph, "_invariants", counted)
        g = Digraph.from_bool_rows([[1, 1, 0], [0, 0, 1], [1, 0, 1]])
        h = g.relabel((2, 0, 1))
        assert graph_automorphisms(g) == [(0, 1, 2)]
        assert taken == [g]
        taken.clear()
        assert list(pattern_isomorphisms(g, h)) == [(2, 0, 1)]
        assert taken == [h, g]

    def test_dimension_cap(self):
        # past n = 12 no pattern is built, so none is searched
        with pytest.raises(CapExceededError):
            Digraph(13, [0] * 13)

    def test_isomorphism_between_relabelings(self):
        # the second pattern has a map that keeps every edge from a later
        # vertex to an earlier one but not the reverse ones, so the search
        # must compare both directions
        for rows in (
            [[0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]],
            [[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 0]],
        ):
            g = Digraph.from_bool_rows(rows)
            sigma = (2, 0, 3, 1)
            h = g.relabel(sigma)
            found = list(pattern_isomorphisms(g, h))
            assert sigma in found
            for f in found:
                assert g.relabel(f) == h


class TestTransversals:
    def test_identity_pattern(self):
        g = Digraph.from_bool_rows([[1, 0], [0, 1]])
        assert list(transversals(g)) == [(0, 1)]

    def test_cycle_pattern(self):
        assert list(transversals(cyclic(3))) == [from_cycles(3, (0, 1, 2))]

    def test_complete_3_gives_both_derangements(self):
        got = list(transversals(complete(3)))
        assert got == [
            from_cycles(3, (0, 1, 2)),
            from_cycles(3, (0, 2, 1)),
        ]

    def test_count_matches_permanent(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 6)
            rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
            g = Digraph.from_bool_rows(rows)
            permanent = 0
            for images in itertools.permutations(range(n)):
                if all(rows[images[j]][j] for j in range(n)):
                    permanent += 1
            got = list(transversals(g))
            assert len(got) == permanent
            for tau in got:
                assert all(rows[tau[j]][j] for j in range(n))

    def test_singular_pattern_is_empty(self):
        g = Digraph.from_bool_rows([[1, 1], [0, 0]])
        assert list(transversals(g)) == []


class TestMinTransversalOrder:
    def test_full_diagonal(self):
        g = Digraph.from_bool_rows([[1, 1], [0, 1]])
        assert min_transversal_order(g) == 1

    def test_cycle(self):
        for n in range(1, 7):
            assert min_transversal_order(cyclic(n)) == n

    def test_complete_3(self):
        assert min_transversal_order(complete(3)) == 3

    def test_no_transversal(self):
        with pytest.raises(SingularMatrixError):
            min_transversal_order(Digraph.from_bool_rows([[1, 1], [0, 0]]))

    def test_complete_graphs_match_closed_form(self):
        # K_n has every cycle of length >= 2 and no loop, so t_A is the least
        # lcm over the partitions of n into parts >= 2
        def partitions(n, smallest=2):
            if n == 0:
                yield ()
            for part in range(smallest, n + 1):
                for tail in partitions(n - part, part):
                    yield (part, *tail)

        got = [min_transversal_order(complete(n)) for n in range(2, 13)]
        assert got == [min(math.lcm(*p) for p in partitions(n)) for n in range(2, 13)]
        assert got == [2, 3, 2, 5, 2, 6, 2, 3, 2, 6, 2]

    def test_dimension_cap(self):
        # past n = 12 no pattern is built, all-loops or not; at n = 12 the
        # all-loops answer is 1
        for loops in (False, True):
            with pytest.raises(CapExceededError):
                complete(13, loops)
        assert min_transversal_order(complete(12, loops=True)) == 1

    def test_brute_force_oracle(self):
        # every 0/1 pattern up to n = 3, then random ones up to n = 7
        patterns = [
            [bits[i * n : (i + 1) * n] for i in range(n)]
            for n in range(1, 4)
            for bits in itertools.product((0, 1), repeat=n * n)
        ]
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(4, 7)
            density = rng.choice((0.3, 0.5, 0.7))
            patterns.append([[rng.random() < density for _ in range(n)] for _ in range(n)])
        for rows in patterns:
            n = len(rows)
            g = Digraph.from_bool_rows(rows)
            orders = [
                order(images)
                for images in itertools.permutations(range(n))
                if all(rows[images[j]][j] for j in range(n))
            ]
            if not orders:
                with pytest.raises(SingularMatrixError):
                    min_transversal_order(g)
            else:
                assert min_transversal_order(g) == min(orders)

    def test_relabel_invariance(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 5)
            rows = [[rng.random() < 0.6 for _ in range(n)] for _ in range(n)]
            g = Digraph.from_bool_rows(rows)
            try:
                base = min_transversal_order(g)
            except SingularMatrixError:
                continue
            images = list(range(n))
            rng.shuffle(images)
            assert min_transversal_order(g.relabel(images)) == base
