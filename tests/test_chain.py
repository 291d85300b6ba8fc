"""The stabilizer chain of a pattern against the plain listing of its
automorphisms: the same order, generators that are automorphisms, and a
walk that yields the listing in its own order."""

import itertools
import math
import random

import pytest

from evoalg import solver, suites
from evoalg.digraph import (
    Digraph,
    automorphism_chain,
    graph_automorphisms,
    pattern_isomorphisms,
)
from evoalg.families import build_family
from evoalg.fields import RationalField


def check_chain(g: Digraph) -> None:
    chain = automorphism_chain(g)
    listed = list(pattern_isomorphisms(g, g))
    assert chain.order == len(listed) == len(graph_automorphisms(g))
    for s in chain.generators:
        assert g.relabel(s) == g
    for k, reps in chain.levels:
        assert [u[k] for u in reps] == sorted(u[k] for u in reps)
        for u in reps:
            assert u[:k] == tuple(range(k)) and g.relabel(u) == g
    assert list(chain.walk()) == listed


def all_patterns(n):
    for code in range(1 << n * n):
        yield Digraph(n, [code >> k * n & ((1 << n) - 1) for k in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_pattern_up_to_n3(n):
    for g in all_patterns(n):
        check_chain(g)


def test_patterns_of_the_suites_and_families(monkeypatch):
    # every pattern whose group a verification suite asks for, and the
    # families the benchmark and the tests build, up to n = 7
    seen = {}
    real = solver.automorphism_chain

    def recorded(g):
        if g.n <= 7:
            seen[g] = None
        return real(g)

    monkeypatch.setattr(solver, "automorphism_chain", recorded)
    for name in suites.SUITES:
        assert suites.run_suite(name).ok
    q = RationalField()
    for n in range(2, 8):
        specs = [f"complete:n={n}", f"cycle:n={n}", f"twoparam:n={n},a=1,b=2"]
        for spec in specs:
            seen[build_family(spec, q)[0].digraph] = None
    assert len(seen) > 150
    for g in seen:
        check_chain(g)


def circulant(n, offsets):
    return Digraph(n, [sum(1 << (i + d) % n for d in offsets) for i in range(n)])


def regular(n, k, rng):
    """A digraph with every in- and out-degree k: the union of k
    permutation matrices without a common entry."""
    rows = [0] * n
    added = 0
    while added < k:
        perm = rng.sample(range(n), n)
        if all(not rows[i] >> perm[i] & 1 for i in range(n)):
            for i in range(n):
                rows[i] |= 1 << perm[i]
            added += 1
    return Digraph(n, rows)


def test_random_circulant_and_regular_patterns():
    rng = random.Random(37)
    patterns = []
    for i in range(200):
        n = rng.randint(4, 7)
        kind = i % 3
        if kind == 0:
            density = rng.choice([0.2, 0.4, 0.6])
            g = Digraph.from_bool_rows(
                [[rng.random() < density for _ in range(n)] for _ in range(n)]
            )
        elif kind == 1:
            g = circulant(n, rng.sample(range(n), rng.randint(1, n - 1)))
        else:
            g = regular(n, rng.randint(1, n - 1), rng)
        # a random relabelling, so the base 0, ..., n-1 meets the orbits in
        # every order
        patterns.append(g.relabel(rng.sample(range(n), n)))
    assert sum(len(list(pattern_isomorphisms(g, g))) > 1 for g in patterns) > 100
    for g in patterns:
        check_chain(g)


def test_k_n_takes_n_minus_1_generators():
    # S_n up to n = 12 without a listing; its walk is the lexicographic
    # order of all permutations
    for n in range(1, 13):
        g = Digraph(n, [((1 << n) - 1) ^ 1 << i for i in range(n)])
        chain = automorphism_chain(g)
        assert len(chain.generators) == n - 1
        assert chain.order == math.factorial(n)
        if n <= 6:
            assert list(chain.walk()) == list(itertools.permutations(range(n)))
