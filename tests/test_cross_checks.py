"""Cross-route consistency: independent brute-force enumerations against the
solver's structured methods, on randomized inputs from fixed seeds."""

import itertools
import random
from fractions import Fraction

from dense import entrywise_square, mat_equal, matrix
from evoalg.algebra import EvolutionAlgebra, mat_mul, transport_structure
from evoalg.digraph import pattern_isomorphisms
from evoalg.fields import CyclotomicField, PrimeField, RationalField
from evoalg.groups import MonomialMap
from evoalg.solver import SolveStatus, isomorphism, diagonal_subgroup, solve_monomial

Q = RationalField()


def random_idempotent(field, n, rng, density=0.7):
    while True:
        alg = EvolutionAlgebra(
            field,
            [
                [rng.randrange(field.p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ],
        )
        if alg.is_idempotent:
            return alg


def brute_force_maps_between(a, b):
    """Every monomial map carrying E(A) onto E(B), by raw enumeration of all
    n! (p-1)^n candidates and the literal matrix identity."""
    field = a.field
    n = a.n
    units = [field.scalar(v) for v in range(1, field.p)]
    out = []
    for images in itertools.permutations(range(n)):
        sigma = tuple(images)
        for d in itertools.product(units, repeat=n):
            g = MonomialMap(sigma, d)
            p_mat = matrix(g)
            if mat_equal(
                mat_mul(b.rows, entrywise_square(p_mat)), mat_mul(p_mat, a.rows)
            ):
                out.append(g)
    return sorted(out, key=MonomialMap.sort_key)


def solver_maps_between(a, b):
    out = []
    for sigma in pattern_isomorphisms(a.digraph, b.digraph):
        res = solve_monomial(a, b, sigma)
        assert res.status is not SolveStatus.INDETERMINATE
        out.extend(res.maps)
    return sorted(set(out), key=MonomialMap.sort_key)


def test_solver_finds_every_map_between_distinct_algebras():
    rng = random.Random(811)
    for _ in range(25):
        field = PrimeField(rng.choice([3, 5]))
        n = rng.randint(2, 3)
        a = random_idempotent(field, n, rng)
        # transporting by a random monomial map guarantees some maps exist
        images = list(range(n))
        rng.shuffle(images)
        d = tuple(field.scalar(rng.randrange(1, field.p)) for _ in range(n))
        b = transport_structure(a, MonomialMap(tuple(images), d))
        assert brute_force_maps_between(a, b) == solver_maps_between(a, b)
        assert isomorphism(a, b).found


def test_solver_agrees_with_brute_force_on_unrelated_pairs():
    rng = random.Random(813)
    for _ in range(25):
        field = PrimeField(rng.choice([3, 5]))
        n = rng.randint(2, 3)
        a = random_idempotent(field, n, rng)
        b = random_idempotent(field, n, rng)
        expected = brute_force_maps_between(a, b)
        assert expected == solver_maps_between(a, b)
        assert isomorphism(a, b).found == bool(expected)


def brute_force_diagonal(alg):
    """Diagonal automorphisms by enumerating all vectors over the full
    root-of-unity group mu_N."""
    field = alg.field
    n = alg.n
    group = field.unity_group()
    mu = [group.generator**e for e in range(group.order)]
    out = []
    for d in itertools.product(mu, repeat=n):
        ok = True
        for i in range(n):
            for j in range(n):
                if not alg.rows[i][j].is_zero and d[j] * d[j] != d[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(MonomialMap.diagonal(d))
    return sorted(set(out), key=MonomialMap.sort_key)


def test_diagonal_lattice_matches_unity_enumeration():
    rng = random.Random(821)
    fields = [PrimeField(5), PrimeField(7), CyclotomicField(3), CyclotomicField(7)]
    for _ in range(20):
        field = rng.choice(fields)
        n = rng.randint(1, 3)
        while True:
            entries = [
                [rng.choice([0, 1, 1, 2]) for _ in range(n)] for _ in range(n)
            ]
            alg = EvolutionAlgebra(field, entries)
            if alg.is_idempotent:
                break
        assert list(diagonal_subgroup(alg).maps()) == brute_force_diagonal(alg)


def test_transport_witness_recovered_by_solver():
    rng = random.Random(823)
    for field in (Q, CyclotomicField(3), PrimeField(7)):
        for _ in range(10):
            n = rng.randint(2, 4)
            while True:
                alg = EvolutionAlgebra(
                    field,
                    [
                        [rng.randint(0, 2) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                if alg.is_idempotent:
                    break
            images = list(range(n))
            rng.shuffle(images)
            d = []
            for _ in range(n):
                while True:
                    x = field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                    if not x.is_zero:
                        d.append(x)
                        break
            witness = MonomialMap(tuple(images), tuple(d))
            moved = transport_structure(alg, witness)
            found = solve_monomial(alg, moved, witness.sigma)
            assert found.status is SolveStatus.COMPLETE
            assert witness in found.maps
