import itertools
import math
import operator
import random
import types
from fractions import Fraction

import pytest

from dense import entrywise_square, mat_equal, matrix
from evoalg import algebra, digraph, solver
from evoalg.algebra import EvolutionAlgebra, LoopInvariants, mat_mul, transport_structure
from evoalg.digraph import Digraph, graph_automorphisms, transversals
from evoalg.errors import CapExceededError, FieldMismatchError, SingularMatrixError
from evoalg.fields import CyclotomicField, Field, PrimeField, RationalField, Scalar
from evoalg.groups import (
    MonomialGroup,
    MonomialMap,
    close_generators,
    quotient_embedding_check,
    recognize,
)
from evoalg.solver import (
    IsoStatus,
    SolveOutcome,
    SolveStatus,
    automorphism_group,
    brute_force_automorphisms,
    certificate_checks,
    diagonal_subgroup,
    isomorphism,
    solve_monomial,
    verify_map,
)

Q = RationalField()
Z3 = CyclotomicField(3)
Z7 = CyclotomicField(7)
GF7 = PrimeField(7)


def complete_algebra(n, field=Q):
    return EvolutionAlgebra(
        field, [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    )


def cycle_algebra(n, b=None, field=Q):
    b = b or [1] * n
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = b[j]
    return EvolutionAlgebra(field, rows)


def two_param(n, a, b, field=Q):
    return EvolutionAlgebra(
        field, [[a if i == j else b for j in range(n)] for i in range(n)]
    )


def random_idempotent(field, n, rng, density=0.75):
    while True:
        alg = EvolutionAlgebra(
            field,
            [
                [
                    rng.randint(1, max(2, getattr(field, "p", 5) - 1))
                    if rng.random() < density
                    else 0
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
        )
        if alg.is_idempotent:
            return alg


def moved(base, d):
    """The algebra of the int matrix ``base`` moved by diag(d): entry (k, j)
    becomes d_k * base_kj / d_j^2, isomorphic to ``base`` over d's field."""
    n = len(d)
    return EvolutionAlgebra(
        d[0].field,
        [[d[k] * d[j] ** -2 * base[k][j] for j in range(n)] for k in range(n)],
    )


def k4_moved():
    # u = 1 + zeta_5 is a unit of infinite order, so moving K4 by it leaves
    # cycle equations that kth_roots cannot decide
    z5 = CyclotomicField(5)
    base = [[0 if k == j else 1 for j in range(4)] for k in range(4)]
    return moved(base, (z5.one,) * 3 + (z5.one + z5.zeta,))


def union_of_solves(a):
    """The definition the pruned group must meet: the maps of every decided
    solve over all pattern automorphisms, and whether every solve decided."""
    maps, complete = set(), True
    for sigma in graph_automorphisms(a.digraph):
        outcome = solve_monomial(a, a, sigma)
        if outcome.status is SolveStatus.INDETERMINATE:
            complete = False
        else:
            maps.update(outcome.maps)
    return maps, complete


class TestSolveMonomial:
    def test_k3_identity_forces_ones(self):
        alg = complete_algebra(3)
        out = solve_monomial(alg, alg, tuple(range(3)))
        assert out.status is SolveStatus.COMPLETE
        assert out.maps == (MonomialMap.identity(Q, 3),)

    def test_dimension_one(self):
        alg = EvolutionAlgebra(Q, [[1]])
        out = solve_monomial(alg, alg, tuple(range(1)))
        assert out.maps == (MonomialMap.identity(Q, 1),)

    def test_scaled_cycle_witness(self):
        # carrying the all-ones cycle onto the (128, 1, 1) cycle needs the
        # scalings (1/16, 1/2, 1/4)
        src = cycle_algebra(3)
        dst = cycle_algebra(3, [128, 1, 1])
        out = solve_monomial(src, dst, tuple(range(3)))
        assert out.status is SolveStatus.COMPLETE
        expected = MonomialMap.diagonal(
            (Q.scalar(Fraction(1, 16)), Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 4)))
        )
        assert out.maps == (expected,)
        assert verify_map(src, dst, expected)

    def test_pattern_mismatch(self):
        out = solve_monomial(
            complete_algebra(2), EvolutionAlgebra(Q, [[1, 0], [0, 1]]),
            tuple(range(2)),
        )
        # decided, with no maps, like the invariant and cycle rejections
        assert out == SolveOutcome(SolveStatus.COMPLETE)
        assert out.maps == () and out.unsolved == ()

    def test_indeterminate_over_cyclotomic(self):
        f = CyclotomicField(5)
        alg = EvolutionAlgebra(f, [[0, 1], ["1 + z", 0]])
        out = solve_monomial(alg, alg, (1, 0))
        assert out.status is SolveStatus.INDETERMINATE
        assert out.unsolved
        # the loop at 0 is an edge check in the open cycle's component
        a = EvolutionAlgebra(f, [[1, 1], [1, 0]])
        b = EvolutionAlgebra(f, [[1, "1 + z"], [1, 0]])
        out = solve_monomial(a, b, tuple(range(2)))
        assert out.status is SolveStatus.INDETERMINATE
        assert out.unsolved == ("x^3 = -z - z^3 over Q(zeta_5)",)

    def test_empty_cycle_beats_indeterminate(self):
        # two 2-cycles: the first closes to an undecidable equation, while
        # the second closes to x^3 = 1/4, decisively empty (odd exponent,
        # non-perfect power), which settles the whole solve
        f = CyclotomicField(5)
        a = EvolutionAlgebra(
            f, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        b = EvolutionAlgebra(
            f, [[0, 1, 0, 0], ["1 + z", 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
        )
        out = solve_monomial(a, b, tuple(range(4)))
        assert out.status is SolveStatus.COMPLETE and out.maps == ()

    def test_empty_cycle_beats_indeterminate_in_either_order(self):
        # the decisively empty cycle x^3 = 1/4 comes first here, the
        # undecidable one second
        f = CyclotomicField(5)
        a = EvolutionAlgebra(
            f, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        b = EvolutionAlgebra(
            f, [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, "1 + z", 0]]
        )
        out = solve_monomial(a, b, tuple(range(4)))
        assert out.status is SolveStatus.COMPLETE and out.maps == ()

    def test_decided_component_settles_beside_undecided_cycle(self):
        # the 2-cycle on {0, 1} closes to an undecidable equation; in the
        # other component the loops force d_2 = d_3 = 1, and the edge 2 -> 3
        # then needs 1 = 1 * 2. Components are independent, so that decided,
        # empty component settles the solve: no map exists whatever the
        # undecided cycle's roots are.
        f = CyclotomicField(5)
        a = EvolutionAlgebra(
            f, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
        )
        b = EvolutionAlgebra(
            f, [[0, 1, 0, 0], ["1 + z", 0, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]]
        )
        out = solve_monomial(a, b, tuple(range(4)))
        assert out.status is SolveStatus.COMPLETE and out.maps == ()
        assert out.unsolved == ()
        # with the edge satisfied, the open cycle leaves the solve undecided
        b = EvolutionAlgebra(
            f, [[0, 1, 0, 0], ["1 + z", 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
        )
        out = solve_monomial(a, b, tuple(range(4)))
        assert out.status is SolveStatus.INDETERMINATE
        assert len(out.unsolved) == 1 and out.unsolved[0].startswith("x^3 = ")

    def test_plan_is_built_once_per_algebra(self, monkeypatch):
        # the first transversal does not depend on sigma, so the 720 pattern
        # maps of the search need it once per algebra
        calls = []

        def counted(source):
            calls.append(source)
            return digraph.transversals(source)

        for module in (algebra, solver):
            monkeypatch.setattr(module, "transversals", counted, raising=False)
        a, b = two_param(6, 1, 2), two_param(6, 1, 3)
        result = isomorphism(a, b)
        assert result.status is IsoStatus.NOT_ISOMORPHIC
        assert result.candidates_exhausted == 720
        assert len(calls) <= 2

    def test_singular_rejected(self):
        singular = EvolutionAlgebra(Q, [[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            solve_monomial(singular, singular, tuple(range(2)))

    def test_singular_target_rejected_on_every_call(self):
        # the check reads a flag set at construction, on every call
        a = complete_algebra(2)
        singular = EvolutionAlgebra(Q, [[1, 1], [1, 1]])
        assert solve_monomial(a, a, (1, 0)).maps
        for sigma in ((0, 1), (1, 0)):
            with pytest.raises(SingularMatrixError):
                solve_monomial(a, singular, sigma)
            with pytest.raises(SingularMatrixError):
                solve_monomial(singular, a, sigma)

    def test_solutions_satisfy_defining_equations(self):
        rng = random.Random(77)
        for _ in range(25):
            field = rng.choice([PrimeField(5), PrimeField(7), Z3])
            n = rng.randint(2, 4)
            alg = random_idempotent(field, n, rng)
            for sigma in graph_automorphisms(alg.digraph):
                out = solve_monomial(alg, alg, sigma)
                assert out.status is SolveStatus.COMPLETE
                for m in out.maps:
                    assert verify_map(alg, alg, m)


class TestDiagonalSubgroup:
    def test_k2_over_zeta3(self):
        lat = diagonal_subgroup(complete_algebra(2, Z3))
        assert lat.order == 3
        z = Z3.zeta
        gen = MonomialMap.diagonal((z, z * z))
        maps = set(lat.maps())
        assert gen in maps
        # the stated generator really generates the whole subgroup
        assert {gen, gen * gen, gen * gen * gen} == maps

    def test_cycle_over_zeta7(self):
        lat = diagonal_subgroup(cycle_algebra(3, field=Z7))
        assert lat.order == 7
        orders = sorted(m.order() for m in lat.maps())
        assert orders == [1] + [7] * 6

    def test_maps_obey_the_closure_cap(self, monkeypatch):
        # the listed diagonal group counts against the one list cap, read at
        # call time
        lat = diagonal_subgroup(cycle_algebra(3, field=Z7))
        monkeypatch.setattr(digraph, "CLOSURE_CAP", 6)
        with pytest.raises(CapExceededError):
            lat.maps()
        monkeypatch.setattr(digraph, "CLOSURE_CAP", 7)
        assert len(lat.maps()) == 7

    def test_trivial_over_q(self):
        rng = random.Random(31)
        for _ in range(15):
            alg = random_idempotent(Q, rng.randint(1, 4), rng)
            assert diagonal_subgroup(alg).order == 1

    def test_matches_identity_solve(self):
        rng = random.Random(37)
        for field in (PrimeField(7), PrimeField(13), Z3, Z7):
            for _ in range(8):
                n = rng.randint(1, 3)
                alg = random_idempotent(field, n, rng)
                lat = diagonal_subgroup(alg)
                out = solve_monomial(alg, alg, tuple(range(n)))
                assert out.status is SolveStatus.COMPLETE
                assert set(lat.maps()) == set(out.maps)

    def test_orders_divide_transversal_bound(self):
        rng = random.Random(41)
        for field in (PrimeField(3), PrimeField(7), Z7):
            for _ in range(10):
                alg = random_idempotent(field, rng.randint(2, 3), rng)
                bound = 2**alg.min_transversal_order - 1
                for m in diagonal_subgroup(alg).maps():
                    order = m.order()
                    assert bound % order == 0
                    assert order % 2 == 1

    @pytest.mark.parametrize("p, order", [(1000003, 1), (1000133, 7)])
    def test_maps_raise_only_listed_exponents(self, monkeypatch, p, order):
        # the modulus is p - 1 > 10^6, and the listed maps need at most
        # `order` powers of the generator, not all p - 1 of them
        lat = diagonal_subgroup(cycle_algebra(3, field=PrimeField(p)))
        assert lat.modulus == p - 1 and lat.order == order
        products = []
        real = Scalar.__mul__

        def counted(x, y):
            products.append((x, y))
            return real(x, y)

        monkeypatch.setattr(Scalar, "__mul__", counted)
        maps = lat.maps()
        assert len(maps) == order and len(set(maps)) == order
        assert all(m.order() in (1, 7) for m in maps)
        assert len(products) < 100

    def test_constraints_read_the_support(self):
        # the congruence rows come from the zero pattern; no entry is boxed
        rng = random.Random(43)
        for field in (GF7, Q, Z7):
            alg = random_idempotent(field, 3, rng)
            diagonal_subgroup(alg)
            assert "rows" not in vars(alg)

    def test_conductor_flag(self):
        # the 3-cycle allows |D| up to 2^3 - 1 = 7: mu_6 lacks those roots
        assert not cycle_algebra(3, field=Z3).conductor_sufficient
        assert cycle_algebra(3, field=Z7).conductor_sufficient
        assert cycle_algebra(3, field=PrimeField(29)).conductor_sufficient
        assert not cycle_algebra(3, field=GF7).conductor_sufficient


def with_pattern(field, n, bits, rng, tries=200):
    """A nonsingular algebra over ``field`` whose zero pattern has bit
    k * n + j set exactly where a_kj != 0, or None if none turned up."""
    for _ in range(tries):
        alg = EvolutionAlgebra(
            field,
            [
                [random_nonzero(field, rng) if bits >> (k * n + j) & 1 else 0 for j in range(n)]
                for k in range(n)
            ],
        )
        if alg.is_idempotent:
            return alg
    return None


class TestDiagonalFromPattern:
    """D read off the zero pattern is the solve of A against itself under
    sigma = id, which stays here as the reference, and D solved in exponent
    space by the Smith normal form. Where the loop rule gives D = {1}
    without a solve, the unit-ratio solve that it stands in for gives D =
    {1} too."""

    @staticmethod
    def check(alg):
        reference = solve_monomial(alg, alg, tuple(range(alg.n)))
        assert reference.status is SolveStatus.COMPLETE
        diagonal = solver.pattern_solve(alg).diagonal
        assert diagonal == reference.maps == diagonal_subgroup(alg).maps()
        if solver._loops_reach_all(alg.digraph.rows):
            one = alg.field.one.value
            outcome = solver._solve_components(alg, tuple(range(alg.n)), lambda j, k: one)
            assert outcome.maps == (MonomialMap.identity(alg.field, alg.n),)
        return diagonal

    @pytest.mark.parametrize(
        "field",
        [PrimeField(3), PrimeField(5), GF7, PrimeField(13), Q, Z3, Z7, CyclotomicField(15)],
        ids=lambda field: field.descriptor(),
    )
    def test_every_small_pattern(self, field):
        rng = random.Random(211)
        checked = looped = 0
        for n in (1, 2, 3):
            for bits in range(2 ** (n * n)):
                rows = [bits >> (k * n) & (2**n - 1) for k in range(n)]
                if next(transversals(Digraph(n, rows)), None) is None:
                    continue  # every matrix with this pattern is singular
                alg = with_pattern(field, n, bits, rng)
                assert alg is not None, (n, rows)
                assert alg.digraph.rows == tuple(rows)
                self.check(alg)
                checked += 1
                looped += solver._loops_reach_all(alg.digraph.rows)
        assert checked > 100 and 0 < looped < checked

    @pytest.mark.parametrize(
        "field",
        [PrimeField(3), GF7, PrimeField(13), Z3, Z7, CyclotomicField(15)],
        ids=lambda field: field.descriptor(),
    )
    def test_random_n4_to_n6_patterns(self, field):
        rng = random.Random(311)
        checked = 0
        while checked < 200:
            n = rng.randint(4, 6)
            alg = with_pattern(field, n, rng.getrandbits(n * n), rng, tries=1)
            if alg is not None:
                self.check(alg)
                checked += 1

    def test_loop_rule_decides_where_the_gcd_rule_cannot(self):
        # the only transversal is the 2-cycle (0 1), and gcd(2^2 - 1, 6) = 3
        # over GF(7); the loop at 0 gives d_0 = 1 and a_10 gives d_1 = d_0^2
        alg = EvolutionAlgebra(GF7, [[1, 1], [1, 0]])
        assert solver._loops_reach_all(alg.digraph.rows)
        assert solver.pattern_solve(alg).diagonal == (MonomialMap.identity(GF7, 2),)
        assert "components" not in vars(alg)
        assert [cycles for cycles, _ in alg.components] == [((0, 1),)]

    @pytest.mark.parametrize("field", [GF7, CyclotomicField(15)], ids=["GF(7)", "Q(zeta_15)"])
    def test_random_n4_patterns(self, field):
        rng = random.Random(223)
        checked = 0
        while checked < 300:
            alg = with_pattern(field, 4, rng.getrandbits(16), rng, tries=1)
            if alg is not None:
                self.check(alg)
                checked += 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_ones_cycle_has_full_d(self, n):
        field = CyclotomicField(2**n - 1)
        assert len(self.check(cycle_algebra(n, field=field))) == 2**n - 1

    def test_entries_are_not_inverted(self):
        rng = random.Random(227)
        for field in (GF7, Q, Z7):
            alg = random_idempotent(field, 3, rng)
            solver.pattern_solve(alg)
            assert "inverses" not in vars(alg) and "loop_invariants" not in vars(alg)


class TestAutomorphismGroup:
    def test_k4_over_q(self):
        grp = automorphism_group(complete_algebra(4))
        assert grp.order == 24 and grp.complete

    def test_cycle3_over_zeta7(self):
        grp = automorphism_group(cycle_algebra(3, field=Z7))
        assert grp.order == 21

    def test_k2_over_q(self):
        assert automorphism_group(complete_algebra(2)).order == 2

    def test_cycle3_over_q(self):
        grp = automorphism_group(cycle_algebra(3))
        assert grp.order == 3
        assert grp.diagonal_order == 1

    def test_partial_group_when_indeterminate(self):
        f = CyclotomicField(5)
        alg = EvolutionAlgebra(f, [[0, 1], ["1 + z", 0]])
        grp = automorphism_group(alg)
        assert not grp.complete

    def test_pruned_group_equals_union_of_all_solves(self):
        rng = random.Random(23)
        z15 = CyclotomicField(15)
        algebras = [complete_algebra(n, field) for n in range(2, 7) for field in (Q, GF7)]
        algebras += [
            cycle_algebra(3, field=Z7),
            cycle_algebra(3, [2, 3, 1], field=Z7),
            cycle_algebra(4, field=z15),
            cycle_algebra(4, [Fraction(1, 2), 3, -5, 1], field=z15),
        ]
        fields = [PrimeField(p) for p in (3, 5, 7, 13)]
        algebras += [
            random_idempotent(fields[i % 4], 2 + i // 4 % 3, rng) for i in range(72)
        ]
        # complete patterns with a few entries 2: proper lifting subgroups,
        # so sigma without lifts meet a nontrivial image and mark dead cosets
        for i in range(36):
            n, field = 3 + i % 2, (PrimeField(3), PrimeField(5), Q)[i % 3]
            rows = [
                [0 if j == k else 2 if rng.random() < 0.3 else 1 for k in range(n)]
                for j in range(n)
            ]
            alg = EvolutionAlgebra(field, rows)
            if alg.is_idempotent:
                algebras.append(alg)
        for alg in algebras:
            maps, complete = union_of_solves(alg)
            grp = automorphism_group(alg)
            assert set(grp.elements) == maps and len(grp.elements) == len(maps)
            assert grp.complete == complete

    def test_partial_group_is_the_union_of_decided_solves(self):
        z5 = CyclotomicField(5)
        for alg, order in (
            (EvolutionAlgebra(z5, [[0, 1], ["1 + z", 0]]), 1),
            (EvolutionAlgebra(z5, [[0, 1, 1], [1, 0, 1], ["1 + z", 1, 0]]), 1),
            (
                EvolutionAlgebra(
                    z5, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, "1 + z", 0]]
                ),
                2,
            ),
            (EvolutionAlgebra(Z7, [[0, 1, 0], [0, 0, 1], ["1 + z", 0, 0]]), 7),
            (
                EvolutionAlgebra(
                    Z7, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, "1 + z^3", 0]]
                ),
                2,
            ),
        ):
            maps, complete = union_of_solves(alg)
            grp = automorphism_group(alg)
            assert not complete and not grp.complete and grp.generators == ()
            assert set(grp.elements) == maps and grp.order == order

    def test_lifts_settle_a_sigma_whose_own_solve_is_open(self):
        # K3 moved by diag(1, 1, u), u = 1 + zeta_5 a unit of infinite order:
        # the two sigma sending vertex 0 to 2 meet x^7 = -13 - 21z - 13z^2 on
        # the transversal 3-cycle, which kth_roots leaves open, yet their
        # lifts are products of lifts already found, so the group is S3
        z5 = CyclotomicField(5)
        d = (z5.one, z5.one, z5.one + z5.zeta)
        alg = EvolutionAlgebra(
            z5,
            [[d[k] * d[j] ** -2 if k != j else 0 for j in range(3)] for k in range(3)],
        )
        maps, complete = union_of_solves(alg)
        assert not complete and len(maps) == 4
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 6 and maps < set(grp.elements)
        assert all(verify_map(alg, alg, g) for g in grp.elements)

    def test_complete_graph_takes_at_most_n_solves(self, monkeypatch):
        from evoalg import solver

        calls = 0
        real = solver._solve_matched

        def counted(a, b, sigma):
            nonlocal calls
            calls += 1
            return real(a, b, sigma)

        monkeypatch.setattr(solver, "_solve_matched", counted)
        for n in range(4, 8):
            calls = 0
            grp = automorphism_group(complete_algebra(n))
            assert grp.complete and grp.order == math.factorial(n)
            # D is read off the pattern; one solve per new generator
            assert calls == n - 1
        # 24 pattern automorphisms, 4 of which lift: the lifts and the dead
        # cosets of the sigma without lifts leave 9 to solve
        alg = EvolutionAlgebra(Q, [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        calls = 0
        grp = automorphism_group(alg)
        assert grp.order == 4 and calls == 9
        # union_of_solves goes through solve_monomial, which is counted too
        assert grp.complete and set(grp.elements) == union_of_solves(alg)[0]

    def test_k4_moved_settles_to_s4(self):
        alg = k4_moved()
        assert not union_of_solves(alg)[1]
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 24
        assert "S4" in recognize(grp)
        assert all(verify_map(alg, alg, g) for g in grp.elements)

    def test_each_sigma_is_solved_once(self, monkeypatch):
        solved = []
        real = solver._solve_matched

        def counted(a, b, sigma):
            solved.append(sigma)
            return real(a, b, sigma)

        monkeypatch.setattr(solver, "_solve_matched", counted)
        assert automorphism_group(k4_moved()).complete
        assert len(solved) == len(set(solved)) == 5
        assert tuple(range(4)) not in solved  # D comes from the pattern

    def test_dead_coset_of_the_final_image_settles_an_open_sigma(self):
        # a transposition without lifts marks only itself while the image is
        # trivial; once the 3-cycles lift, its coset holds the transposition
        # whose own solve stayed open
        z5 = CyclotomicField(5)
        base = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
        alg = moved(base, (z5.one, z5.one, z5.one + z5.zeta))
        maps, complete = union_of_solves(alg)
        assert not complete and len(maps) == 2
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 3 and maps < set(grp.elements)

    def test_double_coset_of_a_barren_sigma_settles_an_open_sigma(self):
        # H = {id, (0 2)}; tau = (1 2) has no lift and its right coset H*tau
        # holds no open sigma, but H*tau*H holds both open ones: tau*(0 2)
        # and (0 2)*tau*(0 2)
        z5 = CyclotomicField(5)
        u = z5.one + z5.zeta
        alg = moved([[0, 2, 1], [1, 0, 1], [1, 2, 0]], (z5.one, u * u, z5.one))
        maps, complete = union_of_solves(alg)
        assert not complete and len(maps) == 2
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 2 and set(grp.elements) == maps

    def test_both_sides_of_the_double_coset_are_searched(self):
        # the lifts give H = S3 fixing vertex 0; of the 18 sigma moving
        # vertex 0, the 4-cycle tau = (0 1 2 3) is decided without lifts and
        # the others the walk solves stay open. H*tau*H holds all 18, while
        # H*tau and H*tau^-1 hold 12
        z5 = CyclotomicField(5)
        u = z5.one + z5.zeta
        base = [[0, 3, 3, 3], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        alg = moved(base, (u, u * u, u * u, u * u))
        maps, complete = union_of_solves(alg)
        assert not complete and len(maps) == 6
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 6 and set(grp.elements) == maps

    def test_inverse_of_a_barren_sigma_settles_an_open_sigma(self):
        # a 3-cycle pattern with a trivial image: (0 1 2) has no lift, and
        # the open (0 2 1) is its inverse, which the walk never marked
        z5 = CyclotomicField(5)
        alg = EvolutionAlgebra(
            z5, [[0, 2, 0], [0, 0, "-4 - 2*z - 2*z^2 - 4*z^3"], ["3 + 3*z", 0, 0]]
        )
        maps, complete = union_of_solves(alg)
        assert not complete and len(maps) == 1
        grp = automorphism_group(alg)
        assert grp.complete and grp.order == 1

    def test_diagonal_part_is_d_in_every_field(self):
        # random sparse algebras with a transversal n-cycle: the identity
        # solve is decided, and the diagonal part of every group, partial
        # ones included, is the Smith-normal-form D. GF(p) decides every
        # cycle equation, so the partial groups all come from Q(zeta_m)
        fields = [
            PrimeField(3), PrimeField(5), PrimeField(1000003), PrimeField(2**31 - 1),
            Q, Z3, Z7, CyclotomicField(15), CyclotomicField(5), CyclotomicField(9),
        ]
        rng = random.Random(12)

        def entry(field):
            if isinstance(field, PrimeField):
                return rng.randrange(1, field.p)
            x = field.scalar(rng.choice([1, 2, -1, 3]))
            if isinstance(field, CyclotomicField) and field.m > 1 and rng.random() < 0.5:
                x = x + field.zeta ** rng.randrange(1, field.m)
            return field.one if x.is_zero else x

        partial = 0
        for i in range(400):
            field, n = fields[i % len(fields)], rng.randint(2, 4)
            rows = [
                [entry(field) if j == (k + 1) % n or rng.random() < 0.5 else 0
                 for j in range(n)]
                for k in range(n)
            ]
            alg = EvolutionAlgebra(field, rows)
            if not alg.is_idempotent:
                continue
            identity = solve_monomial(alg, alg, tuple(range(n)))
            assert identity.status is SolveStatus.COMPLETE
            grp = automorphism_group(alg)
            assert grp.complete or not isinstance(field, PrimeField)
            partial += not grp.complete
            assert set(grp.elements[: grp.diagonal_order]) == set(diagonal_subgroup(alg).maps())
        assert partial >= 10

    def test_quotient_embedding(self):
        for alg in (
            complete_algebra(3),
            cycle_algebra(3, field=Z7),
            EvolutionAlgebra(Z3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ):
            grp = automorphism_group(alg)
            report = quotient_embedding_check(grp, alg, diagonal_subgroup(alg))
            assert report.ok

    def test_quotient_check_lists_no_pattern_automorphisms(self, monkeypatch):
        def refuse(g):
            raise AssertionError("graph_automorphisms was called")

        monkeypatch.setattr(digraph, "graph_automorphisms", refuse)
        alg = complete_algebra(4)
        assert quotient_embedding_check(
            automorphism_group(alg), alg, diagonal_subgroup(alg)
        ).ok

    def test_quotient_check_rejects_sigma_off_the_pattern(self):
        # {id, swap} is a closed group, but the swap reverses the edge 0 -> 1
        # of this pattern; its kernel and counts are consistent
        alg = EvolutionAlgebra(Q, [[1, 1], [0, 1]])
        swap = MonomialMap((1, 0), (Q.one, Q.one))
        grp = MonomialGroup(Q, 2, [MonomialMap.identity(Q, 2), swap])
        report = quotient_embedding_check(grp, alg, diagonal_subgroup(alg))
        assert not report.image_in_graph_automorphisms and not report.ok
        assert report.kernel_equals_diagonal and report.image_is_subgroup
        assert report.counts_consistent

    def test_eq34_shape_over_zeta3(self):
        alg = EvolutionAlgebra(Z3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        grp = automorphism_group(alg)
        report = quotient_embedding_check(grp, alg, diagonal_subgroup(alg))
        assert report.diagonal_order == 3
        assert report.image_order == 2
        assert grp.order == 6


class TestSharedDiagonalGroup:
    """When no sigma != id lifts and none is left open, Aut(E) = D, and a
    run builds the group of each D once."""

    @staticmethod
    def fresh_d(alg):
        diagonal = solver.pattern_solve(alg).diagonal
        return close_generators(diagonal, field=alg.field, n=alg.n)

    def test_equal_d_without_lifts_share_one_group(self):
        rng = random.Random(401)
        algebras = [
            random_idempotent(field, n, rng, density=0.9)
            for field in (PrimeField(3), GF7, PrimeField(13))
            for n in (2, 3, 4)
            for _ in range(12)
        ]
        # 2-cycles whose swap does not lift: D = C3 over GF(7) and GF(13)
        algebras += [
            EvolutionAlgebra(field, [[0, a], [b, 0]])
            for field in (GF7, PrimeField(13))
            for a, b in ((6, 5), (4, 6), (2, 3), (6, 2))
        ]
        with solver.pattern_run():
            groups = [automorphism_group(alg) for alg in algebras]
        by_d: dict = {}
        for alg, grp in zip(algebras, groups):
            if grp.order != grp.diagonal_order:
                continue  # some sigma lifts
            assert grp.complete
            assert by_d.setdefault((alg.field, grp.elements), grp) is grp
        assert sum(grp.order == grp.diagonal_order for grp in groups) >= 2 * len(by_d)
        assert any(grp.order > 1 and grp.order == grp.diagonal_order for grp in groups)

    def test_shared_group_is_the_closure_of_d_and_the_oracle(self):
        rng = random.Random(409)
        algebras = [
            random_idempotent(PrimeField(p), n, rng, density=0.9)
            for p in (3, 5, 7, 13)
            for n in ((2, 3, 4) if p <= 7 else (2, 3))
            for _ in range(6)
        ]
        # a 2-cycle, a loop beside a 2-cycle and two 2-cycles joined by an edge:
        # over GF(7) and GF(13), D = C3 and no sigma lifts
        for field in (GF7, PrimeField(13)):
            algebras += [
                EvolutionAlgebra(field, [[0, 6], [5, 0]]),
                EvolutionAlgebra(field, [[3, 0, 0], [0, 0, 4], [0, 5, 0]]),
                EvolutionAlgebra(field, [[0, 0, 3, 0], [0, 0, 0, 4], [1, 0, 0, 2], [0, 4, 0, 0]]),
            ]
        nontrivial = 0
        for alg in algebras:
            with solver.pattern_run():
                grp = automorphism_group(alg)
            if grp.order != grp.diagonal_order:
                continue
            nontrivial += grp.order > 1
            fresh = self.fresh_d(alg)
            assert grp.elements == fresh.elements and grp.generators == fresh.generators
            assert grp.elements == brute_force_automorphisms(alg).elements
        assert nontrivial >= 6

    def test_outside_a_run_the_group_is_built_afresh(self):
        alg = EvolutionAlgebra(GF7, [[0, 6], [5, 0]])  # D = C3, the swap has no lift
        first, second = automorphism_group(alg), automorphism_group(alg)
        assert first is not second and first.elements == second.elements
        assert first.order == first.diagonal_order == 3

    @pytest.mark.parametrize(
        "build",
        [
            k4_moved,
            lambda: complete_algebra(4),
            lambda: EvolutionAlgebra(CyclotomicField(5), [[0, 1], ["1 + z", 0]]),
            lambda: EvolutionAlgebra(
                CyclotomicField(5), [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, "1 + z", 0]]
            ),
        ],
        ids=["k4-moved", "k4", "open-swap", "open-swap-n4"],
    )
    def test_groups_with_a_lifting_or_open_sigma_are_not_shared(self, build):
        with solver.pattern_run():
            first, second = automorphism_group(build()), automorphism_group(build())
        assert first is not second and first.elements == second.elements

    def test_a_nested_run_builds_its_own_group(self):
        alg = EvolutionAlgebra(GF7, [[0, 6], [5, 0]])
        with solver.pattern_run():
            outer = automorphism_group(alg)
            with solver.pattern_run():
                inner = automorphism_group(alg)
                assert automorphism_group(alg) is inner
            assert automorphism_group(alg) is outer
        assert inner is not outer and inner.elements == outer.elements


class TestOracle:
    def test_k2_over_gf7(self):
        grp = brute_force_automorphisms(complete_algebra(2, PrimeField(7)))
        assert grp.order == 6
        diag_values = {
            tuple(x.value for x in m.d) for m in grp.elements[: grp.diagonal_order]
        }
        assert diag_values == {(1, 1), (2, 4), (4, 2)}

    def test_identity_matrix_over_gf5(self):
        alg = EvolutionAlgebra(PrimeField(5), [[1, 0], [0, 1]])
        assert brute_force_automorphisms(alg).order == 2

    def test_dimension_one(self):
        alg = EvolutionAlgebra(PrimeField(11), [[3]])
        assert brute_force_automorphisms(alg).order == 1

    def test_caps(self):
        with pytest.raises(CapExceededError):
            brute_force_automorphisms(complete_algebra(2, PrimeField(17)))
        with pytest.raises(CapExceededError):
            brute_force_automorphisms(complete_algebra(5, PrimeField(3)))

    def test_each_sigma_agrees_with_solver(self):
        # one solve per permutation, pattern automorphism or not, against
        # the oracle's elements with that permutation
        rng = random.Random(54)
        for _ in range(12):
            field = rng.choice([PrimeField(3), PrimeField(5)])
            alg = random_idempotent(field, rng.randint(1, 3), rng)
            oracle = brute_force_automorphisms(alg).elements
            for images in itertools.permutations(range(alg.n)):
                sigma = tuple(images)
                maps = solve_monomial(alg, alg, sigma).maps
                assert maps == tuple(m for m in oracle if m.sigma == sigma)

    def test_agrees_with_solver(self):
        rng = random.Random(53)
        for _ in range(30):
            field = rng.choice([PrimeField(3), PrimeField(5), PrimeField(7)])
            alg = random_idempotent(field, rng.randint(2, 3), rng)
            fast = automorphism_group(alg)
            slow = brute_force_automorphisms(alg)
            assert fast.elements == slow.elements


def _products_mod_p(alg, images, d):
    """A G^(2) and G A for the monomial matrix G with G[images[i]][i] = d[i],
    as full int matrices mod p."""
    n, p = alg.n, alg.field.p
    g = [[0] * n for _ in range(n)]
    g_sq = [[0] * n for _ in range(n)]
    for i, x in enumerate(d):
        g[images[i]][i] = x
        g_sq[images[i]][i] = x * x

    def mul(x, y):
        cols = tuple(zip(*y))
        return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in x]

    return mul(alg.raw_rows, g_sq), mul(g, alg.raw_rows)


def reference_oracle(alg):
    """The oracle's map list from the two full products compared whole."""
    n, field = alg.n, alg.field
    found = []
    for images in itertools.permutations(range(n)):
        for d in itertools.product(range(1, field.p), repeat=n):
            lhs, rhs = _products_mod_p(alg, images, d)
            if lhs == rhs:
                found.append(MonomialMap(tuple(images), tuple(map(field.scalar, d))))
    return MonomialGroup(field, n, found).elements


class TestOracleInts:
    def test_general_sweep_catches_a_missed_monomial_map(self, monkeypatch):
        # hide the swap of K2 over GF(3) from the monomial sweep: the sweep
        # over every invertible matrix finds it and must raise
        alg = complete_algebra(2, PrimeField(3))
        assert brute_force_automorphisms(alg).order == 2
        hidden = types.SimpleNamespace(
            permutations=lambda seq: iter([tuple(seq)]), product=itertools.product
        )
        monkeypatch.setattr(solver, "itertools", hidden)
        with pytest.raises(RuntimeError, match="non-monomial"):
            brute_force_automorphisms(alg)

    def test_no_boxed_matrix_products(self, monkeypatch):
        # the oracle, the certificate checks and the transport read monomial
        # maps through (sigma, d); none multiplies a dense matrix
        def forbidden(*_):
            raise AssertionError("a boxed matrix product was built")

        monkeypatch.setattr(algebra, "mat_mul", forbidden)
        rng = random.Random(77)
        for p, n in ((3, 1), (3, 2), (3, 2), (5, 2), (7, 3)):
            alg = random_idempotent(PrimeField(p), n, rng)
            assert brute_force_automorphisms(alg).elements == reference_oracle(alg)
            m = random_map(alg.field, n, rng)
            there = transport_structure(alg, m)
            assert certificate_checks(alg, there, m) == {
                "BP2_eq_PA": True,
                "B_PstarP_zero": True,
            }
        assert brute_force_automorphisms(complete_algebra(2, PrimeField(3))).order == 2


class TestOracleRowByRow:
    def test_matches_full_product_comparison(self):
        rng = random.Random(909)
        for p in (3, 5, 7):
            for n in (1, 2, 2, 3, 3):
                alg = random_idempotent(PrimeField(p), n, rng)
                assert brute_force_automorphisms(alg).elements == reference_oracle(alg)

    def test_rejects_map_that_fails_only_on_the_last_row(self):
        rng = random.Random(910)
        for _ in range(200):
            alg = random_idempotent(PrimeField(rng.choice([3, 5, 7])), 3, rng)
            p = alg.field.p
            for images in itertools.permutations(range(3)):
                for d in itertools.product(range(1, p), repeat=3):
                    lhs, rhs = _products_mod_p(alg, images, d)
                    if lhs[:-1] == rhs[:-1] and lhs[-1] != rhs[-1]:
                        near_miss = MonomialMap(
                            tuple(images), tuple(map(alg.field.scalar, d))
                        )
                        found = brute_force_automorphisms(alg).elements
                        assert near_miss not in found
                        assert found == reference_oracle(alg)
                        return
        pytest.fail("no candidate agreeing on every row but the last")


class TestOracleEntryByEntry:
    def test_rejects_map_that_fails_at_one_entry_only(self):
        # for each entry (r, c) of the 3 x 3 products, a monomial G whose
        # dense A G^(2) and G A differ only there; such an entry has both
        # values nonzero, since A and its image under sigma have equally
        # many zeros, so one-sided zeros come at least in pairs
        rng = random.Random(911)
        near_misses = {}
        for _ in range(500):
            alg = random_idempotent(PrimeField(rng.choice([3, 5, 7])), 3, rng)
            for images in itertools.permutations(range(3)):
                for d in itertools.product(range(1, alg.field.p), repeat=3):
                    lhs, rhs = _products_mod_p(alg, images, d)
                    differ = [
                        (r, c)
                        for r in range(3)
                        for c in range(3)
                        if lhs[r][c] != rhs[r][c]
                    ]
                    if len(differ) == 1:
                        near_misses.setdefault(differ[0], (alg, images, d))
            if len(near_misses) == 9:
                break
        assert sorted(near_misses) == list(itertools.product(range(3), repeat=2))
        for alg, images, d in near_misses.values():
            near_miss = MonomialMap(images, tuple(map(alg.field.scalar, d)))
            found = brute_force_automorphisms(alg).elements
            assert near_miss not in found
            assert found == reference_oracle(alg)

    def test_tries_scalings_only_for_pattern_automorphisms(self, monkeypatch):
        # a sigma off the zero pattern pairs a zero with a nonzero entry and
        # is settled before any d is tried, so the monomial sweep makes one
        # product call per pattern automorphism; the general sweep over
        # every invertible matrix makes one more when n <= 2 and p <= 3
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return itertools.product(*args, **kwargs)

        counting = types.SimpleNamespace(
            permutations=itertools.permutations, product=counted
        )
        monkeypatch.setattr(solver, "itertools", counting)
        rng = random.Random(912)
        for _ in range(50):
            alg = random_idempotent(PrimeField(rng.choice([3, 5])), rng.randint(1, 3), rng)
            calls.clear()
            found = brute_force_automorphisms(alg).elements
            general = alg.n <= 2 and alg.field.p <= 3
            assert len(calls) - general == len(graph_automorphisms(alg.digraph))
            assert found == reference_oracle(alg)


class TestIsomorphism:
    def test_decision_can_depend_on_argument_order(self):
        # Each direction roots its own transversal: from A the solve finds a
        # certificate, from B it leaves x^3 = c open. Neither direction may
        # claim non-isomorphism, and the inverse witness maps B onto A.
        a = EvolutionAlgebra(Z3, [
            ["0", "-1", "1", "1/2"],
            ["-3/2", "-1", "2", "3/2"],
            ["-1/2", "5/2", "-1 + z", "0"],
            ["0", "2 + z", "1", "-2 + z"],
        ])
        b = EvolutionAlgebra(Z3, [
            ["-1/2 + 1/2*z", "0", "100/49 + 160/49*z", "1 + z"],
            ["-1/8", "4 - 2*z", "-4/49 - 26/49*z", "0"],
            ["-1/4 + 1/2*z", "-3 + 6*z", "6/7 + 4/7*z", "-9/4 - 3/4*z"],
            ["1/4 + 1/4*z", "2 + 2*z", "12/49 - 20/49*z", "0"],
        ])
        forward, backward = isomorphism(a, b), isomorphism(b, a)
        assert forward.status is IsoStatus.ISOMORPHIC
        assert backward.status is not IsoStatus.NOT_ISOMORPHIC
        assert verify_map(a, b, forward.witness)
        assert verify_map(b, a, forward.witness.inverse())

    def test_kn_vs_two_param_never(self):
        res = isomorphism(two_param(4, 0, 1), two_param(4, 1, 2))
        assert res.status is IsoStatus.NOT_ISOMORPHIC

    def test_scaling_witness(self):
        res = isomorphism(two_param(4, 2, 4), two_param(4, 1, 2))
        assert res.found
        assert res.witness.sigma == (0, 1, 2, 3)
        assert all(x == Q.scalar(2) for x in res.witness.d)
        assert res.certificate["checked"] == {
            "BP2_eq_PA": True,
            "B_PstarP_zero": True,
        }

    def test_different_off_diagonal_not_isomorphic(self):
        res = isomorphism(two_param(4, 1, 2), two_param(4, 1, 3))
        assert res.status is IsoStatus.NOT_ISOMORPHIC
        assert res.candidates_exhausted == 24

    def test_self_isomorphism_uses_identity_permutation(self):
        for alg in (complete_algebra(3), cycle_algebra(4), two_param(3, 1, 2)):
            res = isomorphism(alg, alg)
            assert res.found and res.witness.sigma == tuple(range(alg.n))
            assert verify_map(alg, alg, res.witness)

    def test_witnesses_compose(self):
        # b-vector (8, 2, 1) comes from the scaling vector (1/4, 1/2, 1/2)
        # via b_j = d_{j+1} / d_j^2, so it sits in the orbit of the ones cycle
        a = cycle_algebra(3)
        b = cycle_algebra(3, [128, 1, 1])
        c = cycle_algebra(3, [8, 2, 1])
        ab = isomorphism(a, b)
        bc = isomorphism(b, c)
        assert ab.found and bc.found
        assert verify_map(a, c, bc.witness * ab.witness)

    def test_indeterminate(self):
        f = CyclotomicField(5)
        a = EvolutionAlgebra(f, [[0, 1], ["1 + z", 0]])
        b = EvolutionAlgebra(f, [[0, "1 + z"], [1, 0]])
        res = isomorphism(a, b)
        assert res.status in (IsoStatus.ISOMORPHIC, IsoStatus.INDETERMINATE)


def random_nonzero(field, rng):
    while True:
        x = field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if isinstance(field, CyclotomicField) and field.m > 1 and rng.random() < 0.5:
            x = x + field.scalar(rng.randint(1, 2)) * field.zeta ** rng.randrange(field.degree)
        if not x.is_zero:
            return x


def random_looped(field, n, rng, loops=0.8):
    """A random idempotent algebra whose diagonal entries are nonzero with
    probability ``loops``."""
    while True:
        alg = EvolutionAlgebra(
            field,
            [
                [
                    random_nonzero(field, rng) if rng.random() < (loops if i == j else 0.5) else 0
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )
        if alg.is_idempotent:
            return alg


def random_map(field, n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return MonomialMap(tuple(images), tuple(random_nonzero(field, rng) for _ in range(n)))


class TestLoopInvariants:
    """I_kj = a_kj * a_kk / a_jj^2 between looped k and j is fixed by every
    scaling, so a sigma whose invariants differ cannot lift."""

    def test_table(self):
        alg = EvolutionAlgebra(Q, [[2, 3, 0], [5, 7, 1], [0, 1, 0]])
        inv = alg.loop_invariants
        assert inv.entries == ((0, 1, (3 * 2, 49)), (1, 0, (5 * 7, 4)))
        assert inv.matrix[0][1] == (6, 49) and inv.matrix[1][0] == (35, 4)
        assert inv.matrix[1][2] is None and inv.matrix[0][0] is None

    def test_transport_preserves_invariants(self):
        rng = random.Random(81)
        for field in (PrimeField(3), PrimeField(5), Q, Z7):
            checked = 0
            for _ in range(15):
                a = random_looped(field, rng.randint(2, 5), rng)
                p = random_map(field, a.n, rng)
                b = transport_structure(a, p)
                s = p.sigma
                for k, j, value in a.loop_invariants.entries:
                    assert b.loop_invariants.matrix[s[k]][s[j]] == value
                    checked += 1
                assert len(b.loop_invariants.entries) == len(a.loop_invariants.entries)
            assert checked > 0

    def test_check_agrees_with_unchecked_solve(self, monkeypatch):
        # over every sigma, the check changes no decided outcome; it can only
        # decide, with no maps, a solve that was left open
        rng = random.Random(82)
        cases = []
        for field in (PrimeField(3), PrimeField(5), Q, CyclotomicField(5)):
            for _ in range(12):
                a = random_looped(field, rng.randint(2, 5), rng, rng.choice((0.5, 0.8)))
                p = random_map(field, a.n, rng)
                rows = [list(row) for row in a.rows]
                pairs = [(k, j) for k, j, _ in a.loop_invariants.entries]
                if pairs:
                    k, j = rng.choice(pairs)
                    rows[k][j] = rows[k][j] * field.scalar(2) + field.one
                other = EvolutionAlgebra(field, rows)
                cases.append((a, a))
                cases.append((a, transport_structure(a, p)))
                if other.is_idempotent:
                    cases.append((a, transport_structure(other, p)))

        def outcomes():
            return [
                [solve_monomial(a, b, tuple(images)) for images in itertools.permutations(range(a.n))]
                for a, b in cases
            ]

        checked = outcomes()
        with monkeypatch.context() as m:
            m.setattr(EvolutionAlgebra, "loop_invariants", property(lambda self: LoopInvariants((), ())))
            unchecked = outcomes()
        rejected = opened = 0
        for row_checked, row_unchecked in zip(checked, unchecked):
            for with_check, without in zip(row_checked, row_unchecked):
                if without.status is SolveStatus.INDETERMINATE:
                    opened += 1
                    if with_check != without:
                        assert with_check == SolveOutcome(SolveStatus.COMPLETE)
                        continue
                assert with_check == without
                if with_check.status is SolveStatus.COMPLETE and not with_check.maps:
                    rejected += 1
        assert rejected > 0 and opened > 0

    def test_mismatch_decides_an_open_solve(self, tmp_path, capsys):
        # vertices 0 and 1 carry loops, 2 and 3 a 2-cycle in the same
        # component; that cycle closes to an equation x^3 = c no rule
        # decides, so the solve alone is INDETERMINATE. The loop invariant
        # I_10 is 1 in A and 2 in B, which decides it: no map exists.
        f = CyclotomicField(5)
        rows_a = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
        rows_b = [[1, 0, 0, 0], [2, 1, 0, 0], [0, 1, 0, 1], [0, 0, "1 + z", 0]]
        a, b = EvolutionAlgebra(f, rows_a), EvolutionAlgebra(f, rows_b)
        assert a.loop_invariants.entries == ((1, 0, f.one.value),)
        assert b.loop_invariants.matrix[1][0] == f.scalar(2).value
        out = solve_monomial(a, b, tuple(range(4)))
        assert out == SolveOutcome(SolveStatus.COMPLETE)
        res = isomorphism(a, b)
        assert res.status is IsoStatus.NOT_ISOMORPHIC and res.candidates_exhausted == 1
        # at the command line the pair exits 4 (non-isomorphic), not 3
        from evoalg.cli import main

        paths = []
        for name, alg in (("a.json", a), ("b.json", b)):
            alg.dump(str(tmp_path / name))
            paths.append(str(tmp_path / name))
        assert main(["iso", "--in", paths[0], "--b", paths[1]]) == 4
        assert '"status":"non-isomorphic"' in capsys.readouterr().out.replace(" ", "")

    def test_pattern_solve_builds_no_table(self):
        alg = two_param(4, 1, 2)
        solver.pattern_solve(alg)
        assert "loop_invariants" not in vars(alg) and "inverses" not in vars(alg)
        solve_monomial(alg, alg, (1, 0, 2, 3))
        assert "loop_invariants" in vars(alg)

    def test_twoparam_pair_needs_no_kth_roots(self, monkeypatch):
        # I = b / a is 2 in A and 15 * 3 / 3^2 = 5 in B, so each of the 5040
        # pattern maps is rejected before its cycle equations
        calls = 0
        real = Field.kth_roots

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(Field, "kth_roots", counted)
        res = isomorphism(two_param(7, 1, 2), two_param(7, 3, 15))
        assert res.status is IsoStatus.NOT_ISOMORPHIC
        assert res.candidates_exhausted == 5040
        assert calls == 0


class TestVerifyMap:
    def test_identity(self):
        alg = complete_algebra(3)
        assert verify_map(alg, alg, MonomialMap.identity(Q, 3))

    def test_swap_on_k2(self):
        alg = complete_algebra(2)
        swap = MonomialMap((1, 0), (Q.one, Q.one))
        assert verify_map(alg, alg, swap)

    def test_bad_diagonal_rejected(self):
        alg = complete_algebra(2)
        bad = MonomialMap.diagonal((Q.scalar(2), Q.one))
        assert not verify_map(alg, alg, bad)


def dense_checks(a, b, m):
    """Both certificate identities by boxed matrix products, for P the dense
    form of m: B P^(2) = P A, and B (P * P) = 0 with column (i, j), i < j,
    of P * P holding the products p_ki * p_kj."""
    p, n = matrix(m), m.n
    star = tuple(
        tuple(p[k][i] * p[k][j] for i in range(n) for j in range(i + 1, n))
        for k in range(n)
    )
    return {
        "BP2_eq_PA": mat_equal(mat_mul(b.rows, entrywise_square(p)), mat_mul(p, a.rows)),
        "B_PstarP_zero": all(x.is_zero for row in mat_mul(b.rows, star) for x in row),
    }


class TestCertificateChecks:
    """The entrywise checks agree with the dense matrix products, negative
    cases included."""

    FIELDS = (PrimeField(5), Q, CyclotomicField(5), CyclotomicField(15))

    def cases(self, rng):
        for field in self.FIELDS:
            for _ in range(6):
                a = random_looped(field, rng.randint(1, 4), rng, loops=0.5)
                m = random_map(field, a.n, rng)
                yield a, transport_structure(a, m), m

    def test_true_certificates(self):
        rng = random.Random(121)
        for a, b, m in self.cases(rng):
            checks = certificate_checks(a, b, m)
            assert checks == dense_checks(a, b, m)
            assert checks == {"BP2_eq_PA": True, "B_PstarP_zero": True}

    def test_one_wrong_scaling(self):
        # scaling d_i by 2 breaks column i of B P^(2) = P A, since 2^2 != 1
        # and 2^2 != 2 in every field here
        rng = random.Random(122)
        for a, b, m in self.cases(rng):
            i = rng.randrange(m.n)
            two = m.field.scalar(2)
            wrong = MonomialMap(m.sigma, [x * two if v == i else x for v, x in enumerate(m.d)])
            checks = certificate_checks(a, b, wrong)
            assert checks == dense_checks(a, b, wrong)
            assert checks == {"BP2_eq_PA": False, "B_PstarP_zero": True}

    def test_fails_only_at_a_zero_entry(self):
        # B is the transport of A with one entry b_{sigma k sigma j} set to
        # zero, or a zero one set nonzero: every other entry still holds
        rng = random.Random(123)
        seen = 0
        for a, b, m in self.cases(rng):
            s = m.sigma
            for k, j in itertools.product(range(a.n), repeat=2):
                rows = [list(row) for row in b.rows]
                if a.rows[k][j].is_zero:
                    rows[s[k]][s[j]] = a.field.one
                else:
                    rows[s[k]][s[j]] = a.field.zero
                broken = EvolutionAlgebra(a.field, rows)
                checks = certificate_checks(a, broken, m)
                assert checks == dense_checks(a, broken, m)
                assert checks == {"BP2_eq_PA": False, "B_PstarP_zero": True}
                seen += 1
        assert seen > 100

    def test_field_mismatch(self):
        a = complete_algebra(3)
        b = complete_algebra(3, PrimeField(5))
        with pytest.raises(FieldMismatchError):
            certificate_checks(a, b, MonomialMap.identity(Q, 3))
        with pytest.raises(FieldMismatchError):
            certificate_checks(a, a, MonomialMap.identity(PrimeField(5), 3))
