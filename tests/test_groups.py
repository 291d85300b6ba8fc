import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dense import mat_equal, matrix
from evoalg import digraph, groups, solver
from evoalg.algebra import EvolutionAlgebra, mat_mul
from evoalg.digraph import cycles
from evoalg.errors import CapExceededError, UnclosedGroupError
from evoalg.families import complete_graph_algebra, cycle_algebra
from evoalg.fields import CyclotomicField, PrimeField, RationalField
from evoalg.groups import (
    MonomialGroup,
    MonomialMap,
    _normal_in,
    close_generators,
    compose,
    quotient_embedding_check,
    recognize,
)
from evoalg.solver import automorphism_group, diagonal_subgroup

Q = RationalField()
Z3 = CyclotomicField(3)


def random_monomial(field, n, rng):
    images = list(range(n))
    rng.shuffle(images)
    d = []
    for _ in range(n):
        while True:
            x = field.scalar(rng.randint(-4, 4))
            if not x.is_zero:
                d.append(x)
                break
    return MonomialMap(images, tuple(d))


class TestComposition:
    def test_identity_neutral(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_monomial(Q, 3, rng)
            ident = MonomialMap.identity(Q, 3)
            assert ident * g == g and g * ident == g

    def test_matches_matrix_product(self):
        z = Z3.zeta
        swap = MonomialMap((1, 0), (Z3.one, Z3.one))
        diag = MonomialMap.diagonal((z, z * z))
        prod = swap * diag
        assert mat_equal(matrix(prod), mat_mul(matrix(swap), matrix(diag)))

    def test_matrix_product_random(self):
        rng = random.Random(4)
        for field in (Q, PrimeField(7), Z3):
            for _ in range(10):
                g = random_monomial(field, 4, rng)
                h = random_monomial(field, 4, rng)
                assert mat_equal(matrix(g * h), mat_mul(matrix(g), matrix(h)))

    def test_inverse_of_cycle(self):
        # the cycle (0 1 2) and its inverse (0 2 1)
        g = MonomialMap((1, 2, 0), (Q.one,) * 3)
        assert g.inverse() == MonomialMap((2, 0, 1), (Q.one,) * 3)

    def test_inverse_random(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_monomial(Q, 4, rng)
            assert g * g.inverse() == MonomialMap.identity(Q, 4)

    def test_associative(self):
        rng = random.Random(8)
        for _ in range(15):
            a, b, c = (random_monomial(PrimeField(5), 3, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_permutation_part_is_homomorphic(self):
        rng = random.Random(10)
        for _ in range(15):
            g = random_monomial(Q, 4, rng)
            h = random_monomial(Q, 4, rng)
            assert (g * h).sigma == compose(g.sigma, h.sigma)

    def test_order_matches_repeated_composition(self):
        # the repeated product is the definition the cycle formula must meet;
        # entries are arbitrary units, only each cycle's product is a root of
        # unity, so the order is finite without every entry having one
        rng = random.Random(16)
        for field in (
            PrimeField(7), PrimeField(13), Q, Z3, CyclotomicField(7), CyclotomicField(15)
        ):
            roots = field.roots_of_unity(field.unity_group().order)
            for _ in range(12):
                g = random_monomial(field, 4, rng)
                while g.sigma == (0, 1, 2, 3):
                    g = random_monomial(field, 4, rng)
                d = list(g.d)
                for cycle in cycles(g.sigma):
                    rest = field.one
                    for v in cycle[:-1]:
                        rest = rest * d[v]
                    d[cycle[-1]] = rng.choice(roots) / rest
                g = MonomialMap(g.sigma, d)
                ident = MonomialMap.identity(field, 4)
                naive, cur = None, g
                for k in range(1, 500):
                    if cur == ident:
                        naive = k
                        break
                    cur = cur * g
                assert g.order() == naive

    def test_order_rejects_non_unity_scaling(self):
        from evoalg.errors import CapExceededError

        with pytest.raises(CapExceededError):
            MonomialMap.diagonal((Q.scalar(2),)).order()

    def test_conjugation_permutes_diagonal(self):
        # P_sigma^{-1} diag(d) P_sigma equals diag(d composed with sigma)
        rng = random.Random(12)
        for _ in range(15):
            n = 4
            perm = random_monomial(Q, n, rng)
            perm = MonomialMap(perm.sigma, (Q.one,) * n)
            diag = MonomialMap.diagonal(
                tuple(Q.scalar(rng.randint(1, 9)) for _ in range(n))
            )
            conj = perm.inverse() * diag * perm
            expected = MonomialMap.diagonal(
                tuple(diag.d[perm.sigma[i]] for i in range(n))
            )
            assert conj == expected


class TestClosure:
    def test_empty_generators(self):
        grp = close_generators([], field=Q, n=2)
        assert grp.order == 1 and grp.complete

    def test_third_roots_diagonal(self):
        z = Z3.zeta
        grp = close_generators([MonomialMap.diagonal((z, z * z))])
        assert grp.order == 3

    def test_swap_and_diagonal_give_order_six(self):
        z = Z3.zeta
        swap = MonomialMap((1, 0), (Z3.one, Z3.one))
        grp = close_generators([swap, MonomialMap.diagonal((z, z * z))])
        assert grp.order == 6

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(digraph, "CLOSURE_CAP", 10)
        with pytest.raises(CapExceededError):
            close_generators([MonomialMap.diagonal((Q.scalar(2),))])

    def test_closure_is_verified_closed(self):
        rng = random.Random(14)
        gens = [random_monomial(PrimeField(5), 3, rng) for _ in range(2)]
        grp = close_generators(gens)
        assert MonomialGroup(grp.field, grp.n, grp.elements).complete

    def test_set_without_identity_rejected(self):
        z = Z3.zeta
        with pytest.raises(UnclosedGroupError):
            MonomialGroup(Z3, 2, [MonomialMap.diagonal((z, z * z))])

    def test_set_missing_a_power_rejected(self):
        # {id, g} with g of order 3 lacks g^2
        z = Z3.zeta
        g = MonomialMap.diagonal((z, z * z))
        with pytest.raises(UnclosedGroupError):
            MonomialGroup(Z3, 2, [MonomialMap.identity(Z3, 2), g])

    def test_generators_generate_the_group(self):
        rng = random.Random(18)
        groups = [
            automorphism_group(complete_graph_algebra(4, Q)),
            TestRecognition().s3_over_zeta3(),
            close_generators([random_monomial(PrimeField(5), 3, rng) for _ in range(2)]),
        ]
        for grp in groups:
            assert close_generators(list(grp.generators)).elements == grp.elements

    def test_golden_generators_k5(self):
        # the greedy rule: each sorted element not generated by the ones before
        grp = automorphism_group(complete_graph_algebra(5, Q))
        assert [g.to_json() for g in grp.generators] == [
            {"sigma": list(images), "d": ["1"] * 5}
            for images in (
                [1, 2, 3, 5, 4],
                [1, 2, 4, 3, 5],
                [1, 3, 2, 4, 5],
                [2, 1, 3, 4, 5],
            )
        ]

    def test_golden_generators_s3_over_zeta3(self):
        grp = TestRecognition().s3_over_zeta3()
        assert [g.to_json() for g in grp.generators] == [
            {"sigma": [1, 2], "d": ["-1 - z", "z"]},
            {"sigma": [2, 1], "d": ["-1 - z", "z"]},
        ]

    def test_closure_work_is_linear_in_order(self, monkeypatch):
        # Dimino's closure costs at most |G| * (|S| + 1) products of keys:
        # one per coset element, and the products with the generators and
        # the support of each coset representative; checking every pair of
        # K6's 720 automorphisms would take 518,400. S6 is held by its chain
        # and listed on the first read of its elements: the listing's
        # closure and its proof share that budget
        calls = 0
        compose, apply = groups.compose, groups._apply

        def counted_compose(a, b):
            nonlocal calls
            calls += 1
            return compose(a, b)

        def counted_apply(*args):
            nonlocal calls
            calls += 1
            return apply(*args)

        monkeypatch.setattr(groups, "compose", counted_compose)
        monkeypatch.setattr(groups, "_apply", counted_apply)
        grp = automorphism_group(complete_graph_algebra(6, Q))
        assert grp.order == 720 and len(grp.elements) == 720
        assert 0 < calls <= grp.order * (len(grp.generators) + 1)

    def test_large_diagonal_group_costs_lookups_linear_in_order(self, monkeypatch):
        # the 8-cycle over GF(1021) has |D| = 255, |G| = 2040 and an Omega
        # of 2040 points. Elements hold n basis images each, and a coset
        # representative only the points its subgroup reaches, so the walk
        # and the proof together look up at most 4 (|S| + 2) n |G| images;
        # holding every element over all of Omega would take |G| |Omega|
        n = 8
        looked_up = 0
        compose, apply = groups.compose, groups._apply

        def counted_compose(a, b):
            nonlocal looked_up
            looked_up += len(b)
            return compose(a, b)

        def counted_apply(field, points, point, n, x, js):
            nonlocal looked_up
            looked_up += len(js)
            return apply(field, points, point, n, x, js)

        monkeypatch.setattr(groups, "compose", counted_compose)
        monkeypatch.setattr(groups, "_apply", counted_apply)
        grp = automorphism_group(cycle_algebra(n, PrimeField(1021)))
        assert grp.order == 2040 and grp.diagonal_order == 255
        assert len(grp._points) == 2040
        assert all(len(key) == n for key in grp._keys)
        assert looked_up <= 4 * (len(grp.generators) + 2) * n * grp.order

    def test_field_products_are_linear_in_order(self, monkeypatch):
        # with the solves and D answered from a cache, the field products left
        # are the closures': at most n per Dimino product and one per point
        # a new coset representative carries, (|S| + 2) n |G| per closure.
        # K6 over Q scales nothing, so its Omega is the basis and it needs
        # none; K6 moved by diag(1, ..., 6) has 30 more points, and the
        # 8-cycle over GF(1021) an Omega of n |G| points
        moved_k6 = EvolutionAlgebra(
            Q,
            [
                [Q.scalar(0 if k == j else Fraction(k + 1, (j + 1) ** 2)) for j in range(6)]
                for k in range(6)
            ],
        )
        for alg, omega in (
            (complete_graph_algebra(6, Q), 6),
            (moved_k6, 36),
            (cycle_algebra(8, PrimeField(1021)), 2040),
        ):
            field = alg.field
            outcomes = {}
            real = solver._solve_matched

            def recorded(a, b, sigma):
                outcomes[sigma] = real(a, b, sigma)
                return outcomes[sigma]

            monkeypatch.setattr(solver, "_solve_matched", recorded)
            automorphism_group(alg)
            monkeypatch.setattr(solver, "_solve_matched", lambda a, b, sigma: outcomes[sigma])
            # D is read off the pattern: answered from a cache as well
            pattern = solver.pattern_solve(alg)
            monkeypatch.setattr(solver, "pattern_solve", lambda a: pattern)
            calls, walk = 0, []
            mul, init = field._mul, MonomialGroup.__init__

            def counted(x, y):
                nonlocal calls
                calls += 1
                return mul(x, y)

            def proof(self, field, n, closure, **kwargs):
                walk.append((calls, len(closure.generators)))
                init(self, field, n, closure, **kwargs)

            monkeypatch.setattr(field, "_mul", counted)
            monkeypatch.setattr(MonomialGroup, "__init__", proof)
            grp = automorphism_group(alg)
            monkeypatch.undo()
            assert grp.complete and len(grp._points) == omega
            (walk_calls, walk_generators), = walk
            n, order = alg.n, grp.order
            if omega == n:
                assert calls == 0
            assert walk_calls <= (walk_generators + 2) * n * order
            assert calls - walk_calls <= (len(grp.generators) + 2) * n * order


def finite_random_group(field, n, rng):
    """Two random monomial maps of finite order conjugated by a random
    diagonal map, so the group they generate is finite while its scalings
    need not be roots of unity."""
    roots = field.roots_of_unity(math.gcd(field.unity_group().order, 6))
    t = random_monomial(field, n, rng)
    t = MonomialMap.diagonal(t.d)
    gens = []
    for _ in range(2):
        sigma = random_monomial(field, n, rng).sigma
        g = MonomialMap(sigma, [rng.choice(roots) for _ in range(n)])
        gens.append(t.inverse() * g * t)
    return close_generators(gens)


class TestIntForm:
    FIELDS = (
        PrimeField(3),
        PrimeField(7),
        PrimeField(1000003),
        Q,
        CyclotomicField(5),
        CyclotomicField(15),
    )

    def test_int_form_matches_monomial_maps(self):
        rng = random.Random(31)
        for field in self.FIELDS:
            for _ in range(4):
                grp = finite_random_group(field, 3, rng)
                keys, elements = grp._keys, grp.elements
                identity = tuple(range(3))
                assert list(elements) == sorted(elements, key=MonomialMap.sort_key)
                assert len(set(elements)) == grp.order
                assert all(grp._box(p) == g for p, g in zip(keys, elements))
                assert grp.element_orders == tuple(g.order() for g in elements)
                for _ in range(20):
                    i, j = rng.randrange(grp.order), rng.randrange(grp.order)
                    product = grp._product(keys[i], keys[j])
                    assert grp._box(product) == elements[i] * elements[j]
                    inverse = next(q for q in keys if grp._product(keys[i], q) == identity)
                    assert grp._box(inverse) == elements[i].inverse()
                # the same maps handed over boxed are keyed by their basis
                # images and give the same group
                boxed = MonomialGroup(field, 3, reversed(elements))
                assert boxed.elements == elements
                assert boxed.generators == grp.generators
                assert boxed.element_orders == grp.element_orders

    def test_infinite_order_generator_passes_the_cap(self, monkeypatch):
        # (0 1) with scalings (2, 1) squares to diag(2, 2): Omega grows
        # without end
        swap = MonomialMap((1, 0), (Q.scalar(2), Q.one))
        monkeypatch.setattr(digraph, "CLOSURE_CAP", 50)
        with pytest.raises(CapExceededError):
            close_generators([swap])
        with pytest.raises(UnclosedGroupError):
            MonomialGroup(Q, 2, [MonomialMap.identity(Q, 2), swap])


class TestRecognition:
    def s3_over_zeta3(self):
        z = Z3.zeta
        swap = MonomialMap((1, 0), (Z3.one, Z3.one))
        return close_generators([swap, MonomialMap.diagonal((z, z * z))])

    def test_trivial(self):
        assert recognize(close_generators([], field=Q, n=1)) == ["trivial", "C1"]

    def test_cyclic_prime_order(self):
        z = Z3.zeta
        grp = close_generators([MonomialMap.diagonal((z, z * z))])
        assert recognize(grp) == ["C3"]

    def test_symmetric_via_histogram(self):
        # order 6 on two indices: the faithful-image path cannot apply
        assert recognize(self.s3_over_zeta3()) == ["S3", "Dih3", "C3:C2"]

    def test_element_orders_are_computed_once(self, monkeypatch):
        rng = random.Random(19)
        for grp in (
            automorphism_group(complete_graph_algebra(4, Q)),
            self.s3_over_zeta3(),
            close_generators([random_monomial(PrimeField(7), 3, rng) for _ in range(2)]),
        ):
            assert grp.element_orders == tuple(g.order() for g in grp.elements)

        grp = self.s3_over_zeta3()
        calls = 0
        order = MonomialGroup._order

        def counted(group, key):
            nonlocal calls
            calls += 1
            return order(group, key)

        monkeypatch.setattr(MonomialGroup, "_order", counted)
        recognize(grp)
        recognize(grp)
        assert calls == grp.order

    def test_absent_order_rejects_without_a_scan(self, monkeypatch):
        # C2^3 has no element of order 8 or 4, so neither C8 nor Dih4 needs
        # a single product once the orders are known
        one, minus = Q.one, -Q.one
        grp = close_generators(
            [
                MonomialMap.diagonal((minus, one, one)),
                MonomialMap.diagonal((one, minus, one)),
                MonomialMap.diagonal((one, one, minus)),
            ]
        )
        assert grp.order == grp.diagonal_order == 8
        assert set(grp.element_orders) == {1, 2}

        def refuse(*_):
            raise AssertionError("an element was examined")

        class Unscanned(tuple):
            def __iter__(self):
                refuse()

        for name in ("__mul__", "inverse", "order", "to_json"):
            monkeypatch.setattr(MonomialMap, name, refuse)
        for name in ("_product", "_box", "_order"):
            monkeypatch.setattr(MonomialGroup, name, refuse)
        monkeypatch.setattr(grp, "_keys", Unscanned(grp._keys))
        assert recognize(grp) == []

    def test_faithful_symmetric_reads_no_order(self, monkeypatch):
        # K5's group has trivial diagonal part and order 5! on five indices,
        # and S5 has no element of order 120 or 60
        k5 = automorphism_group(complete_graph_algebra(5, Q))

        def refuse(*_):
            raise AssertionError("an element order was computed")

        monkeypatch.setattr(MonomialGroup, "_order", refuse)
        assert recognize(k5) == ["S5"]

    def test_golden_names(self):
        z = Z3.zeta
        # K4's S4 is a faithful image with trivial diagonal part
        k4 = automorphism_group(complete_graph_algebra(4, Q))
        # C6 on three indices has order 3! but a nontrivial diagonal part,
        # and its element of order 2 commutes with those of order 3
        c6 = close_generators([MonomialMap.diagonal((-z, Z3.one, Z3.one))])
        # C4 from (swap, (1, -1)): its square -1 is diagonal, and the only
        # element of order 2, so no complement C2 exists
        c4 = close_generators([MonomialMap((1, 0), (Q.one, -Q.one))])
        partial = MonomialGroup(Q, 2, [MonomialMap.identity(Q, 2)], complete=False)
        table = [
            (close_generators([], field=Q, n=1), ["trivial", "C1"]),
            (close_generators([MonomialMap.diagonal((z, z * z))]), ["C3"]),
            (self.s3_over_zeta3(), ["S3", "Dih3", "C3:C2"]),
            (k4, ["S4"]),
            (c6, ["C6"]),
            (c4, ["C4"]),
            (partial, []),
        ]
        for grp, names in table:
            assert recognize(grp) == names

    def test_cyclic_6_rejected_for_s3(self):
        assert "C6" not in recognize(self.s3_over_zeta3())

    def test_unclosed_rejected(self):
        grp = MonomialGroup(Q, 2, [MonomialMap.identity(Q, 2)], complete=False)
        assert grp.generators == ()
        assert recognize(grp) == []

    def test_non_normal_subgroup_rejected(self):
        def perm(*cycle):
            images = list(range(3))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
            return MonomialMap(images, (Q.one,) * 3)

        grp = close_generators([perm(0, 1), perm(0, 1, 2)])
        assert grp.order == 6

        def keys(*maps):
            return [grp._keys[grp.elements.index(m)] for m in maps]

        ident = MonomialMap.identity(Q, 3)
        # each {id, swap} is normalized by its own swap, a possible generator
        for swap in (perm(0, 1), perm(0, 2), perm(1, 2)):
            assert not _normal_in(grp, keys(ident, swap))
        assert _normal_in(grp, keys(ident, perm(0, 1, 2), perm(0, 2, 1)))

    def test_quotient_check_rejects_a_kernel_off_the_diagonal(self):
        # K2 over Q(zeta_3) has |D| = 3, whose maps diag(z, z^2) and
        # diag(z^2, z) leave the trivial group's Omega
        alg = complete_graph_algebra(2, Z3)
        report = quotient_embedding_check(
            close_generators([], field=Z3, n=2), alg, diagonal_subgroup(alg)
        )
        assert report.diagonal_order == 3 and report.kernel_order == 1
        assert not report.kernel_equals_diagonal and not report.ok


class TestProfile:
    def test_histogram_sums_to_order(self):
        grp = TestRecognition().s3_over_zeta3()
        assert sum(Counter(grp.element_orders).values()) == grp.order == 6
        assert grp.diagonal_order == 3
        assert grp.order // grp.diagonal_order == 2

    def test_orders_over_a_large_prime_build_no_table(self):
        # GF(p) takes its logs by Pohlig-Hellman, so K3's six elements get
        # their orders without a table of N = 999982 entries
        field = PrimeField(999983)
        grp = automorphism_group(complete_graph_algebra(3, field))
        assert grp.complete and grp.order == 6
        assert sorted(grp.element_orders) == [1, 2, 2, 2, 3, 3]
        assert "S3" in recognize(grp)
        g = field.unity_group().generator
        assert field.scalar(-1).multiplicative_order() == 2
        assert (g**2).multiplicative_order() == 999982 // 2
