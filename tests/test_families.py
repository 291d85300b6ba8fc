import itertools
import json
import random
from fractions import Fraction

import pytest

from dense import entrywise_square, mat_equal, matrix
from evoalg.algebra import EvolutionAlgebra, mat_mul
from evoalg.digraph import graph_automorphisms
from evoalg.errors import ParseError, SingularMatrixError
from evoalg.families import (
    build_family,
    complete_graph_algebra,
    cycle_algebra,
    cycle_normalizer,
    frucht_lift,
    sn_representatives,
    two_param_algebra,
)
from evoalg.fields import CyclotomicField, PrimeField, RationalField
from evoalg.solver import SolveStatus, isomorphism, solve_monomial, verify_map

Q = RationalField()
Z3 = CyclotomicField(3)
Z7 = CyclotomicField(7)

C5_ADJACENCY = [
    [0, 1, 0, 0, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
    [1, 0, 0, 1, 0],
]

P4_ADJACENCY = [
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [0, 0, 1, 0],
]


class TestCompleteGraph:
    def test_n4(self):
        alg = complete_graph_algebra(4, Q)
        assert alg.det == -3 and alg.is_idempotent

    def test_char_divides(self):
        with pytest.raises(SingularMatrixError):
            complete_graph_algebra(3, PrimeField(2))

    def test_n2(self):
        assert complete_graph_algebra(2, Q).det == -1

    def test_n1_rejected(self):
        with pytest.raises(ParseError):
            complete_graph_algebra(1, Q)


class TestTwoParam:
    def test_valid(self):
        assert two_param_algebra(4, 1, 2, Q).det == -7

    def test_equal_parameters_rejected(self):
        with pytest.raises(SingularMatrixError):
            two_param_algebra(3, 1, 1, Q)

    def test_degenerate_sum_rejected(self):
        with pytest.raises(SingularMatrixError):
            two_param_algebra(3, 1, Fraction(-1, 2), Q)


class TestCycle:
    def test_default_is_permutation_matrix(self):
        alg = cycle_algebra(3, Q)
        assert alg.rows[1][0] == 1 and alg.rows[2][1] == 1 and alg.rows[0][2] == 1
        assert sum(1 for row in alg.rows for x in row if not x.is_zero) == 3

    def test_custom_b(self):
        alg = cycle_algebra(3, Q, [128, 1, 1])
        assert alg.rows[1][0] == 128

    def test_n1(self):
        alg = cycle_algebra(1, Q, [5])
        assert alg.is_idempotent and alg.rows[0][0] == 5

    def test_zero_entry_rejected(self):
        with pytest.raises(SingularMatrixError):
            cycle_algebra(2, Q, [1, 0])


class TestFruchtLift:
    def test_k4_needs_no_shift(self):
        k4 = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        alg, m = frucht_lift(k4, Q)
        assert m == 0 and alg.det == -3

    def test_edge_plus_isolated_vertex(self):
        # det(B) = 0 and det(B + I) = 0, so the minimal shift is 2
        graph = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        alg, m = frucht_lift(graph, Q)
        assert m == 2
        assert alg.is_idempotent

    def test_five_cycle(self):
        alg, m = frucht_lift(C5_ADJACENCY, Q)
        assert m == 0
        assert len(graph_automorphisms(alg.digraph)) == 10

    def test_pattern_automorphisms_preserved(self):
        rng = random.Random(61)
        from evoalg.digraph import Digraph

        for _ in range(15):
            n = rng.randint(2, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = 1
            alg, _ = frucht_lift(rows, Q)
            original = graph_automorphisms(Digraph.from_bool_rows(rows))
            lifted = graph_automorphisms(alg.digraph)
            assert original == lifted

    def test_rejects_bad_input(self):
        with pytest.raises(ParseError):
            frucht_lift([[0, 1], [0, 0]], Q)  # asymmetric
        with pytest.raises(ParseError):
            frucht_lift([[1, 0], [0, 0]], Q)  # loop
        with pytest.raises(ParseError):
            frucht_lift([[0, 2], [2, 0]], Q)  # not 0/1
        with pytest.raises(ParseError):
            frucht_lift([[0, 1], [1, 0]], PrimeField(5))  # wrong characteristic


    def test_rejects_malformed_shapes(self):
        for rows in (5, [5, 6], [[0, 1], 7], [[0, None], [None, 0]]):
            with pytest.raises(ParseError):
                frucht_lift(rows, Q)


class TestSnRepresentatives:
    def test_n1(self):
        included, omitted = sn_representatives(1, Q)
        assert [item.label for item in included] == ["unit"] and not omitted

    def test_n3_over_q(self):
        included, omitted = sn_representatives(3, Q)
        labels = [item.label for item in included]
        assert "complete" in labels
        assert any(label.startswith("diag1-offdiag") for label in labels)
        assert [o.label for o in omitted] == ["swap-plus-loop"]

    def test_n3_over_zeta3_includes_middle(self):
        included, _ = sn_representatives(3, Z3)
        assert "swap-plus-loop" in [item.label for item in included]

    def test_n2_swap_excluded_over_zeta3(self):
        _, omitted = sn_representatives(2, Z3)
        assert "swap" in [o.label for o in omitted]

    def test_n4_over_q(self):
        included, _ = sn_representatives(4, Q, c_samples=(2,))
        labels = [item.label for item in included]
        assert labels == ["diag1-offdiag2", "complete"]

    def test_all_outputs_idempotent(self):
        for n in (1, 2, 3, 4, 5):
            for field in (Q, Z3, PrimeField(7)):
                included, _ = sn_representatives(n, field)
                for item in included:
                    assert item.algebra.is_idempotent

    def test_pairwise_non_isomorphic(self):
        for n in (2, 3, 4):
            included, _ = sn_representatives(n, Q)
            for one, two in itertools.combinations(included, 2):
                assert not isomorphism(one.algebra, two.algebra).found


class TestCycleNormalizer:
    def test_all_ones_contains_identity(self):
        out = cycle_normalizer([1, 1, 1], Q)
        assert out.status is SolveStatus.COMPLETE
        assert any(all(x == Q.one for x in m.d) for m in out.maps)

    def test_worked_example(self):
        out = cycle_normalizer([128, 1, 1], Q)
        assert out.status is SolveStatus.COMPLETE
        assert len(out.maps) == 1
        d = out.maps[0].d
        assert [x.value for x in d] == [
            Q.scalar(Fraction(1, 16)).value,
            Q.scalar(Fraction(1, 2)).value,
            Q.scalar(Fraction(1, 4)).value,
        ]

    def test_seven_solutions_over_zeta7(self):
        out = cycle_normalizer([1, 1, 1], Z7)
        assert len(out.maps) == 7

    def test_certificate_identity(self):
        # every map carries the ones cycle onto the scaled cycle
        for field, b in ((Q, [128, 1, 1]), (Z7, [1, 1, 1]), (Q, [8, 2, 1])):
            source = cycle_algebra(len(b), field)
            target = cycle_algebra(len(b), field, b)
            out = cycle_normalizer(b, field)
            for m in out.maps:
                lhs = mat_mul(target.rows, entrywise_square(matrix(m)))
                rhs = mat_mul(matrix(m), source.rows)
                assert mat_equal(lhs, rhs)
                assert verify_map(source, target, m)

    def test_matches_solver(self):
        rng = random.Random(67)
        for _ in range(10):
            n = rng.randint(1, 4)
            d = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])) for _ in range(n)]
            b = [Q.scalar(d[(j + 1) % n] / d[j] ** 2) for j in range(n)]
            out = cycle_normalizer(b, Q)
            direct = solve_monomial(
                cycle_algebra(n, Q), cycle_algebra(n, Q, b), tuple(range(n))
            )
            assert out.maps == direct.maps
            values = tuple(Q.scalar(x).value for x in d)
            assert any(tuple(x.value for x in m.d) == values for m in out.maps)

    def test_indeterminate_case(self):
        f = CyclotomicField(5)
        out = cycle_normalizer([f.one + f.zeta, 1], f)
        assert out.status is SolveStatus.INDETERMINATE

    def test_isomorphic_when_normalizer_nonempty(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(2, 4)
            d = [Fraction(rng.choice([1, 2, 3, -3]), rng.choice([1, 2, 4])) for _ in range(n)]
            b = [Q.scalar(d[(j + 1) % n] / d[j] ** 2) for j in range(n)]
            out = cycle_normalizer(b, Q)
            assert out.maps
            res = isomorphism(cycle_algebra(n, Q), cycle_algebra(n, Q, b))
            assert res.found


class TestFamilySpecs:
    def test_complete(self):
        alg, info = build_family("complete:n=4", Q)
        assert info == {"family": "complete", "n": 4} and alg.det == -3

    def test_twoparam_singular(self):
        with pytest.raises(SingularMatrixError):
            build_family("twoparam:n=3,a=1,b=1", Q)

    def test_cycle_with_b(self):
        alg, info = build_family("cycle:n=3,b=128;1;1", Q)
        assert info["b"] == ["128", "1", "1"]
        assert alg.rows[1][0] == 128

    def test_frucht_from_file(self, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({"n": 5, "adjacency": C5_ADJACENCY}))
        alg, info = build_family(f"frucht:{path}", Q)
        assert info["m"] == 0 and alg.n == 5

    def test_bad_specs(self):
        for spec in ("complete", "complete:m=4", "unknown:n=3", "cycle:n=2,b=1", "complete:n=4,x=1"):
            with pytest.raises((ParseError, SingularMatrixError)):
                build_family(spec, Q)
