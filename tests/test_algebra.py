import random
from fractions import Fraction

import pytest

from dense import (
    basis_element,
    element,
    entrywise_square,
    mat_equal,
    matrix,
    multiply,
    rank,
)
from evoalg import algebra
from evoalg.algebra import EvolutionAlgebra, determinant, mat_mul, transport_structure
from evoalg.errors import FieldMismatchError, ParseError, SingularMatrixError
from evoalg.fields import CyclotomicField, PrimeField, RationalField
from evoalg.groups import MonomialMap

Q = RationalField()


def complete_matrix(n, field=Q):
    return [[field.scalar(0 if i == j else 1) for j in range(n)] for i in range(n)]


def two_param_matrix(n, a, b, field=Q):
    return [[field.scalar(a if i == j else b) for j in range(n)] for i in range(n)]


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0].field.zero
    sign = 1
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * cofactor_det(minor)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def cyclotomic_entry(field, rng):
    """A nonzero element with rational coefficients on every power of zeta."""
    coeffs = [Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 4))
              for _ in range(field.degree)]
    return sum((field.scalar(c) * field.zeta**i for i, c in enumerate(coeffs)), field.zero)


def cycle_matrix(n, b=None, field=Q):
    b = b or [1] * n
    rows = [[field.scalar(0)] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = field.scalar(b[j])
    return rows


class TestConstruction:
    def test_one_dimensional(self):
        alg = EvolutionAlgebra(Q, [[1]])
        assert alg.is_idempotent and alg.det == 1

    def test_k2(self):
        alg = EvolutionAlgebra(Q, complete_matrix(2))
        assert alg.is_idempotent and alg.det == -1

    def test_equal_rows_not_idempotent(self):
        alg = EvolutionAlgebra(Q, [[1, 1], [1, 1]])
        assert not alg.is_idempotent
        with pytest.raises(SingularMatrixError):
            alg.require_idempotent()

    def test_idempotence_is_decided_on_first_read(self):
        for rows, expected in (([[0, 1], [1, 0]], True), ([[1, 1], [1, 1]], False)):
            alg = EvolutionAlgebra(Q, rows)
            assert "det" not in vars(alg) and "is_idempotent" not in vars(alg)
            assert alg.is_idempotent is expected
            assert vars(alg)["is_idempotent"] is expected

    def test_determinant_is_taken_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return determinant(*args)

        monkeypatch.setattr(algebra, "determinant", counted)
        alg = EvolutionAlgebra(Q, complete_matrix(4))
        assert calls == []
        for _ in range(3):
            assert alg.is_idempotent and alg.det == -3
        assert len(calls) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ParseError):
            EvolutionAlgebra(Q, [[1, 2]])

    @pytest.mark.parametrize(
        "field", [PrimeField(7), Q, CyclotomicField(3)], ids=lambda f: f.descriptor()
    )
    def test_entry_forms_give_one_algebra(self, field):
        # the constructor converts every entry to its raw value once; ints,
        # strings, Fractions and Scalars of one value must agree everywhere
        values = [
            [2, 0, Fraction(1, 2)],
            [0, -1, 3],
            [Fraction(-3, 4), 1, 0],
        ]
        forms = {
            "native": lambda x: x,
            "str": str,
            "Fraction": Fraction,
            "Scalar": field.scalar,
        }
        built = [
            EvolutionAlgebra(field, [[form(x) for x in row] for row in values])
            for form in forms.values()
        ]
        mixed = [[list(forms.values())[(i + j) % 4](x) for j, x in enumerate(row)]
                 for i, row in enumerate(values)]
        built.append(EvolutionAlgebra(field, mixed))
        boxed = tuple(tuple(field.scalar(x) for x in row) for row in values)
        first = built[0]
        assert first.rows == boxed
        assert first.det == determinant(boxed) == cofactor_det(boxed)
        for alg in built:
            assert alg.raw_rows == first.raw_rows
            assert alg.rows == first.rows
            assert alg.det == first.det
            assert alg.digraph == first.digraph
            assert alg == first and hash(alg) == hash(first)
        assert first.raw_rows == tuple(tuple(x.value for x in row) for row in boxed)
        assert first != EvolutionAlgebra(field, [[3, 0, 0], [0, -1, 3], [1, 1, 0]])

    def test_scalar_from_another_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            EvolutionAlgebra(PrimeField(5), [[1, 0], [0, PrimeField(7).scalar(1)]])
        with pytest.raises(FieldMismatchError):
            EvolutionAlgebra(Q, [[CyclotomicField(3).scalar(2)]])

    def test_non_square_rejected_over_every_field_kind(self):
        with pytest.raises(ParseError, match="square"):
            EvolutionAlgebra(PrimeField(5), [[1, 0], [0, 1, 2]])
        with pytest.raises(ParseError, match="square"):
            EvolutionAlgebra(CyclotomicField(3), [["z", 0, 1], [0, 1, 0]])

    def test_digraph_pattern(self):
        alg = EvolutionAlgebra(Q, two_param_matrix(3, 1, 2))
        assert all(alg.digraph.edge(i, j) for i in range(3) for j in range(3))
        cyc = EvolutionAlgebra(Q, cycle_matrix(3))
        assert [cyc.digraph.edge(i, i) for i in range(3)] == [False] * 3
        assert cyc.digraph.edge(1, 0) and cyc.digraph.edge(2, 1) and cyc.digraph.edge(0, 2)


class TestMultiply:
    def test_k2_first_basis_square(self):
        alg = EvolutionAlgebra(Q, complete_matrix(2))
        e1 = basis_element(alg, 0)
        assert multiply(alg, e1, e1) == basis_element(alg, 1)

    def test_distinct_basis_vectors_annihilate(self):
        alg = EvolutionAlgebra(Q, two_param_matrix(3, 1, 2))
        prod = multiply(alg, basis_element(alg, 0), basis_element(alg, 1))
        assert all(x.is_zero for x in prod)

    def test_k2_sum_is_idempotent_element(self):
        alg = EvolutionAlgebra(Q, complete_matrix(2))
        x = element(alg, [1, 1])
        assert multiply(alg, x, x) == x

    def test_commutative_and_bilinear(self):
        rng = random.Random(44)
        for field in (Q, PrimeField(7), CyclotomicField(3)):
            alg = EvolutionAlgebra(
                field, [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
            )
            for _ in range(10):
                x = element(alg, [rng.randint(-3, 3) for _ in range(3)])
                y = element(alg, [rng.randint(-3, 3) for _ in range(3)])
                z = element(alg, [rng.randint(-3, 3) for _ in range(3)])
                assert multiply(alg, x, y) == multiply(alg, y, x)
                xy_plus_xz = tuple(
                    a + b for a, b in zip(multiply(alg, x, y), multiply(alg, x, z))
                )
                y_plus_z = tuple(a + b for a, b in zip(y, z))
                assert multiply(alg, x, y_plus_z) == xy_plus_xz


class TestDeterminant:
    def test_k4(self):
        assert EvolutionAlgebra(Q, complete_matrix(4)).det == -3

    def test_two_param_4_1_2(self):
        # (a + (n-1) b)(a - b)^(n-1) with n=4, a=1, b=2 gives -7
        assert EvolutionAlgebra(Q, two_param_matrix(4, 1, 2)).det == -7

    def test_identity(self):
        ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert EvolutionAlgebra(Q, ident).det == 1

    def test_complete_graph_formula(self):
        for n in range(2, 9):
            expected = (n - 1) * (-1) ** (n - 1)
            assert EvolutionAlgebra(Q, complete_matrix(n)).det == expected

    def test_matches_cofactor_expansion(self):
        rng = random.Random(11)
        for field in (Q, PrimeField(5), CyclotomicField(4)):
            for _ in range(10):
                n = rng.randint(1, 4)
                rows = tuple(
                    tuple(field.scalar(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(n)
                )
                assert determinant(rows) == cofactor_det(rows)

    @pytest.mark.parametrize("m", [5, 15])
    def test_cyclotomic_entries_match_cofactor_expansion(self, m):
        field = CyclotomicField(m)
        rng = random.Random(500 + m)
        for _ in range(6):
            n = rng.randint(2, 4)
            rows = tuple(
                tuple(cyclotomic_entry(field, rng) for _ in range(n)) for _ in range(n)
            )
            assert determinant(rows) == cofactor_det(rows)
            # a zero top-left entry forces a row swap at the first step
            swapped = ((field.zero,) + rows[0][1:],) + rows[1:]
            assert determinant(swapped) == cofactor_det(swapped)
            # a repeated row makes the matrix singular
            singular = rows[:-1] + (rows[0],)
            assert determinant(singular).is_zero
            assert cofactor_det(singular).is_zero

    def test_inverts_each_dividing_pivot_once(self, monkeypatch):
        # steps 1 .. n - 2 divide by the previous pivot; nothing else inverts
        field = CyclotomicField(15)
        calls = []
        inv = CyclotomicField._inv

        def counted(self, a):
            calls.append(a)
            return inv(self, a)

        monkeypatch.setattr(CyclotomicField, "_inv", counted)
        rng = random.Random(15)
        for n in range(1, 6):
            rows = tuple(
                tuple(cyclotomic_entry(field, rng) for _ in range(n)) for _ in range(n)
            )
            calls.clear()
            determinant(rows)
            assert len(calls) <= max(n - 2, 0)

    def test_rank_characterizes_idempotency(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 4)
            alg = EvolutionAlgebra(
                Q, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            assert alg.is_idempotent == (rank(alg.rows) == n)


class TestTransport:
    def test_identity_map(self):
        alg = EvolutionAlgebra(Q, complete_matrix(3))
        assert transport_structure(alg, MonomialMap.identity(Q, 3)) == alg

    def test_scaled_cycle(self):
        alg = EvolutionAlgebra(Q, cycle_matrix(3))
        p = MonomialMap.diagonal(
            [Q.scalar(Fraction(1, 16)), Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 4))]
        )
        out = transport_structure(alg, p)
        assert out == EvolutionAlgebra(Q, cycle_matrix(3, [128, 1, 1]))
        # the defining identity B * P^(2) = P * A, checked entrywise
        lhs = mat_mul(out.rows, entrywise_square(matrix(p)))
        rhs = mat_mul(matrix(p), alg.rows)
        assert mat_equal(lhs, rhs)

    def test_k2_swap(self):
        alg = EvolutionAlgebra(Q, complete_matrix(2))
        swap = MonomialMap((1, 0), (Q.one, Q.one))
        assert transport_structure(alg, swap) == alg

    def test_round_trip(self):
        rng = random.Random(55)
        for field in (Q, PrimeField(7), CyclotomicField(3)):
            for _ in range(10):
                n = rng.randint(1, 4)
                alg = EvolutionAlgebra(
                    field, [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
                )
                if not alg.is_idempotent:
                    continue
                images = list(range(n))
                rng.shuffle(images)
                d = []
                for _ in range(n):
                    while True:
                        x = field.scalar(rng.randint(-4, 4))
                        if not x.is_zero:
                            d.append(x)
                            break
                p = MonomialMap(tuple(images), tuple(d))
                there = transport_structure(alg, p)
                back = transport_structure(there, p.inverse())
                assert back == alg


class TestSerialization:
    def test_round_trip(self, tmp_path):
        alg = EvolutionAlgebra(CyclotomicField(3), [[0, "z"], ["1 + z", 0]])
        path = tmp_path / "m.json"
        alg.dump(str(path))
        again = EvolutionAlgebra.load(str(path))
        assert again == alg

    def test_field_override(self):
        data = EvolutionAlgebra(Q, complete_matrix(2)).to_json()
        over = EvolutionAlgebra.from_json(data, field=CyclotomicField(3))
        assert over.field == CyclotomicField(3)
        assert over.det == CyclotomicField(3).scalar(-1)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            EvolutionAlgebra.from_json({"n": 2, "entries": [["1", "0"], ["0", "1"]]})
        with pytest.raises(ParseError):
            EvolutionAlgebra.from_json(
                {"field": "Q", "n": 3, "entries": [["1", "0"], ["0", "1"]]}
            )
