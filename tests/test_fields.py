import math
import random
import re
from fractions import Fraction

import pytest

from evoalg.errors import CapExceededError, FieldMismatchError, ParseError
from evoalg.fields import (
    CONDUCTOR_CAP,
    CyclotomicField,
    PrimeField,
    RationalField,
    Scalar,
    cyclotomic_polynomial,
    is_prime,
    parse_field,
    perfect_kth_root,
)

Q = RationalField()
GF7 = PrimeField(7)
Z3 = CyclotomicField(3)

ALL_FIELDS = [Q, PrimeField(5), GF7, Z3, CyclotomicField(7), CyclotomicField(4)]


def random_scalar(field, rng, nonzero=False):
    while True:
        if isinstance(field, PrimeField):
            s = field.scalar(rng.randrange(field.p))
        elif isinstance(field, CyclotomicField) and field.m > 1:
            s = field.zero
            for i in range(field.degree):
                coef = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                s = s + field.scalar(coef) * field.zeta**i
        else:
            s = field.scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
        if not nonzero or not s.is_zero:
            return s


class TestDescriptors:
    def test_parse_round_trip(self):
        for text in ["Q", "GF(7)", "Q(zeta_7)"]:
            assert parse_field(text).descriptor() == text

    def test_fields_are_interned(self):
        assert parse_field("GF(7)") is PrimeField(7) is GF7
        assert parse_field("Q") is RationalField() is Q
        assert parse_field("Q(zeta_3)") is CyclotomicField(3) is Z3
        assert CyclotomicField(1) is RationalField()
        fields = [Q, PrimeField(5), GF7, Z3, CyclotomicField(4), CyclotomicField(7)]
        for i, one in enumerate(fields):
            for other in fields[i + 1 :]:
                assert one != other and one is not other

    def test_cyclotomic_1_is_q(self):
        assert CyclotomicField(1) == Q
        assert parse_field("Q(zeta_1)") == Q

    def test_q_is_zeta_1(self):
        assert parse_field("Q") is RationalField() is CyclotomicField(1)
        assert Q.descriptor() == "Q" and Q.degree == 1 and Q.phi == (-1, 1)
        for text, value in [("0.5", (1, 2)), ("1e3", (1000, 1)), (" -3 / 4 ", (-3, 4))]:
            assert Q.parse(text).value == value
        for text in ["z", "1+2", "1/0"]:
            with pytest.raises(ParseError, match=re.escape(f"bad rational {text!r}")):
                Q.parse(text)
        assert Q.zeta == 1 and Q.unity_group().order == 2
        for x in (0, 1, -6, Fraction(4, 6), Fraction(-10, 4)):
            assert Q.parse(str(Q.scalar(x))) == x
        # Q(zeta_2) is a field of its own, with the cyclotomic grammar
        z2 = CyclotomicField(2)
        assert z2 is not Q and z2.descriptor() == "Q(zeta_2)"
        assert z2.zeta == -1 and z2.parse("z + 3") == 2

    def test_conductor_cap(self):
        # Phi_m is built with the field, before any entry is read
        for text in [f"Q(zeta_{CONDUCTOR_CAP + 1})", "Q(zeta_" + "9" * 5000 + ")"]:
            with pytest.raises(CapExceededError):
                parse_field(text)
        with pytest.raises(ParseError):
            parse_field("GF(" + "9" * 5000 + ")")
        assert parse_field("Q(zeta_007)") is CyclotomicField(7)

    def test_bad_descriptors(self):
        for text in ["q", "GF(6)", "GF(x)", "Q(zeta_0)", "R"]:
            with pytest.raises(ParseError):
                parse_field(text)

    def test_gf_requires_prime(self):
        with pytest.raises(ParseError):
            PrimeField(2**31 + 11)
        assert PrimeField(7).p == 7


class TestCyclotomicPolynomial:
    def test_m1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_m7(self):
        assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)

    def test_m6(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_m3_by_direct_division(self):
        # x^3 - 1 divided by x - 1 gives x^2 + x + 1
        assert cyclotomic_polynomial(3) == (1, 1, 1)

    def test_divides_x_m_minus_1(self):
        # evaluate Phi_m at a few integers and check it divides t^m - 1
        for m in range(1, 20):
            phi = cyclotomic_polynomial(m)
            for t in (2, 3, 5):
                val = sum(c * t**i for i, c in enumerate(phi))
                assert (t**m - 1) % val == 0


class TestArithmetic:
    def test_rational_add(self):
        assert Q.scalar(Fraction(1, 2)) + Q.scalar(Fraction(1, 3)) == Fraction(5, 6)

    def test_gf7_inverse(self):
        assert GF7.scalar(2).inverse() == 4

    def test_zeta3_square(self):
        # zeta * zeta reduces to -1 - zeta
        z = Z3.zeta
        assert z * z == Z3.parse("-1 - z")

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Q.scalar(1) + GF7.scalar(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q.one / Q.zero

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor())
    def test_field_axioms_randomized(self, field):
        rng = random.Random(20240811)
        for _ in range(60):
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            c = random_scalar(field, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == field.zero
            if not a.is_zero:
                assert a * a.inverse() == field.one

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor())
    def test_sum_order_independent(self, field):
        rng = random.Random(7)
        vals = [random_scalar(field, rng) for _ in range(8)]
        total = field.zero
        for v in vals:
            total = total + v
        back = field.zero
        for v in reversed(vals):
            back = back + v
        assert total == back and total.value == back.value

    def test_cyclotomic_inverse_random(self):
        rng = random.Random(99)
        for field in (Z3, CyclotomicField(7), CyclotomicField(8)):
            for _ in range(25):
                a = random_scalar(field, rng, nonzero=True)
                assert a * a.inverse() == field.one


# The Fraction-polynomial kernels that CyclotomicField used before its
# arithmetic moved to common-denominator integers, kept as the reference the
# integer kernels must reproduce coefficient for coefficient.


def _ref_red_rows(field):
    red = [tuple(-c for c in field.phi[:-1])]
    for _ in range(field.degree - 1):
        prev = red[-1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            shifted = [s + top * r for s, r in zip(shifted, red[0])]
        red.append(tuple(shifted))
    return red


def _ref_reduce(field, conv):
    deg = field.degree
    red = _ref_red_rows(field)
    out = list(conv[:deg]) + [Fraction(0)] * (deg - len(conv[:deg]))
    for t in range(deg, len(conv)):
        c = conv[t]
        if c:
            row = red[t - deg]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


def _ref_mul(field, a, b):
    conv = [Fraction(0)] * (2 * field.degree - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _ref_reduce(field, conv)


def _ref_poly_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return []
    q = [Fraction(0)] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd] / den[-1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q


def _ref_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _ref_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_inv(field, a):
    # extended Euclid in Q[x] against Phi_m
    r0 = [Fraction(v) for v in a]
    while r0 and r0[-1] == 0:
        r0.pop()
    r1 = [Fraction(c) for c in field.phi]
    s0, s1 = [Fraction(1)], []
    while r1:
        q = _ref_poly_divmod(r0, r1)
        r0, r1 = r1, _ref_poly_sub(r0, _ref_poly_mul(q, r1))
        s0, s1 = s1, _ref_poly_sub(s0, _ref_poly_mul(q, s1))
    inv_poly = [c / r0[0] for c in s0]
    return _ref_reduce(field, inv_poly + [Fraction(0)] * max(0, field.degree - len(inv_poly)))


def _kernel_operand(field, rng, kind):
    """A nonzero raw value: every coefficient set, two set, or rational."""
    deg = field.degree
    vec = [Fraction(0)] * deg
    if kind == "dense":
        places = range(deg)
    elif kind == "sparse":
        places = rng.sample(range(deg), min(2, deg))
    else:
        places = [0]
    for i in places:
        vec[i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
    return tuple(vec)


def _int_form(vec):
    """The raw Q(zeta_m) value of a tuple of Fraction coefficients."""
    den = math.lcm(*[x.denominator for x in vec])
    return tuple(x.numerator * (den // x.denominator) for x in vec) + (den,)


def _coefficients(value):
    """The Fraction coefficients of a raw Q(zeta_m) value."""
    return tuple(Fraction(x, value[-1]) for x in value[:-1])


def _fraction_text(value):
    """The text of a raw Q(zeta_m) value, built from Fraction coefficients:
    terms by ascending power joined by " + " and " - ", each a magnitude, or
    a magnitude times z^i with a magnitude of one left out."""
    parts = []
    for i, coef in enumerate(_coefficients(value)):
        if coef:
            mag = abs(coef)
            body = str(mag)
            if i:
                zpart = "z" if i == 1 else f"z^{i}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            parts.append(("-" if coef < 0 else "+", body))
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


class TestIntegerKernels:
    KINDS = ("dense", "sparse", "rational")

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8, 9, 12, 15])
    def test_mul_and_inv_match_fraction_reference(self, m):
        field = CyclotomicField(m)
        one = field.one.value
        rng = random.Random(4000 + m)
        for ka in self.KINDS:
            for kb in self.KINDS:
                for _ in range(4):
                    a = _kernel_operand(field, rng, ka)
                    b = _kernel_operand(field, rng, kb)
                    product = field._mul(_int_form(a), _int_form(b))
                    assert _coefficients(product) == _ref_mul(field, a, b)
                    assert all(type(x) is int for x in product)
            for _ in range(4):
                a = _kernel_operand(field, rng, ka)
                inv = field._inv(_int_form(a))
                assert _coefficients(inv) == _ref_inv(field, a)
                assert all(type(x) is int for x in inv)
                assert field._mul(_int_form(a), inv) == one

    # for m = 6 and 12 the powers below m reach past z^(2 * degree - 1)
    @pytest.mark.parametrize("m", [5, 6, 12, 15])
    def test_reduce_matches_fraction_reference(self, m):
        field = CyclotomicField(m)
        rng = random.Random(m)
        # the integer rows reach z^(2 * degree - 1); parse takes any power
        deg = field.degree
        for length in (1, deg, 2 * deg - 1, 2 * deg, 3 * deg + 1):
            conv = [rng.randint(-9, 9) for _ in range(length)]
            if length <= 2 * deg:
                assert field._reduce_ints(conv) == list(_ref_reduce(field, conv))
            den = rng.randint(1, 5)
            text = " + ".join(f"{c}/{den}*z^{i}" for i, c in enumerate(conv))
            expected = field.zero
            for i, c in enumerate(conv):
                expected = expected + field.scalar(Fraction(c, den)) * field.zeta**i
            assert field.parse(text.replace("+ -", "- ")) == expected

    def test_raw_values_hold_no_fraction(self):
        field = CyclotomicField(15)
        a = field.parse("1/2 + 3*z")
        b = field.parse("-2/3")
        values = [a * a, a * b, a - b, -a, a.inverse(), b.inverse(), field.zeta, field.zero,
                  field.scalar(Fraction(5, 7)), field.unity_group().generator,
                  *field.roots_of_unity(6), *field.kth_roots(field.scalar(4) * field.zeta**2, 2).roots]
        for v in values:
            assert all(type(x) is int for x in v.value), v

    def test_raw_rejects_bool(self):
        for field, value in ((PrimeField(7), True), (CyclotomicField(3), False)):
            with pytest.raises(ParseError, match="bool is not a scalar"):
                field.raw(value)
        assert PrimeField(7).raw(9) == 2 and type(PrimeField(7).raw(9)) is int

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicField(7)._inv(CyclotomicField(7).zero.value)


def _is_lowest(field, value):
    return (
        type(value) is tuple
        and len(value) == field.degree + 1
        and all(type(x) is int for x in value)
        and value[-1] >= 1
        and math.gcd(*value) == 1
    )


class TestCanonicalForm:
    MS = [2, 3, 4, 5, 7, 8, 12, 15]

    @staticmethod
    def operands(field, rng, count=12):
        kinds = ("dense", "sparse", "rational") * (count // 3)
        return [x.value for x in (field.zero, field.one, field.zeta, -field.one)] + [
            _int_form(_kernel_operand(field, rng, kind)) for kind in kinds
        ]

    @pytest.mark.parametrize("m", MS)
    def test_every_result_is_in_lowest_terms(self, m):
        field = CyclotomicField(m)
        rng = random.Random(7000 + m)
        values = self.operands(field, rng)
        for a in values:
            assert _is_lowest(field, a)
            assert _is_lowest(field, field._neg(a))
            if not field._is_zero(a):
                assert _is_lowest(field, field._inv(a))
            for b in values:
                for op in (field._add, field._sub, field._mul):
                    assert _is_lowest(field, op(a, b))
        for text in ("2/4*z", "6/3 - 4/6*z^2", "0*z", "z - z", "3/9 + 5/10*z^7"):
            assert _is_lowest(field, field.parse(text).value)
        for x in (0, 1, -6, Fraction(4, 6), Fraction(-10, 4)):
            assert _is_lowest(field, field.scalar(x).value)

    @pytest.mark.parametrize("m", MS)
    def test_equal_numbers_have_equal_tuples(self, m):
        field = CyclotomicField(m)
        rng = random.Random(7100 + m)
        pairs = [
            (field.parse("2/4*z"), field.scalar(Fraction(1, 2)) * field.zeta),
            (field.parse("1/2 + 1/2"), field.one),
            (field.parse("z - z"), field.zero),
        ]
        for a in self.operands(field, rng):
            a = Scalar(field, a)
            for b in self.operands(field, rng, count=3):
                b = Scalar(field, b)
                pairs.append((a + b - b, a))
                pairs.append((a * 2 / 2, a))
                if not b.is_zero:
                    pairs.append((a * b / b, a))
        for x, y in pairs:
            assert x.value == y.value
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("m", MS)
    def test_sort_key_orders_by_fraction_coefficients(self, m):
        field = CyclotomicField(m)
        rng = random.Random(7200 + m)
        values = [Scalar(field, v) for v in self.operands(field, rng, count=30)]
        values += [v * Fraction(1, 3) for v in values] + [v + Fraction(1, 2) for v in values]
        rng.shuffle(values)
        by_key = sorted(values, key=Scalar.sort_key)
        by_fractions = sorted(values, key=lambda v: _coefficients(v.value))
        assert [v.value for v in by_key] == [v.value for v in by_fractions]
        # one key position holds ints and ratios, each compared with the
        # other kind and with ratios over other denominators as the
        # Fractions are
        keys = [v.sort_key() for v in values[:40]]
        coefficients = [_coefficients(v.value) for v in values[:40]]
        assert {type(x) is int for key in keys for x in key} == {True, False}
        for i in range(field.degree):
            for key, coef in zip(keys, coefficients):
                for other, other_coef in zip(keys, coefficients):
                    x, y, fx, fy = key[i], other[i], coef[i], other_coef[i]
                    assert (x < y, x > y, x == y) == (fx < fy, fx > fy, fx == fy)

    def test_sort_key_entries_of_mixed_kinds(self):
        numbers = [Fraction(x, d) for x in range(-9, 10) for d in (1, 2, 3, 6)]
        entries = [Q.scalar(x).sort_key()[0] for x in numbers]
        for x, ex in zip(numbers, entries):
            for y, ey in zip(numbers, entries):
                assert (ex < ey, ex > ey, ex == ey) == (x < y, x > y, x == y)
                assert (ex < y.numerator) == (x < y.numerator)
                assert (y.numerator < ex) == (y.numerator < x)
        assert sorted(entries) == [e for _, e in sorted(zip(numbers, entries), key=lambda p: p[0])]

    @pytest.mark.parametrize("m", [1] + MS)
    def test_format_matches_fraction_text(self, m):
        field = CyclotomicField(m)
        rng = random.Random(7400 + m)
        values = self.operands(field, rng, count=60)
        # coefficients whose magnitude is one, next to others
        values += [field._mul(v, field._inv(v)) for v in values if not field._is_zero(v)]
        values += [field._add(v, field._pow(field.zeta.value, k)) for k, v in enumerate(values)]
        for a in values:
            assert field.format(a) == _fraction_text(a)
        assert field.format(field.parse("-4/6").value) == "-2/3"

    @pytest.mark.parametrize("m", MS)
    def test_format_round_trips(self, m):
        field = CyclotomicField(m)
        rng = random.Random(7300 + m)
        for a in self.operands(field, rng):
            assert field.parse(field.format(a)).value == a


class TestRootsOfUnity:
    def test_rationals_k3(self):
        assert Q.roots_of_unity(3) == [Q.one]

    def test_gf7_k3(self):
        assert sorted(s.value for s in GF7.roots_of_unity(3)) == [1, 2, 4]

    def test_zeta3_k3(self):
        z = Z3.zeta
        assert set(Z3.roots_of_unity(3)) == {Z3.one, z, z * z}

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor())
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7, 12])
    def test_counts_and_membership(self, field, k):
        import math

        roots = field.roots_of_unity(k)
        n = field.unity_group().order
        assert len(roots) == math.gcd(k, n)
        assert len(set(roots)) == len(roots)
        for r in roots:
            assert r**k == field.one

    def test_generator_order_exact(self):
        for field in ALL_FIELDS:
            group = field.unity_group()
            assert field.multiplicative_order(group.generator) == group.order


class TestMultOrder:
    def test_one(self):
        assert Q.one.multiplicative_order() == 1

    def test_gf7_two(self):
        assert GF7.scalar(2).multiplicative_order() == 3

    def test_rational_two(self):
        assert Q.scalar(2).multiplicative_order() is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Q.zero.multiplicative_order()

    def test_table_lookup_matches_repeated_powers(self):
        # the definition: the least k with x^k = 1, searched up to N, since
        # every root of unity in the field has order dividing N; None beyond
        rng = random.Random(31)
        for field in (Q, Z3, CyclotomicField(7), CyclotomicField(15), GF7, PrimeField(13)):
            big_n = field.unity_group().order
            samples = field.roots_of_unity(big_n) + [field.scalar(2)]
            samples += [random_scalar(field, rng, nonzero=True) for _ in range(12)]
            for x in samples:
                naive, cur = None, x
                for k in range(1, big_n + 1):
                    if cur == field.one:
                        naive = k
                        break
                    cur = cur * x
                assert x.multiplicative_order() == naive
            if field.characteristic == 0:
                assert field.scalar(2).multiplicative_order() is None

    def test_large_prime_order_builds_no_table(self):
        big = PrimeField(1000003)
        g = big.unity_group().generator
        assert big.scalar(1).multiplicative_order() == 1
        assert big.scalar(-1).multiplicative_order() == 2
        assert g.multiplicative_order() == 1000002
        assert (g**6).multiplicative_order() == 1000002 // 6

    def test_prime_field_orders_never_read_a_table(self):
        # GF(p) takes its discrete logs without a table, so orders come out
        # the same before and after kth_roots
        field = PrimeField(13)
        elements = [field.scalar(v) for v in range(1, 13)]
        tested = [x.multiplicative_order() for x in elements]
        assert field.kth_roots(field.scalar(4), 2).complete
        assert [x.multiplicative_order() for x in elements] == tested
        assert tested == [1, 12, 3, 6, 4, 12, 12, 4, 3, 6, 12, 2]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 12, 15])
    def test_order_is_n_over_gcd_of_the_log(self, m):
        field = CyclotomicField(m)
        big_n, g = field.unity_group()
        x = field.one
        for e in range(big_n):
            assert field._unity_dlog(x.value) == e
            assert x.multiplicative_order() == big_n // math.gcd(e, big_n)
            x = x * g
        non_roots = [field.scalar(2)]
        if field.degree > 1:
            non_roots.append(field.scalar(2) + field.zeta)
        for x in non_roots:
            assert field._unity_dlog(x.value) is None
            assert x.multiplicative_order() is None

    @pytest.mark.parametrize("roots_first", [False, True])
    def test_zeta15_table_is_built_by_the_first_irrational_query(
        self, monkeypatch, roots_first
    ):
        # fields are interned, so the table is emptied for this test only
        field = CyclotomicField(15)
        monkeypatch.setattr(field, "_dlog", None)
        assert [x.multiplicative_order() for x in (field.one, -field.one)] == [1, 2]
        assert field._dlog is None
        out = field.kth_roots(field.scalar(8), 3)
        assert out.complete and len(out.roots) == 3
        assert field._dlog is None
        z = field.zeta
        elements = [z**e for e in (0, 1, 3, 5)] + [-z, field.scalar(2) + z]
        if roots_first:
            assert field.kth_roots(z, 2).complete
        assert [x.multiplicative_order() for x in elements] == [1, 15, 5, 3, 30, None]
        assert len(field._dlog) == 30
        assert field.kth_roots(-z, 3).complete
        assert [x.multiplicative_order() for x in elements] == [1, 15, 5, 3, 30, None]


class TestPerfectKthRoot:
    @pytest.mark.parametrize(
        "q, k, root",
        [
            ((1, 1), 5, (1, 1)),
            ((8, 27), 3, (2, 3)),
            ((2**28, 1), 7, (16, 1)),
            ((1, 2**28), 7, (1, 16)),
            ((3**40, 7**20), 20, (9, 7)),
            ((10**4300, 1), 4300, (10, 1)),
            ((4, 9), 3, None),
            ((2, 1), 2, None),
            ((9, 2), 2, None),
            ((2**28 + 1, 1), 7, None),
        ],
    )
    def test_int_pairs(self, q, k, root):
        assert perfect_kth_root(q, k) == root

    def test_agrees_with_fraction_powers(self):
        rng = random.Random(7500)
        for _ in range(200):
            k = rng.randint(1, 9)
            r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            q = r**k
            assert perfect_kth_root((q.numerator, q.denominator), k) == (
                r.numerator, r.denominator)
            # the prime 61 divides q exactly once, so q is no k-th power for k > 1
            q *= 61
            expected = None if k > 1 else (q.numerator, q.denominator)
            assert perfect_kth_root((q.numerator, q.denominator), k) == expected

    @pytest.mark.parametrize("q", [(0, 1), (-1, 4), (1, 0), (1, -2)])
    def test_refuses_a_non_positive_pair(self, q):
        with pytest.raises(ValueError, match="needs q > 0"):
            perfect_kth_root(q, 2)


class TestKthRoots:
    def test_rational_seventh_root(self):
        out = Q.kth_roots(Q.scalar(Fraction(1, 2**28)), 7)
        assert out.complete
        assert [r.value for r in out.roots] == [(1, 16)]

    def test_gf7_cubes_of_six(self):
        out = GF7.kth_roots(GF7.scalar(6), 3)
        assert out.complete
        assert sorted(r.value for r in out.roots) == [3, 5, 6]

    def test_sqrt2_empty_over_q(self):
        out = Q.kth_roots(Q.scalar(2), 2)
        assert out.complete and out.roots == ()

    def test_even_root_of_negative_over_q(self):
        out = Q.kth_roots(Q.scalar(-4), 2)
        assert out.complete and out.roots == ()

    def test_square_root_of_four(self):
        out = Q.kth_roots(Q.scalar(4), 2)
        assert {r.value for r in out.roots} == {(2, 1), (-2, 1)}

    def test_zeta3_root_of_unity_rhs(self):
        z = Z3.zeta
        out = Z3.kth_roots(z, 2)
        assert out.complete
        assert all(r * r == z for r in out.roots)
        assert len(out.roots) == 2  # gcd(2, 6) solutions once one exists

    def test_zeta_field_indeterminate(self):
        f = CyclotomicField(5)
        c = f.one + f.zeta  # not a rational multiple of a root of unity
        out = f.kth_roots(c, 3)
        assert not out.complete
        assert out.equation and "x^3" in out.equation

    def test_odd_k_non_perfect_power_is_decidably_empty(self):
        # a cyclotomic field cannot hold an irrational real radical of odd
        # degree, so these have no solutions at all
        z7 = CyclotomicField(7)
        out = z7.kth_roots(z7.scalar(-3), 3)
        assert out.complete and out.roots == ()
        c = z7.scalar(Fraction(-8, 9)) * z7.zeta**4
        out = z7.kth_roots(c, 7)
        assert out.complete and out.roots == ()

    def test_even_k_irrational_radical_stays_open(self):
        # sqrt(2) does live in Q(zeta_8), so even exponents must stay honest
        z8 = CyclotomicField(8)
        out = z8.kth_roots(z8.scalar(3), 2)
        assert not out.complete

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_radical_whose_power_is_not_a_perfect_power_stays_open(self, k):
        # c = sqrt(2): c^8 = 16 is rational but not a perfect 8th power, so
        # c is no root of unity times a rational. No root is claimed, and
        # the answer stays open, though none of these equations has one.
        z8 = CyclotomicField(8)
        c = z8.parse("z - z^3")
        assert c * c == z8.scalar(2)
        out = z8.kth_roots(c, k)
        assert out.roots == ()
        assert not out.complete and f"x^{k} = z - z^3 over Q(zeta_8)" in out.equation

    def test_unity_times_perfect_power(self):
        z7 = CyclotomicField(7)
        c = z7.scalar(8) * z7.zeta**3
        out = z7.kth_roots(c, 3)
        assert out.complete and len(out.roots) == 1
        assert out.roots[0] == z7.scalar(2) * z7.zeta
        assert out.roots[0] ** 3 == c

    def test_rational_times_unity_in_zeta3(self):
        # x^3 = 8 has the three solutions 2*mu_3 inside Q(zeta_3)
        out = Z3.kth_roots(Z3.scalar(8), 3)
        assert out.complete and len(out.roots) == 3
        for r in out.roots:
            assert r**3 == Z3.scalar(8)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Q.kth_roots(Q.zero, 3)

    def test_large_prime_has_no_dlog_table(self):
        # x^3 = 2 with gcd(3, p - 1) = 3 is decided by one discrete log
        big = PrimeField(1000003)
        two = big.scalar(2)
        out = big.kth_roots(two, 3)
        assert out.complete
        assert all(r**3 == two for r in out.roots)
        is_cube = pow(2, (big.p - 1) // 3, big.p) == 1
        assert len(out.roots) == (3 if is_cube else 0)

    def test_large_prime_coprime_exponent_has_one_root(self):
        # gcd(7, 1000002) = 1, so x -> x^7 permutes the units
        big = PrimeField(1000003)
        out = big.kth_roots(big.scalar(2), 7)
        assert out.complete and len(out.roots) == 1
        assert out.roots[0] ** 7 == big.scalar(2)

    @pytest.mark.parametrize("p", [1000003, 2**31 - 1])
    def test_large_prime_roots_of_one_need_no_table(self, p):
        # x^k = 1 is x = g^t with k*t = 0 (mod p - 1): no discrete log
        big = PrimeField(p)
        for k in (3, 7, 15):
            out = big.kth_roots(big.one, k)
            assert out.complete
            assert len(out.roots) == math.gcd(k, p - 1)
            assert list(out.roots) == big.roots_of_unity(k)
            assert all(r**k == big.one for r in out.roots)

    def test_first_power_is_decided_in_every_field(self):
        # c = 10/43 + ... is no rational times a root of unity, so the
        # characteristic-zero extractor alone would leave x^1 = c undecided
        z7 = CyclotomicField(7)
        c = z7.parse("2*z^3 + z^5").inverse()
        assert z7.kth_roots(c, 1) == (True, (c,), None)
        for field in ALL_FIELDS:
            c = field.scalar(3)
            assert field.kth_roots(c, 1).roots == (c,)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.descriptor())
    def test_ratio_between_roots_is_unity(self, field):
        rng = random.Random(5150)
        for _ in range(20):
            k = rng.choice([1, 2, 3, 5, 6])
            c = random_scalar(field, rng, nonzero=True)
            out = field.kth_roots(c, k)
            if not out.complete:
                continue
            unity = set(field.roots_of_unity(k))
            for x in out.roots:
                assert x**k == c
                for y in out.roots:
                    assert x / y in unity


class TestPrimeFieldDlog:
    """The Pohlig-Hellman discrete log of GF(p) and the root extraction it
    decides, against brute force."""

    LARGE = [999979, 1000003, 2**31 - 1, 2147483629]  # the last: 59652323 | p - 1

    def test_every_unit_of_every_prime_below_300(self):
        for p in filter(is_prime, range(300)):
            field = PrimeField(p)
            g, x = field.generator, 1
            for e in range(p - 1):
                assert field._unity_dlog(x) == e, (p, x)
                x = x * g % p

    @pytest.mark.parametrize("p", LARGE)
    def test_random_units_of_a_large_prime(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(5):
            e = rng.randrange(p - 1)
            assert field._unity_dlog(pow(field.generator, e, p)) == e

    @pytest.mark.parametrize("p", LARGE)
    def test_kth_roots_are_complete_and_exact(self, p):
        # Euler's criterion: x^k = c has gcd(k, p - 1) roots when
        # c^((p - 1) / gcd) = 1, and none otherwise
        field = PrimeField(p)
        rng = random.Random(p)
        for k in (3, 7, 15):
            g = math.gcd(k, p - 1)
            for c in [field.scalar(rng.randrange(1, p)) for _ in range(3)] + [
                field.scalar(rng.randrange(1, p)) ** k
            ]:
                out = field.kth_roots(c, k)
                assert out.complete
                assert all(r**k == c for r in out.roots)
                assert len(set(out.roots)) == len(out.roots)
                solvable = pow(c.value, (p - 1) // g, p) == 1
                assert len(out.roots) == (g if solvable else 0)


class TestSerialization:
    def test_rational_strings(self):
        assert str(Q.scalar(Fraction(-3, 4))) == "-3/4"
        assert Q.parse("-3/4").value == (-3, 4)

    def test_gf_strings(self):
        assert str(GF7.scalar(12)) == "5"
        assert GF7.parse("1/2").value == 4  # 2^{-1} = 4 mod 7

    def test_cyclotomic_strings(self):
        s = Z3.parse("1/2 + 3*z^2")
        # z^2 reduces to -1 - z, so the canonical form differs from the input
        assert s == Z3.scalar(Fraction(1, 2)) + Z3.scalar(3) * Z3.zeta**2
        round_trip = Z3.parse(str(s))
        assert round_trip == s

    @pytest.mark.parametrize("m", [3, 5, 15, 30])
    def test_cyclotomic_powers_of_z_fold_mod_m(self, m):
        field = CyclotomicField(m)
        for k in range(3 * m):
            assert field.parse(f"z^{k}") == field.zeta**k
        assert field.parse(f"2*z^{m + 1} - z^{2 * m}") == 2 * field.zeta - 1

    def test_cyclotomic_huge_power_of_z(self):
        # 10^12 = 10 (mod 15), so no list of 10^12 coefficients is built
        z15 = CyclotomicField(15)
        assert z15.parse("z^1000000000000") == z15.zeta**10

    def test_cyclotomic_format_examples(self):
        z7 = CyclotomicField(7)
        assert str(z7.zeta) == "z"
        assert str(-z7.zeta**3) == "-z^3"
        assert str(z7.one - z7.zeta) == "1 - z"
        assert str(z7.zero) == "0"

    def test_bad_scalars(self):
        with pytest.raises(ParseError):
            Q.parse("one half")
        with pytest.raises(ParseError):
            Z3.parse("z^")
        with pytest.raises(ParseError):
            Z3.parse("")

    @pytest.mark.parametrize(
        "term",
        ["z^" + "9" * 5000, "9" * 5000 + "*z", "1/" + "9" * 5000],
        ids=["exponent", "coefficient", "denominator"],
    )
    def test_term_past_the_int_digit_limit(self, term):
        # int() and Fraction() raise ValueError past 4,300 digits
        with pytest.raises(ParseError, match="bad term"):
            Z3.parse("1 + " + term)
