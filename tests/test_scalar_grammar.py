"""Scalar literals over Q, GF(7) and Q(zeta_5): the raw value each one parses
to, or the ParseError it raises. The table was recorded from the parser that
read rationals with fractions.Fraction, whose literal grammar the int parser
keeps: a sign, digits with single underscores between them, then "/" and a
denominator, or a fractional part and an exponent; the exponent is capped at
4300 in magnitude, and a denominator is reduced before GF(p) checks it. The
rows that pass the exponent cap or whose denominator vanishes mod 7 give the
ParseError text of the check that refused them; the recorded parser hid it
behind the generic "bad rational" or "bad GF(7) scalar" text, which a
malformed literal still gets, whatever exponent it carries."""

from fractions import Fraction

import pytest

from evoalg.errors import ParseError
from evoalg.fields import parse_field

# (field, literal, ("value", raw value) or ("ParseError", message))
TABLE = [
    # Q
    ('Q', '3', ('value', (3, 1))),
    ('Q', '-3', ('value', (-3, 1))),
    ('Q', '+3', ('value', (3, 1))),
    ('Q', '0', ('value', (0, 1))),
    ('Q', '-0', ('value', (0, 1))),
    ('Q', '-3/4', ('value', (-3, 4))),
    ('Q', '+3/4', ('value', (3, 4))),
    ('Q', '2/4', ('value', (1, 2))),
    ('Q', '-10/4', ('value', (-5, 2))),
    ('Q', '0/5', ('value', (0, 1))),
    ('Q', '.5', ('value', (1, 2))),
    ('Q', '-.5', ('value', (-1, 2))),
    ('Q', '5.', ('value', (5, 1))),
    ('Q', '0.125', ('value', (1, 8))),
    ('Q', '1e3', ('value', (1000, 1))),
    ('Q', '1E-3', ('value', (1, 1000))),
    ('Q', '1.5e2', ('value', (150, 1))),
    ('Q', '-2.5E+1', ('value', (-25, 1))),
    ('Q', '1_000', ('value', (1000, 1))),
    ('Q', '1__0', ('ParseError', "bad rational '1__0'")),
    ('Q', '1_000/3_0', ('value', (100, 3))),
    ('Q', '1e1_0', ('value', (10000000000, 1))),
    ('Q', '3/0', ('ParseError', "bad rational '3/0'")),
    ('Q', ' 7 ', ('value', (7, 1))),
    ('Q', '\t7\t', ('value', (7, 1))),
    ('Q', '\t-3/4\n', ('value', (-3, 4))),
    ('Q', '3 / 4', ('value', (3, 4))),
    ('Q', '3\t/4', ('ParseError', "bad rational '3\\t/4'")),
    ('Q', '1e4300', ('value', (10**4300, 1))),
    ('Q', '1e-4300', ('value', (1, 10**4300))),
    ('Q', '1e04300', ('value', (10**4300, 1))),
    ('Q', '1e4301', ('ParseError', "exponent of '1e4301' exceeds 4300 in magnitude")),
    ('Q', '1E-4301', ('ParseError', "exponent of '1E-4301' exceeds 4300 in magnitude")),
    ('Q', '1e99999999999', ('ParseError', "exponent of '1e99999999999' exceeds 4300 in magnitude")),
    ('Q', '', ('ParseError', "bad rational ''")),
    ('Q', 'z', ('ParseError', "bad rational 'z'")),
    ('Q', '1/2/3', ('ParseError', "bad rational '1/2/3'")),
    ('Q', '1.5/2', ('ParseError', "bad rational '1.5/2'")),
    ('Q', 'e5', ('ParseError', "bad rational 'e5'")),
    ('Q', '.', ('ParseError', "bad rational '.'")),
    ('Q', '1..5', ('ParseError', "bad rational '1..5'")),
    ('Q', '0x10', ('ParseError', "bad rational '0x10'")),
    ('Q', '1e', ('ParseError', "bad rational '1e'")),
    ('Q', '--1', ('ParseError', "bad rational '--1'")),
    ('Q', '1/-2', ('ParseError', "bad rational '1/-2'")),
    ('Q', '\u0663\u0664', ('value', (34, 1))),
    ('Q', '\u00bd', ('ParseError', "bad rational '\u00bd'")),
    ('Q', '1.d', ('ParseError', "bad rational '1.d'")),
    # GF(7)
    ('GF(7)', '3', ('value', 3)),
    ('GF(7)', '-1', ('value', 6)),
    ('GF(7)', '1/2', ('value', 4)),
    ('GF(7)', '2/14', ('ParseError', 'denominator of 1/7 vanishes mod 7')),
    ('GF(7)', '14/14', ('value', 1)),
    ('GF(7)', '3/0', ('ParseError', "bad GF(7) scalar '3/0'")),
    ('GF(7)', '0.5', ('value', 4)),
    ('GF(7)', '1e3', ('value', 6)),
    ('GF(7)', '1E-3', ('value', 6)),
    ('GF(7)', '7/2', ('value', 0)),
    ('GF(7)', '1/7', ('ParseError', 'denominator of 1/7 vanishes mod 7')),
    ('GF(7)', ' 5 ', ('value', 5)),
    ('GF(7)', '\t5\t', ('value', 5)),
    ('GF(7)', '1_000', ('value', 6)),
    ('GF(7)', '1e4300', ('value', 4)),
    ('GF(7)', '1e4301', ('ParseError', "exponent of '1e4301' exceeds 4300 in magnitude")),
    ('GF(7)', 'z', ('ParseError', "bad GF(7) scalar 'z'")),
    ('GF(7)', '', ('ParseError', "bad GF(7) scalar ''")),
    ('GF(7)', '-.5', ('value', 3)),
    # Q(zeta_5)
    ('Q(zeta_5)', 'z', ('value', (0, 1, 0, 0, 1))),
    ('Q(zeta_5)', '-z^2', ('value', (0, 0, -1, 0, 1))),
    ('Q(zeta_5)', '1/2*z^3', ('value', (0, 0, 0, 1, 2))),
    ('Q(zeta_5)', '27/2*z^6', ('value', (0, 27, 0, 0, 2))),
    ('Q(zeta_5)', '1 + z + z^2 + z^3 + z^4', ('value', (0, 0, 0, 0, 1))),
    ('Q(zeta_5)', '2/4z', ('value', (0, 1, 0, 0, 2))),
    ('Q(zeta_5)', '3/0*z', ('ParseError', "bad term '3/0*z' in '3/0*z'")),
    ('Q(zeta_5)', 'z^5', ('value', (1, 0, 0, 0, 1))),
    ('Q(zeta_5)', '\tz', ('ParseError', "bad term '\\tz' in '\\tz'")),
    ('Q(zeta_5)', ' z ', ('value', (0, 1, 0, 0, 1))),
    ('Q(zeta_5)', '1.5*z', ('ParseError', "bad term '1.5*z' in '1.5*z'")),
    ('Q(zeta_5)', '1e3', ('ParseError', "bad term '1e3' in '1e3'")),
    ('Q(zeta_5)', '+z', ('value', (0, 1, 0, 0, 1))),
    ('Q(zeta_5)', '--z', ('ParseError', "bad scalar '--z'")),
    ('Q(zeta_5)', 'z^-1', ('ParseError', "bad term 'z^' in 'z^-1'")),
    ('Q(zeta_5)', '', ('ParseError', 'empty scalar string')),
    ('Q(zeta_5)', '1_000*z', ('ParseError', "bad term '1_000*z' in '1_000*z'")),
    ('Q(zeta_5)', '\u0663*z', ('value', (0, 3, 0, 0, 1))),
    ('Q(zeta_5)', '-3/4', ('value', (-3, 0, 0, 0, 4))),
    ('Q(zeta_5)', '7', ('value', (7, 0, 0, 0, 1))),
    ('Q(zeta_5)', '3/6 - 1/2', ('value', (0, 0, 0, 0, 1))),
    ('Q(zeta_5)', 'z*2', ('ParseError', "bad term 'z*2' in 'z*2'")),
    # Malformed literals whose exponent passes the cap: the generic text,
    # not the exponent check's.
    ('Q', '1/2e4301', ('ParseError', "bad rational '1/2e4301'")),
    ('Q', 'xe99999999999', ('ParseError', "bad rational 'xe99999999999'")),
    ('GF(7)', '1/2e4301', ('ParseError', "bad GF(7) scalar '1/2e4301'")),
]


@pytest.mark.parametrize("descriptor, text, expected", TABLE)
def test_literal(descriptor, text, expected):
    field = parse_field(descriptor)
    kind, want = expected
    if kind == "value":
        assert field.parse(text).value == want
    else:
        with pytest.raises(ParseError) as info:
            field.parse(text)
        assert type(info.value) is ParseError and str(info.value) == want


def test_rationals_are_read_by_their_attributes():
    q, gf7, z5 = (parse_field(d) for d in ("Q", "GF(7)", "Q(zeta_5)"))
    assert q.scalar(Fraction(-6, 8)).value == (-3, 4)
    assert gf7.scalar(Fraction(1, 2)).value == 4
    assert z5.scalar(Fraction(3, 2)).value == (3, 0, 0, 0, 2)
    assert q.parse("3/4") == Fraction(3, 4) and q.parse("3/4") != Fraction(1, 4)
    assert gf7.parse("4") == Fraction(1, 2)
    with pytest.raises(ParseError, match=r"^denominator of 1/7 vanishes mod 7$"):
        gf7.scalar(Fraction(1, 7))
    assert gf7.one != Fraction(1, 7)
    for field in (q, gf7, z5):
        with pytest.raises(ParseError, match="^bool is not a scalar$"):
            field.scalar(True)
        with pytest.raises(ParseError, match="^cannot coerce 0.5 into "):
            field.scalar(0.5)
        assert field.one != True  # noqa: E712
