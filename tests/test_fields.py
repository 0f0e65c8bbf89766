"""Exact field arithmetic: rationals, Gaussian rationals, prime fields."""

import pickle
import re
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from evoalg.errors import (AlgebraSyntaxError, DivisionByZero, DomainError,
                           FieldLacksI, MixedFields)
from evoalg.fields import (_MR_BOUND, GF, PRIME, QI, QQ, FieldDescriptor,
                           FieldElement, _is_prime, is_square, order_key,
                           parse_element, sqrt_if_square, total_order)


def test_descriptors():
    assert QQ().has_i is False
    assert QI().has_i is True
    assert GF(13).has_i is True    # 5^2 = 25 = -1 mod 13
    assert GF(3).has_i is False    # 3 = 3 mod 4
    assert GF(7).has_i is False


def test_gf_requires_odd_prime():
    with pytest.raises(DomainError):
        GF(2)
    with pytest.raises(DomainError):
        GF(15)


@pytest.mark.parametrize("modulus", [7.0, 7.5, "7", True, None])
def test_gf_refuses_a_modulus_that_is_not_an_int(modulus):
    GF(7)  # an interned GF(7) must not answer for GF(7.0)
    with pytest.raises(DomainError, match="odd prime"):
        GF(modulus)
    with pytest.raises(DomainError, match="odd prime"):
        FieldDescriptor(PRIME, modulus)


def test_from_int_refuses_a_float_over_gf5():
    with pytest.raises(DomainError, match="integer"):
        GF(5).from_int(0.5)


def test_from_int_refuses_a_float_over_q():
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(DomainError, match="integer"):
        QQ().from_int(0.1)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] \
        == [n for n in range(10 ** 5) if _trial_division(n)]


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2; 2..7; 2..31; 2..37
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(DomainError):
            GF(n)


def test_large_prime_moduli_cost_no_scan():
    # trial division needs seconds for 10^16 + 61 and never ends for
    # 2^61 - 1; Miller-Rabin takes a handful of modular powers
    start = time.perf_counter()
    for p in (2 ** 61 - 1, 10 ** 16 + 61):
        assert _is_prime(p)
        assert GF(p).modulus == p
    assert time.perf_counter() - start < 0.5


def test_moduli_above_the_proven_bound_are_refused():
    # 2^89 - 1 is prime, but above the bound that makes the bases 2..41
    # a proof; a modulus with a small factor is still known composite
    assert 2 ** 89 - 1 > _MR_BOUND
    with pytest.raises(DomainError, match="only decided below"):
        GF(2 ** 89 - 1)
    with pytest.raises(DomainError, match="odd prime"):
        GF(3 * _MR_BOUND)


def test_parse_identity_zero():
    a = parse_element("0", QQ())
    assert a.is_zero()


def test_parse_gaussian():
    a = parse_element("1/2+3i", QI())
    assert a.value == (Fraction(1, 2), Fraction(3))
    assert parse_element("i", QI()) == QI().i()
    assert parse_element("-i", QI()) == -QI().i()


def test_parse_gaussian_signed_coefficient_after_operator():
    Qi = QI()
    assert parse_element("1+-2i", Qi).value == (1, -2)
    assert parse_element("1--2/3*i", Qi).value == (1, Fraction(2, 3))
    assert parse_element("--2i", Qi).value == (0, 2)


def test_rational_literals_take_only_ascii_digits():
    # \d and int() read the Arabic-Indic digits as 3/4
    with pytest.raises(AlgebraSyntaxError, match="bad rational literal"):
        parse_element("\u0663/\u0664", QQ())
    with pytest.raises(AlgebraSyntaxError, match="bad Gaussian"):
        parse_element("\u0663+i", QI())


def test_residue_literals_take_only_ascii_digits():
    with pytest.raises(AlgebraSyntaxError, match="bad residue literal"):
        parse_element("\u0663", GF(13))
    assert parse_element("-3", GF(13)) == GF(13).from_int(10)


def test_exponents_must_be_integers():
    x = GF(13).from_int(3)
    assert x ** 2 == GF(13).from_int(9) and x ** -1 * x == GF(13).one()
    with pytest.raises(DomainError, match="not an integer"):
        x ** 1.5


_RAT = r"-?\d+(?:/-?\d+)?"
_REAL = re.compile(f"({_RAT})")
_WITH_OPERATOR = re.compile(rf"({_RAT})?([+-])({_RAT})?\*?i")
_IMAGINARY = re.compile(rf"(?:({_RAT})\*?)?i")


def _grammar_value(text):
    """The (re, im) that parse_element's docstring grammar gives text, or
    None when text is not in the language."""
    def rat(t, default):
        if t is None:
            return default
        num, _, den = t.partition("/")
        return Fraction(int(num), int(den or 1))
    if m := _REAL.fullmatch(text):
        return rat(m[1], 0), Fraction(0)
    if m := _WITH_OPERATOR.fullmatch(text):
        return rat(m[1], 0), (-1 if m[2] == "-" else 1) * rat(m[3], 1)
    if m := _IMAGINARY.fullmatch(text):
        return Fraction(0), rat(m[1], 1)
    return None


def test_parse_gaussian_accepts_exactly_its_grammar():
    # every string of up to 6 tokens over these tokens: parse_element
    # accepts it exactly when the documented grammar does, with the
    # grammar's value (no denominator can be zero)
    Qi = QI()
    texts = [""]
    checked = 0
    for _ in range(6):
        texts = [t + c for t in texts for c in "123+-/*i"]
        for text in texts:
            expected = _grammar_value(text)
            try:
                got = parse_element(text, Qi).value
            except AlgebraSyntaxError:
                got = None
            assert got == expected, text
            checked += expected is not None
    assert checked > 1000


def test_f13_contains_i():
    five = parse_element("5", GF(13))
    assert (five * five) == GF(13).from_int(-1)
    assert GF(13).i() in (five, -five)


def test_parse_print_fixed_point():
    for text, desc in [("0", QQ()), ("-7/3", QQ()), ("1/2+3i", QI()),
                       ("-i", QI()), ("2-1/5i", QI()), ("11", GF(13))]:
        a = parse_element(text, desc)
        assert parse_element(str(a), desc) == a


# signed fractions, with zero and the unit parts that print without a
# coefficient (i, -i) drawn often
_FRACTIONS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]) \
    | st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                st.integers(1, 10 ** 6))


@given(st.sampled_from([QQ(), QI(), GF(13), GF(1000033)]), _FRACTIONS,
       _FRACTIONS, st.integers(-10 ** 9, 10 ** 9))
def test_parse_element_reads_what_str_writes(field, re_part, im_part, n):
    if field.kind == PRIME:
        x = field.from_int(n)
    elif field.has_i:
        x = FieldElement(field, (re_part, im_part))
    else:
        x = FieldElement(field, re_part)
    assert parse_element(str(x), field) == x


@pytest.mark.parametrize("chunks", [1, 2, 3, 7])
def test_str_writes_every_digit_past_the_int_string_limit(chunks):
    # d, the digits of chunks copies of a 4,000-digit block, is built
    # without converting more than 4,000 digits at once; str(x) over Q and
    # Q(i) writes its digits exactly, with the int-string limit in place
    block = "1234567890" * 400
    d = 0
    for _ in range(chunks):
        d = d * 10 ** len(block) + int(block)
    digits = block * chunks
    q = Fraction(-d, d + 1)         # d ends in 0, so d + 1 ends in 1
    text = f"-{digits}/{digits[:-1]}1"
    assert str(FieldElement(QQ(), q)) == text
    assert str(FieldElement(QI(), (Fraction(3), q))) == f"3{text}*i"
    assert str(FieldElement(QQ(), Fraction(d))) == digits


def test_parse_rejects_i_over_prime_field():
    with pytest.raises(AlgebraSyntaxError, match="residue"):
        parse_element("i", GF(13))


def test_parse_rejects_malformed():
    for text in ("", "1//2", "one", "2+", "i3"):
        with pytest.raises(AlgebraSyntaxError):
            parse_element(text, QI())


def test_division_by_zero():
    one = QQ().one()
    with pytest.raises(DivisionByZero):
        one / QQ().zero()
    # the payload division the classify normalizers use raises alike
    for F in (QQ(), QI(), GF(13)):
        ops = F.ops
        with pytest.raises(DivisionByZero):
            ops.div(ops.one, ops.zero)
        three, five = F.from_int(3), F.from_int(5)
        assert ops.div(three.value, five.value) == (three / five).value


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        QQ().one() + GF(13).one()


def test_i_unavailable():
    with pytest.raises(FieldLacksI):
        QQ().i()
    with pytest.raises(FieldLacksI):
        GF(7).i()


def test_sqrt_canonical_roots():
    # Q: the nonnegative root
    assert sqrt_if_square(QQ().from_int(4)) == QQ().from_int(2)
    assert sqrt_if_square(QQ().from_int(2)) is None
    assert sqrt_if_square(QQ().from_int(-1)) is None
    # GF(13): min(r, p - r); 3 has roots {4, 9}
    assert sqrt_if_square(GF(13).from_int(3)) == GF(13).from_int(4)
    # squares mod 13 are exactly {0,1,3,4,9,10,12}
    sq = {v for v in range(13) if is_square(GF(13).from_int(v))}
    assert sq == {0, 1, 3, 4, 9, 10, 12}
    # Q(i): re > 0, or re = 0 and im >= 0
    r = sqrt_if_square(QI().from_int(-1))
    assert r == QI().i()
    assert sqrt_if_square(QI().from_int(-4)) == \
        QI().from_int(2) * QI().i()


@given(st.fractions(), st.fractions())
def test_rational_field_axioms(x, y):
    F = QQ()
    from evoalg.fields import FieldElement
    a, b = FieldElement(F, x), FieldElement(F, y)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + F.one()) == a * b + a
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.integers(0, 12), st.integers(0, 12))
def test_gf13_axioms(x, y):
    F = GF(13)
    a, b = F.from_int(x), F.from_int(y)
    assert a + b == b + a
    assert a * (a + b) == a * a + a * b
    if not b.is_zero():
        assert b * b.inverse() == F.one()


@given(st.integers(0, 12))
def test_gf13_sqrt_consistency(x):
    a = GF(13).from_int(x)
    r = sqrt_if_square(a)
    assert (r is None) == (not is_square(a))
    if r is not None:
        assert r * r == a
        # canonical choice: the smaller residue of the two roots
        assert r.value <= (13 - r.value) % 13 or a.is_zero()


def test_total_order_is_total():
    F = GF(13)
    xs = [F.from_int(k) for k in range(13)]
    ordered = sorted(xs, key=order_key)
    for a, b in zip(ordered, ordered[1:]):
        assert total_order(a, b) <= 0


def test_descriptors_are_interned_and_compare_by_value():
    assert GF(13) is GF(13) and QQ() is QQ() and QI() is QI()
    direct = FieldDescriptor(PRIME, 13)
    assert direct is not GF(13)
    assert direct == GF(13) and hash(direct) == hash(GF(13))
    # elements over an equal but separately built descriptor still mix
    a = FieldElement(direct, 5)
    assert a + GF(13).from_int(8) == GF(13).zero()
    assert GF(13).one() * a == a


def _small_fraction():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


# one strategy per field: (descriptor, payload strategy)
FIELD_PAYLOADS = [
    (GF(13), st.integers(0, 12)),
    (QQ(), _small_fraction()),
    (QI(), st.tuples(_small_fraction(), _small_fraction())),
]


ELEMENTS = st.sampled_from(FIELD_PAYLOADS).flatmap(
    lambda fp: st.builds(FieldElement, st.just(fp[0]), fp[1]))


@given(ELEMENTS)
def test_elements_stay_immutable_and_hashable(x):
    field, payload = x.field, x.value
    twin = FieldElement(FieldDescriptor(field.kind, field.modulus), payload)
    assert x == twin and hash(x) == hash(twin) and len({x, twin}) == 1
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(FrozenInstanceError):
        x.value = payload
    with pytest.raises(FrozenInstanceError):
        del x.field
    # arithmetic returns new elements and leaves its operands alone
    y = x + x * x - x
    assert x.value == payload and x.field is field and y.field is field


@given(ELEMENTS, ELEMENTS)
def test_mixing_fields_raises(a, b):
    assume(a.field != b.field)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(MixedFields):
            op()
