"""Exact arithmetic over the supported coefficient fields.

Three fields are available: the rationals Q, the Gaussian rationals Q(i),
and prime fields GF(p) for odd p.  Elements are immutable and compare by
canonical value, so they can be used freely as dict keys and shared
between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    DomainError,
    FieldLacksI,
    MixedFields,
    AlgebraSyntaxError,
)

RATIONALS = "Q"
GAUSSIAN = "Qi"
PRIME = "GF"


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies one of the supported coefficient fields."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, GAUSSIAN, PRIME):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME:
            p = self.modulus
            if p is None or p < 3 or not _is_prime(p):
                raise DomainError(f"modulus must be an odd prime, got {p}")
        elif self.modulus is not None:
            raise DomainError("modulus only applies to prime fields")

    @property
    def has_i(self) -> bool:
        """True when the field contains a square root of -1."""
        if self.kind == GAUSSIAN:
            return True
        if self.kind == PRIME:
            return self.modulus % 4 == 1
        return False

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == RATIONALS:
            return FieldElement(self, Fraction(n))
        if self.kind == GAUSSIAN:
            return FieldElement(self, (Fraction(n), Fraction(0)))
        return FieldElement(self, n % self.modulus)

    def i(self) -> "FieldElement":
        """The distinguished square root of -1."""
        if self.kind == GAUSSIAN:
            return FieldElement(self, (Fraction(0), Fraction(1)))
        if self.kind == PRIME and self.has_i:
            r = sqrt_if_square(self.from_int(-1))
            assert r is not None
            return r
        raise FieldLacksI(f"{self} has no square root of -1")

    def elements(self):
        """Iterate all field elements (prime fields only)."""
        if self.kind != PRIME:
            raise DomainError("only prime fields are finite")
        for v in range(self.modulus):
            yield FieldElement(self, v)

    def __str__(self):
        if self.kind == PRIME:
            return f"GF({self.modulus})"
        return "Q(i)" if self.kind == GAUSSIAN else "Q"


def QQ() -> FieldDescriptor:
    return FieldDescriptor(RATIONALS)


def QI() -> FieldDescriptor:
    return FieldDescriptor(GAUSSIAN)


def GF(p: int) -> FieldDescriptor:
    return FieldDescriptor(PRIME, p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldElement:
    """An exact scalar.  The payload depends on the field kind:

    Q      -> Fraction
    Q(i)   -> (Fraction, Fraction) pair (re, im)
    GF(p)  -> reduced residue in 0..p-1
    """

    field: FieldDescriptor
    value: object

    # -- arithmetic -------------------------------------------------

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONALS:
            return FieldElement(self.field, self.value + other.value)
        if k == GAUSSIAN:
            (a, b), (c, d) = self.value, other.value
            return FieldElement(self.field, (a + c, b + d))
        return FieldElement(self.field, (self.value + other.value) % self.field.modulus)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        k = self.field.kind
        if k == RATIONALS:
            return FieldElement(self.field, -self.value)
        if k == GAUSSIAN:
            a, b = self.value
            return FieldElement(self.field, (-a, -b))
        return FieldElement(self.field, (-self.value) % self.field.modulus)

    def __mul__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONALS:
            return FieldElement(self.field, self.value * other.value)
        if k == GAUSSIAN:
            (a, b), (c, d) = self.value, other.value
            return FieldElement(self.field, (a * c - b * d, a * d + b * c))
        return FieldElement(self.field, (self.value * other.value) % self.field.modulus)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        k = self.field.kind
        if k == RATIONALS:
            return FieldElement(self.field, 1 / self.value)
        if k == GAUSSIAN:
            a, b = self.value
            n = a * a + b * b
            return FieldElement(self.field, (a / n, -b / n))
        p = self.field.modulus
        return FieldElement(self.field, pow(self.value, p - 2, p))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -------------------------------------------------

    def is_zero(self) -> bool:
        if self.field.kind == GAUSSIAN:
            return self.value[0] == 0 and self.value[1] == 0
        return self.value == 0

    def is_one(self) -> bool:
        return self == self.field.one()

    # -- display ----------------------------------------------------

    def __str__(self):
        k = self.field.kind
        if k == PRIME:
            return str(self.value)
        if k == RATIONALS:
            return _fmt_frac(self.value)
        re_, im = self.value
        if im == 0:
            return _fmt_frac(re_)
        imtxt = "i" if abs(im) == 1 else _fmt_frac(abs(im)) + "*i"
        sign = "-" if im < 0 else ("+" if re_ != 0 else "")
        if re_ == 0:
            return sign + imtxt
        return _fmt_frac(re_) + sign + imtxt

    def __repr__(self):
        return f"<{self} in {self.field}>"


def _fmt_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# parsing

_RAT = r"-?\d+(?:/-?\d+)?"


def _parse_frac(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise DomainError("denominator zero")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_element(text: str, desc: FieldDescriptor) -> FieldElement:
    """Parse an element literal.

    Grammar: ``rat := int ['/' int]``;
    ``gauss := rat | [rat] ('+'|'-') rat '*'? 'i' | [-]i``.
    Prime field literals are plain integers.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise AlgebraSyntaxError("empty element literal")
    if desc.kind == PRIME:
        if "i" in text:
            raise AlgebraSyntaxError(
                "use residue literals over a prime field, not 'i'")
        if not re.fullmatch(r"-?\d+", text):
            raise AlgebraSyntaxError(f"bad residue literal {text!r}")
        return desc.from_int(int(text))
    if desc.kind == RATIONALS:
        if not re.fullmatch(_RAT, text):
            if "i" in text:
                raise DomainError("'i' is not an element of Q")
            raise AlgebraSyntaxError(f"bad rational literal {text!r}")
        return FieldElement(desc, _parse_frac(text))
    # Gaussian rationals: rat | [rat] ['+'|'-'] rat '*'? 'i' | 'i' | '-i'
    def bad():
        raise AlgebraSyntaxError(f"bad Gaussian rational literal {text!r}")

    if not text.endswith("i"):
        if not re.fullmatch(_RAT, text):
            bad()
        return FieldElement(desc, (_parse_frac(text), Fraction(0)))
    body = text[:-1]
    if body.endswith("*"):
        body = body[:-1]
        if not body:
            bad()
    # split off the real part at the last top-level sign (a sign at
    # position 0 is part of the imaginary coefficient itself)
    split_at = max((k for k in range(1, len(body)) if body[k] in "+-"
                    and body[k - 1] not in "/*"), default=None)
    if split_at is None:
        re_txt, im_txt = "", body
    else:
        re_txt, im_txt = body[:split_at], body[split_at:]
    re_part = Fraction(0)
    if re_txt:
        if not re.fullmatch(_RAT, re_txt):
            bad()
        re_part = _parse_frac(re_txt)
    if im_txt in ("", "+"):
        im_part = Fraction(1)
    elif im_txt == "-":
        im_part = Fraction(-1)
    else:
        if im_txt[0] == "+":
            im_txt = im_txt[1:]
        if not re.fullmatch(_RAT, im_txt):
            bad()
        im_part = _parse_frac(im_txt)
    return FieldElement(desc, (re_part, im_part))


# ---------------------------------------------------------------------------
# ordering and square roots

def total_order(a: FieldElement, b: FieldElement) -> int:
    """Total order: -1, 0 or 1.  Rationals by value, Gaussian rationals
    lexicographically by (re, im), prime fields by residue."""
    a._check(b)
    ka, kb = a.value, b.value
    return (ka > kb) - (ka < kb)


def order_key(a: FieldElement):
    """Sort key consistent with total_order."""
    return a.value


def _frac_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _tonelli_shanks(n: int, p: int) -> int | None:
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def sqrt_if_square(a: FieldElement) -> FieldElement | None:
    """Return r with r*r == a when such r exists in the field, else None.

    The returned root is canonical: nonnegative over Q, smallest residue
    over GF(p), and over Q(i) the root with re > 0, or re == 0 and im >= 0.
    """
    k = a.field.kind
    if k == RATIONALS:
        r = _frac_sqrt(a.value)
        return None if r is None else FieldElement(a.field, r)
    if k == PRIME:
        p = a.field.modulus
        r = _tonelli_shanks(a.value, p)
        if r is None:
            return None
        return FieldElement(a.field, min(r, (p - r) % p))
    re_, im = a.value
    if im == 0:
        r = _frac_sqrt(re_)
        if r is not None:
            return FieldElement(a.field, (r, Fraction(0)))
        r = _frac_sqrt(-re_)
        if r is not None:
            return FieldElement(a.field, (Fraction(0), r))
        return None
    # solve (x + yi)^2 = re + im*i: x^2 - y^2 = re, 2xy = im
    t = _frac_sqrt(re_ * re_ + im * im)
    if t is None:
        return None
    x2 = (re_ + t) / 2
    x = _frac_sqrt(x2)
    if x is None or x == 0:
        return None
    y = im / (2 * x)
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return FieldElement(a.field, (x, y))


def is_square(a: FieldElement) -> bool:
    return sqrt_if_square(a) is not None
