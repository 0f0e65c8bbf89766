"""Exact arithmetic over the supported coefficient fields.

Three fields are available: the rationals Q, the Gaussian rationals Q(i),
and prime fields GF(p) for odd p.  Elements are immutable and compare by
canonical value, so they can be used freely as dict keys and shared
between threads.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from ._values import Frozen, frozen_error, set_fields
from .errors import (
    DivisionByZero,
    DomainError,
    FieldLacksI,
    MixedFields,
    AlgebraSyntaxError,
    ShapeError,
)

RATIONALS = "Q"
GAUSSIAN = "Qi"
PRIME = "GF"


class FieldDescriptor(Frozen):
    """Identifies one of the supported coefficient fields.

    ``GF``, ``QQ`` and ``QI`` hand out one shared descriptor per field, so
    hot paths compare fields by identity first; equality stays by value.
    ``ops`` is the field's table of raw-payload operations.
    """

    __slots__ = ("kind", "modulus", "ops")
    _fields = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in (RATIONALS, GAUSSIAN, PRIME):
            raise DomainError(f"unknown field kind {kind!r}")
        if kind == PRIME:
            p = modulus
            if type(p) is not int or p < 3 or not _is_prime(p):
                raise DomainError(f"modulus must be an odd prime, got {p!r}")
            ops = _PrimeOps(p)
        elif modulus is not None:
            raise DomainError("modulus only applies to prime fields")
        else:
            ops = _RATIONAL_OPS if kind == RATIONALS else _GAUSSIAN_OPS
        set_fields(self, kind, modulus)
        object.__setattr__(self, "ops", ops)

    def __reduce__(self):
        return _interned, (self.kind, self.modulus)

    @property
    def has_i(self) -> bool:
        """True when the field contains a square root of -1."""
        return self.ops.i is not None

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.ops.zero)

    def one(self) -> "FieldElement":
        return FieldElement(self, self.ops.one)

    def from_int(self, n: int) -> "FieldElement":
        """n as an element; raises DomainError unless n is an integer
        (anything ``operator.index`` accepts)."""
        try:
            n = operator.index(n)
        except TypeError:
            raise DomainError(f"expected an integer, got {n!r}") from None
        return FieldElement(self, self.ops.of_int(n))

    def require(self, other: "FieldDescriptor"):
        """Raise MixedFields unless ``other`` is this field."""
        if other is not self and other != self:
            raise MixedFields(f"{self} vs {other}")

    def payloads(self, v) -> list:
        """The payloads of the elements v, which must lie in this field;
        ShapeError for an entry that is not a field element."""
        try:
            for x in v:
                if x.field is not self:
                    self.require(x.field)
            return [x.value for x in v]
        except AttributeError:
            raise ShapeError(
                f"entry {x!r} is not a field element") from None

    def i(self) -> "FieldElement":
        """The distinguished square root of -1."""
        if self.ops.i is None:
            raise FieldLacksI(f"{self} has no square root of -1")
        return FieldElement(self, self.ops.i)

    def __str__(self):
        if self.kind == PRIME:
            return f"GF({self.modulus})"
        return "Q(i)" if self.kind == GAUSSIAN else "Q"


_DESCRIPTORS: dict = {}


def _interned(kind: str, modulus: int | None = None) -> FieldDescriptor:
    # keyed by the modulus's type too: 7.0 == 7, but GF(7.0) is refused
    key = kind, type(modulus), modulus
    desc = _DESCRIPTORS.get(key)
    if desc is None:
        desc = _DESCRIPTORS[key] = FieldDescriptor(kind, modulus)
    return desc


def QQ() -> FieldDescriptor:
    return _interned(RATIONALS)


def QI() -> FieldDescriptor:
    return _interned(GAUSSIAN)


def GF(p: int) -> FieldDescriptor:
    return _interned(PRIME, p)


# Miller-Rabin to the prime bases 2..41 proves primality below the bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises DomainError from ``_MR_BOUND``
    on, where it would prove nothing, unless a base divides n."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise DomainError(f"primality is only decided below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# raw-payload operations, one table per field

class FieldOps:
    """Arithmetic on the raw payloads of one field.

    This is the exact core that linear algebra, algebra products and the
    classify normalizers run on: public functions unwrap ``FieldElement``
    values once, compute here, and wrap once at the output.  Payloads
    compare with ``==`` exactly when the elements do, so ``x != ops.zero``
    tests for a nonzero payload, and a payload is its own sort key (see
    ``order_key``).  ``sqrt`` and ``cbrt`` return the canonical root or
    None, and ``i`` is the payload of the distinguished square root of
    -1, or None.

    The row operations (``dot``, ``wdot``, ``scale``, ``addmul``), the
    row kernels (``rref``, ``product``, ``combine``) and the witness
    check ``realizes`` take payload rows: they never mutate a row list
    they are handed, so rows may be shared between matrices, subspaces
    and algebras.  They take canonical payloads (over GF(p) the reduced
    residues 0..p-1) and return canonical payloads.  The bodies here go
    through the scalar operations one call per entry; ``_PrimeOps``
    overrides every one, and ``div`` and ``sqrt`` too, with inline
    integer arithmetic, and its ``dot``, ``wdot``, ``product``,
    ``combine`` and ``realizes`` add up unreduced products and reduce
    once per entry at the end.
    """

    def __init__(self, zero, one, of_int, add, sub, neg, mul, inv, sqrt,
                 cbrt):
        self.zero, self.one, self.of_int = zero, one, of_int
        self.add, self.sub, self.neg, self.mul, self.inv = \
            add, sub, neg, mul, inv
        self.sqrt, self.cbrt = sqrt, cbrt
        self.i = sqrt(of_int(-1))

    def div(self, a, b):
        """a / b; raises DivisionByZero for b = 0."""
        if b == self.zero:
            raise DivisionByZero("zero has no inverse")
        return self.mul(a, self.inv(b))

    def dot(self, u, v):
        """sum_k u_k v_k"""
        add, mul = self.add, self.mul
        acc = self.zero
        for a, b in zip(u, v):
            acc = add(acc, mul(a, b))
        return acc

    def wdot(self, u, v, w):
        """sum_k u_k v_k w_k: the bilinear form with diagonal w at (u, v)"""
        add, mul = self.add, self.mul
        acc = self.zero
        for a, b, c in zip(u, v, w):
            acc = add(acc, mul(mul(a, b), c))
        return acc

    def scale(self, c, v):
        """c v"""
        mul = self.mul
        return [mul(c, b) for b in v]

    def addmul(self, u, c, v):
        """u + c v"""
        add, mul = self.add, self.mul
        return [add(a, mul(c, b)) for a, b in zip(u, v)]

    def rref(self, rows: list[list], ncols: int) -> list[int]:
        """Bring the payload rows to reduced row echelon form, looking for
        pivots in the first ``ncols`` columns; returns the pivot columns.
        Trailing columns ride along, so [A | B] reduces A and transforms
        B.  The list is reordered and its rows replaced in place, but no
        row list is ever mutated."""
        Z, inv, neg, scale, addmul = self.zero, self.inv, self.neg, \
            self.scale, self.addmul
        nrows = len(rows)
        pivots = []
        for col in range(ncols):
            top = len(pivots)
            pr = next((r for r in range(top, nrows) if rows[r][col] != Z),
                      None)
            if pr is None:
                continue
            rows[top], rows[pr] = rows[pr], rows[top]
            prow = rows[top] = scale(inv(rows[top][col]), rows[top])
            for r in range(nrows):
                c = rows[r][col]
                if r != top and c != Z:
                    rows[r] = addmul(rows[r], neg(c), prow)
            pivots.append(col)
            if len(pivots) == nrows:
                break
        return pivots

    def product(self, rows: list[list], x: list, y: list) -> list:
        """sum_i x_i y_i rows[i]: the product of x and y in the evolution
        algebra whose structure rows (rows[i] = e_i^2) are ``rows``."""
        Z, mul, addmul = self.zero, self.mul, self.addmul
        out = [Z] * len(rows)
        for a, b, row in zip(x, y, rows):
            c = mul(a, b)
            if c != Z:
                out = addmul(out, c, row)
        return out

    def combine(self, coefs: list, rows: list[list], ncols: int) -> list:
        """sum_k coefs[k] rows[k] as one row of length ``ncols``."""
        Z, addmul = self.zero, self.addmul
        v = [Z] * ncols
        for c, row in zip(coefs, rows):
            if c != Z:
                v = addmul(v, c, row)
        return v

    def realizes(self, A1, A2, cols) -> bool:
        """Whether x -> sum_j x_j cols[j] carries the evolution algebra
        with structure rows A1 isomorphically onto the one with structure
        rows A2: the columns are coordinate vectors in A2's natural
        basis, one per basis vector of A1.

        The product test comes first.  Each column's square must be the
        combination of the columns that A1's row gives, and images of
        distinct basis vectors must multiply to zero (by bilinearity that
        is all).  A cross product sum_k x_k y_k f_k^2 has a term only at
        the k with f_k^2 != 0 where both columns are nonzero, so it is
        computed only where the two supports meet on those rows.  Then
        the rank test: columns that first become nonzero in distinct
        rows form a triangular matrix up to the column order, full rank
        with no elimination; other columns are eliminated."""
        n = len(cols)
        Z, product, combine = self.zero, self.product, self.combine
        for i, col in enumerate(cols):
            if combine(A1[i], cols, n) != product(A2, col, col):
                return False
        # the rows f_k^2 != 0, the only ones a product reads
        live = _support_mask([_support_mask(row, Z) for row in A2], 0)
        masks = [_support_mask(col, Z) for col in cols]
        zero = [Z] * n
        for i in range(n):
            si = masks[i] & live
            for j in range(i + 1, n):
                if si & masks[j] and product(A2, cols[i], cols[j]) != zero:
                    return False
        return _leads_distinct(masks) or len(self.rref(list(cols), n)) == n


def _support_mask(v, Z) -> int:
    """The int whose bit k is set when v[k] is not Z."""
    m, bit = 0, 1
    for x in v:
        if x != Z:
            m |= bit
        bit <<= 1
    return m


def _leads_distinct(masks) -> bool:
    """Whether the support masks of the columns of a square matrix are
    nonzero with distinct lowest bits: the columns first become nonzero
    in distinct rows, so the matrix has full rank."""
    seen = 0
    for m in masks:
        low = m & -m
        if not low or seen & low:
            return False
        seen |= low
    return True


# how many residues a GF(p) op table keeps the square root of: every
# residue of a small field, and a bounded share of a large one (threads
# that fill the last place at once may each add one more)
_SQRT_MEMO = 256
_MISSING = object()


class _PrimeOps(FieldOps):
    """GF(p): the row operations and kernels run inline on ints.  ``rref``
    reduces once per entry it writes; ``dot``, ``wdot``, ``product`` and
    ``combine`` sum unreduced products and reduce each entry once, at the
    end, and ``realizes`` reduces each entry it compares once and stops
    at the first column that fails.  ``div`` multiplies by one modular
    inverse, and ``sqrt`` keeps the root (or None) of the first
    ``_SQRT_MEMO`` residues it is asked for, so a field of at most that
    many elements runs Tonelli-Shanks once per residue."""

    def __init__(self, p):
        # first: FieldOps.__init__ takes the root of -1 by _sqrt
        self.p, self._roots = p, {}
        super().__init__(
            0, 1, lambda n: n % p, lambda a, b: (a + b) % p,
            lambda a, b: (a - b) % p, lambda a: -a % p,
            lambda a, b: a * b % p, lambda a: pow(a, -1, p),
            self._sqrt, lambda a: _cube_root_mod(a, p))

    def _sqrt(self, a):
        """The smaller of the two roots, or None."""
        roots = self._roots
        r = roots.get(a, _MISSING)
        if r is not _MISSING:
            return r
        p = self.p
        r = _tonelli_shanks(a, p)
        if r is not None:
            r = min(r, p - r)
        if len(roots) < _SQRT_MEMO:
            roots[a] = r
        return r

    def div(self, a, b):
        if not b:
            raise DivisionByZero("zero has no inverse")
        p = self.p
        return a * pow(b, -1, p) % p

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def wdot(self, u, v, w):
        mul = operator.mul
        return sum(map(mul, map(mul, u, v), w)) % self.p

    def scale(self, c, v):
        p = self.p
        return [c * b % p for b in v]

    def addmul(self, u, c, v):
        p = self.p
        return [(a + c * b) % p for a, b in zip(u, v)]

    def rref(self, rows, ncols):
        p = self.p
        nrows = len(rows)
        pivots = []
        top = 0
        for col in range(ncols):
            for pr in range(top, nrows):
                if rows[pr][col]:
                    break
            else:
                continue
            prow = rows[pr]
            rows[pr] = rows[top]
            lead = prow[col]
            if lead != 1:
                lead = pow(lead, -1, p)
                prow = [lead * b % p for b in prow]
            rows[top] = prow
            for r, row in enumerate(rows):
                c = row[col]
                if c and r != top:
                    rows[r] = [(a - c * b) % p for a, b in zip(row, prow)]
            pivots.append(col)
            top += 1
            if top == nrows:
                break
        return pivots

    def product(self, rows, x, y):
        # combine's loop, inlined: this is the hottest kernel of classify
        acc = None
        for a, b, row in zip(x, y, rows):
            if a and b:
                c = a * b
                acc = [c * v for v in row] if acc is None else \
                    [s + c * v for s, v in zip(acc, row)]
        if acc is None:
            return [0] * len(rows)
        p = self.p
        return [s % p for s in acc]

    def combine(self, coefs, rows, ncols):
        acc = None
        for c, row in zip(coefs, rows):
            if c:
                acc = [c * v for v in row] if acc is None else \
                    [s + c * v for s, v in zip(acc, row)]
        if acc is None:
            return [0] * ncols
        p = self.p
        return [s % p for s in acc]

    def realizes(self, A1, A2, cols):
        # each column's support mask is built once, in its square's pass,
        # and serves the cross products and the rank test; each compared
        # entry is a difference of unreduced sums, reduced once
        p, n = self.p, len(cols)
        live, bit = 0, 1
        for row in A2:
            if any(row):
                live |= bit
            bit <<= 1
        masks = []
        leads = 0
        distinct = True
        for coefs, col in zip(A1, cols):
            full, bit = 0, 1
            acc = None
            for x, row in zip(col, A2):
                if x:
                    full |= bit
                    if live & bit:
                        c = x * x
                        acc = [c * v for v in row] if acc is None else \
                            [s + c * v for s, v in zip(acc, row)]
                bit <<= 1
            if not full:
                return False
            for c, other in zip(coefs, cols):
                if c:
                    acc = [-c * v for v in other] if acc is None else \
                        [s - c * v for s, v in zip(acc, other)]
            if acc is not None:
                for s in acc:
                    if s % p:
                        return False
            low = full & -full
            if leads & low:
                distinct = False
            leads |= low
            masks.append(full & live)
        for i, si in enumerate(masks):
            if not si:
                continue
            ci = cols[i]
            for j in range(i + 1, n):
                both = si & masks[j]
                if not both:
                    continue
                cj = cols[j]
                acc = None
                k = 0
                while both:
                    if both & 1:
                        c = ci[k] * cj[k]
                        acc = [c * v for v in A2[k]] if acc is None else \
                            [s + c * v for s, v in zip(acc, A2[k])]
                    both >>= 1
                    k += 1
                for s in acc:
                    if s % p:
                        return False
        return distinct or len(self.rref(list(cols), n)) == n


def _gmul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _ginv(x):
    a, b = x
    n = a * a + b * b
    return (a / n, -b / n)


class FieldElement:
    """An exact scalar.  The payload depends on the field kind:

    Q      -> Fraction
    Q(i)   -> (Fraction, Fraction) pair (re, im)
    GF(p)  -> reduced residue in 0..p-1

    Elements are immutable, compare by field and payload and hash alike.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, name, value):
        frozen_error("assign to", name)

    def __delattr__(self, name):
        frozen_error("delete", name)

    def __reduce__(self):
        return FieldElement, (self.field, self.value)

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.value == other.value and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.value))

    # -- arithmetic -------------------------------------------------

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field is not self.field:
            self.field.require(other.field)

    def __add__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.ops.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.ops.sub(self.value, other.value))

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.ops.neg(self.value))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.ops.mul(self.value, other.value))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        f = self.field
        return FieldElement(f, f.ops.inv(self.value))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError(f"exponent {n!r} is not an integer")
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
        return self.value == self.field.ops.zero

    def is_one(self) -> bool:
        return self.value == self.field.ops.one

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


# the slot setters fill a new element past the frozen __setattr__
_set_field = FieldElement.field.__set__
_set_value = FieldElement.value.__set__


def _fmt_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _int_str(n: int) -> str:
    """The decimal digits of n at any size.  Past the interpreter's limit
    on the digits str() converts, n = hi 10^k + lo with k about half its
    digits, and hi and lo are written the same way; the interpreter-wide
    limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20     # log10(2) > 3/10: below half n's digits
    hi, lo = divmod(n, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


# ---------------------------------------------------------------------------
# parsing

# ASCII digits only: \d and int() also take the digits of other scripts
_INT = r"-?[0-9]+"
_RAT = rf"{_INT}(?:/{_INT})?"
# the three forms of gauss, one capturing alternative each
_GAUSS = (rf"(?P<real>{_RAT})"
          rf"|(?P<re>{_RAT})?(?P<op>[+-])(?P<im>{_RAT})?\*?i"
          rf"|(?:(?P<coef>{_RAT})\*?)?i")


def _int(text: str) -> int:
    """The int that text, which matches ``_INT``, spells; a syntax error
    past the interpreter's limit on the digits int() converts."""
    try:
        return int(text)
    except ValueError:
        raise AlgebraSyntaxError(
            f"integer literal of {len(text)} characters is longer than "
            "this interpreter converts") from None


def _parse_frac(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if _int(den) == 0:
            raise DomainError("denominator zero")
        return Fraction(_int(num), _int(den))
    return Fraction(_int(text))


def parse_element(text: str, desc: FieldDescriptor) -> FieldElement:
    """Parse an element literal.

    Grammar: ``int := ['-'] digits`` with the ASCII digits 0-9,
    ``rat := int ['/' int]``;
    ``gauss := rat | [rat] ('+'|'-') [rat] ['*'] 'i' | [rat ['*']] 'i'``,
    where a missing real ``rat`` reads 0 and a missing imaginary one 1.
    The regexes ``_INT``, ``_RAT`` and ``_GAUSS`` are this grammar, form
    by form.
    Prime field literals are plain integers.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise AlgebraSyntaxError("empty element literal")
    if desc.kind == PRIME:
        if "i" in text:
            raise AlgebraSyntaxError(
                "use residue literals over a prime field, not 'i'")
        if not re.fullmatch(_INT, text):
            raise AlgebraSyntaxError(f"bad residue literal {text!r}")
        return desc.from_int(_int(text))
    if desc.kind == RATIONALS:
        if not re.fullmatch(_RAT, text):
            if "i" in text:
                raise DomainError("'i' is not an element of Q")
            raise AlgebraSyntaxError(f"bad rational literal {text!r}")
        return FieldElement(desc, _parse_frac(text))
    m = re.fullmatch(_GAUSS, text)
    if m is None:
        raise AlgebraSyntaxError(f"bad Gaussian rational literal {text!r}")
    real, re_txt, op, im_txt, coef = m.groups()
    if real is not None:
        return FieldElement(desc, (_parse_frac(real), Fraction(0)))
    re_part = _parse_frac(re_txt or "0")
    im_part = _parse_frac(im_txt or coef or "1")
    return FieldElement(desc, (re_part, -im_part if op == "-" else im_part))


# ---------------------------------------------------------------------------
# ordering and square roots

def total_order(a: FieldElement, b: FieldElement) -> int:
    """Total order: -1, 0 or 1.  Rationals by value, Gaussian rationals
    lexicographically by (re, im), prime fields by residue."""
    a._check(b)
    ka, kb = a.value, b.value
    return (ka > kb) - (ka < kb)


def order_key(a: FieldElement):
    """Sort key consistent with total_order: the payload, which is its
    own sort key."""
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


def _cube_root_mod(a: int, p: int) -> int | None:
    """The smallest residue r with r^3 = a mod p, or None.

    For p = 3 cubing is the identity, and for p = 2 mod 3 it is a
    bijection inverted by x^((2p-1)/3).  For p = 1 mod 3 a nonzero cube
    has three roots r, rw, rw^2 with w a primitive cube root of unity;
    one is found by the Adleman-Manders-Miller method: write
    p - 1 = 3^s t with 3 not dividing t and take x = a^(1/3 mod t); then
    a / x^3 lies in the cyclic 3-Sylow subgroup, and a discrete logarithm
    there, taken one base-3 digit at a time, gives its cube root z, so
    that xz is a root.
    """
    a %= p
    if a == 0 or p == 3:
        return a
    if p % 3 == 2:
        return pow(a, (2 * p - 1) // 3, p)
    if pow(a, (p - 1) // 3, p) != 1:
        return None
    s, t = 0, p - 1
    while t % 3 == 0:
        s, t = s + 1, t // 3
    x = pow(a, pow(3, -1, t), p)
    b = 2
    while pow(b, (p - 1) // 3, p) == 1:
        b += 1
    g = pow(b, t, p)                 # generates the 3-Sylow subgroup
    w = pow(g, 3 ** (s - 1), p)      # a primitive cube root of unity
    h = a * pow(x, -3, p) % p        # want z in <g> with z^3 = h
    log = 0                          # g^log = h, found digit by digit
    for k in range(s):
        y = pow(h * pow(g, -log, p) % p, 3 ** (s - 1 - k), p)
        log += (0 if y == 1 else 1 if y == w else 2) * 3 ** k
    r = x * pow(g, log // 3, p) % p
    return min(r, r * w % p, r * w * w % p)


def _gauss_sqrt(a):
    """The root with re > 0, or re == 0 and im >= 0, of a Gaussian
    rational payload, or None."""
    re_, im = a
    if im == 0:
        r = _frac_sqrt(re_)
        if r is not None:
            return (r, _Q0)
        r = _frac_sqrt(-re_)
        if r is not None:
            return (_Q0, r)
        return None
    # solve (x + yi)^2 = re + im*i: x^2 - y^2 = re, 2xy = im
    t = _frac_sqrt(re_ * re_ + im * im)
    if t is None:
        return None
    # _frac_sqrt's root is nonnegative, so x > 0 makes (x, y) canonical
    x = _frac_sqrt((re_ + t) / 2)
    if x is None or x == 0:
        return None
    return (x, im / (2 * x))


def _icbrt(m: int) -> int:
    """The integer cube root floor(m^(1/3)) of m >= 0, by integer Newton
    iteration from a power of two above it (exact at any size)."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // 3)
    while True:
        y = (2 * x + m // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _frac_cbrt(q: Fraction) -> Fraction | None:
    """The rational cube root of q, or None: a fraction in lowest terms
    is a cube exactly when its numerator and its denominator are, so it
    is exact at any size."""
    num, den = abs(q.numerator), q.denominator
    rn, rd = _icbrt(num), _icbrt(den)
    if rn ** 3 != num or rd ** 3 != den:
        return None
    return Fraction(-rn if q < 0 else rn, rd)


def _gauss_cbrt(a):
    """The cube root of a real Gaussian rational payload, or None; no
    root of a payload with nonzero imaginary part is sought."""
    if a[1] != 0:
        return None
    r = _frac_cbrt(a[0])
    return None if r is None else (r, _Q0)


_Q0 = Fraction(0)
_RATIONAL_OPS = FieldOps(_Q0, Fraction(1), Fraction, operator.add,
                         operator.sub, operator.neg, operator.mul,
                         lambda a: 1 / a, _frac_sqrt, _frac_cbrt)
_GAUSSIAN_OPS = FieldOps(
    (_Q0, _Q0), (Fraction(1), _Q0), lambda n: (Fraction(n), _Q0),
    lambda x, y: (x[0] + y[0], x[1] + y[1]),
    lambda x, y: (x[0] - y[0], x[1] - y[1]),
    lambda x: (-x[0], -x[1]), _gmul, _ginv, _gauss_sqrt, _gauss_cbrt)


def sqrt_if_square(a: FieldElement) -> FieldElement | None:
    """Return r with r*r == a when such r exists in the field, else None.

    The returned root is canonical: nonnegative over Q, smallest residue
    over GF(p), and over Q(i) the root with re > 0, or re == 0 and im >= 0.
    """
    r = a.field.ops.sqrt(a.value)
    return None if r is None else FieldElement(a.field, r)


def is_square(a: FieldElement) -> bool:
    return sqrt_if_square(a) is not None
