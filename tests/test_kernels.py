"""The GF(p) kernels against the generic ones.

``_PrimeOps`` overrides ``FieldOps.rref``, ``product``, ``combine``,
``wdot``, ``div`` and ``realizes`` with inline integer arithmetic.  On
random payloads each override must return exactly what the generic body
returns when it goes through the scalar operations one call per entry,
and neither may mutate a row list it is handed.  Its ``sqrt`` keeps a
bounded memo of the Tonelli-Shanks roots, and ``realizes`` reads the
rank of a square matrix whose columns lead in distinct rows without
eliminating.  GF(2) has no descriptor (``GF``
takes odd primes), but its op table is built the same way.
"""

import random

import pytest

from evoalg.errors import DivisionByZero
from evoalg.fields import (_SQRT_MEMO, QI, QQ, FieldOps, _PrimeOps,
                           _tonelli_shanks)
from evoalg.linalg import _rank

from helpers import gaussian_scalar
from probes import Probe

PRIMES = [2, 3, 13, 1000033]


def _generic_ops(p):
    """GF(p) with only the scalar operations given: every row operation
    and kernel runs the generic FieldOps body."""
    return FieldOps(0, 1, lambda n: n % p, lambda a, b: (a + b) % p,
                    lambda a, b: (a - b) % p, lambda a: -a % p,
                    lambda a, b: a * b % p, lambda a: pow(a, -1, p),
                    lambda a: None, lambda a: None)


def _entry(rng, p, density):
    return rng.randrange(1, p) if rng.random() < density else 0


def _rows(rng, p, nrows, ncols, density=0.6):
    """Random rows; about one in five is a zero row."""
    return [[0] * ncols if rng.random() < 0.2
            else [_entry(rng, p, density) for _ in range(ncols)]
            for _ in range(nrows)]


def _unmutated(rows):
    """The row lists of rows with a copy of each, to check them later."""
    return [(r, list(r)) for r in rows]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_the_generic_body(p):
    fast, slow = _PrimeOps(p), _generic_ops(p)
    rng = random.Random(p)
    for _ in range(400):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(0, 7)
        ride = rng.randrange(0, 4)   # trailing columns riding along: [A | B]
        rows = _rows(rng, p, nrows, ncols + ride, rng.choice([0.3, 0.7, 1]))
        kept = _unmutated(rows)
        a, b = list(rows), list(rows)
        pa, pb = fast.rref(a, ncols), slow.rref(b, ncols)
        assert (a, pa) == (b, pb)
        assert all(0 <= x < p for r in a for x in r)
        assert all(r == old for r, old in kept)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_of_a_full_row_rank_block_carries_the_inverse(p):
    # [A | I] with A invertible: the pivots fill every row, so the
    # elimination stops there and I has turned into A^-1
    for ops in (_PrimeOps(p), _generic_ops(p)):
        rows = [[2 % p, 1, 1, 0], [1, 1, 0, 1]]
        assert ops.rref(rows, 2) == [0, 1]
        assert rows == [[1, 0, 1, p - 1], [0, 1, p - 1, 2 % p]]


@pytest.mark.parametrize("p", PRIMES)
def test_product_and_combine_match_the_generic_bodies(p):
    fast, slow = _PrimeOps(p), _generic_ops(p)
    rng = random.Random(p + 1)
    for _ in range(400):
        n = rng.randrange(1, 7)
        A = _rows(rng, p, n, n)
        x, y = (_rows(rng, p, 1, n, rng.choice([0, 0.4, 1]))[0]
                for _ in range(2))
        kept = _unmutated(A + [x, y])
        out = fast.product(A, x, y)
        assert out == slow.product(A, x, y)
        assert len(out) == n and all(0 <= v < p for v in out)
        k = rng.randrange(0, 6)
        coefs = _rows(rng, p, 1, k, rng.choice([0, 0.5, 1]))[0]
        rows = _rows(rng, p, k, n)
        kept += _unmutated(rows + [coefs])
        out = fast.combine(coefs, rows, n)
        assert out == slow.combine(coefs, rows, n)
        assert len(out) == n and all(0 <= v < p for v in out)
        assert all(r == old for r, old in kept)


def _monomial_image(ops, A, rng, nonzero):
    """(A2, cols): A2 the structure rows A in the natural basis
    f_pi(i) = c_i e_i, and cols the columns of the isomorphism
    e_i -> c_i^-1 f_pi(i) from A onto A2."""
    n = len(A)
    perm = list(range(n))
    rng.shuffle(perm)
    c = [nonzero() for _ in range(n)]
    A2 = [[ops.zero] * n for _ in range(n)]
    cols = [[ops.zero] * n for _ in range(n)]
    for i in range(n):
        cols[i][perm[i]] = ops.inv(c[i])
        for j in range(n):
            A2[perm[i]][perm[j]] = ops.div(ops.mul(ops.mul(c[i], c[i]),
                                                   A[i][j]), c[j])
    return A2, cols


@pytest.mark.parametrize("p", PRIMES)
def test_is_hom_verdicts_match_the_generic_kernels(p):
    fast, slow = _PrimeOps(p), _generic_ops(p)
    rng = random.Random(p + 2)
    verdicts = set()

    def nonzero():
        return rng.randrange(1, p)
    for _ in range(300):
        n = rng.randrange(1, 6)
        A = _rows(rng, p, n, n, 0.5)
        genuine = rng.random() < 0.5
        if genuine:
            A2, cols = _monomial_image(slow, A, rng, nonzero)
        else:
            A2, cols = _rows(rng, p, n, n, 0.5), _rows(rng, p, n, n, 0.5)
            if rng.random() < 0.5:   # a relabelling with one entry spoilt
                A2, cols = _monomial_image(slow, A, rng, nonzero)
                i, j = rng.randrange(n), rng.randrange(n)
                cols[i][j] = (cols[i][j] + 1) % p
        kept = _unmutated(A + A2 + cols)
        verdict = fast.realizes(A, A2, cols)
        assert verdict == slow.realizes(A, A2, cols)
        assert verdict or not genuine
        verdicts.add(verdict)
        assert all(r == old for r, old in kept)
    assert verdicts == {True, False}


REALIZES_KINDS = ("natural", "square", "cross", "zero", "shared",
                  "dependent")


def _realizes_cases(ops, rng, nonzero):
    """(kind, A1, A2, cols, verdict) for each of REALIZES_KINDS:
    a monomial relabelling of a random strictly upper triangular algebra
    (natural), the same with one entry of A1 moved (a failing square),
    and on the chain e_0^2 = a e_1 with zero squares e_2 (and e_3):
    columns whose squares pass and whose cross product does not, and
    columns that pass the product test where only the rank test decides
    (a zero column; columns sharing a lead row, independent or
    dependent)."""
    Z, mul, div = ops.zero, ops.mul, ops.div
    n = rng.randrange(1, 6)
    A = [[nonzero() if j > i and rng.random() < 0.6 else Z
          for j in range(n)] for i in range(n)]
    A2, cols = _monomial_image(ops, A, rng, nonzero)
    yield "natural", A, A2, cols, True
    bad = [list(r) for r in A]
    i, j = rng.randrange(n), rng.randrange(n)
    bad[i][j] = ops.add(bad[i][j], ops.one)
    yield "square", bad, A2, cols, False

    a, s, t, b = (nonzero() for _ in range(4))
    chain = [[Z, a, Z], [Z] * 3, [Z] * 3]
    sq = mul(mul(s, s), a)
    # c_0 = s e_0, c_1 = c_0^2, c_2 = t e_0 + b e_2 with c_2^2 =
    # (t/s)^2 c_1, but c_0 c_2 = s t a e_1
    cols = [[s, Z, Z], [Z, sq, Z], [t, Z, b]]
    A1 = [[Z, ops.one, Z], [Z] * 3, [Z, div(mul(t, t), mul(s, s)), Z]]
    yield "cross", A1, chain, cols, False

    chain = [[Z, a, Z, Z]] + [[Z] * 4 for _ in range(3)]
    A1 = [[Z, ops.one, Z, Z]] + [[Z] * 4 for _ in range(3)]
    u, v, w, d = (nonzero() for _ in range(4))
    x, y = (nonzero() if rng.random() < 0.5 else Z for _ in range(2))
    head = [[s, Z, Z, Z], [Z, sq, Z, Z], [Z, x, u, v]]
    yield "zero", A1, chain, head + [[Z] * 4], False
    # c_2 and c_3 span e_2, e_3 modulo e_1 exactly when uz - vw != 0;
    # c_1 leads in row 1, so two of c_1, c_2, c_3 share their lead row
    for kind, det in (("shared", d), ("dependent", Z)):
        z = div(ops.add(mul(v, w), det), u)
        yield kind, A1, chain, head + [[Z, y, w, z]], kind == "shared"


def _unskipped_realizes(ops, A1, A2, cols):
    """The witness check with every cross product computed and the rank
    always eliminated."""
    n = len(cols)
    zero = [ops.zero] * n
    return (all(ops.combine(A1[i], cols, n)
                == ops.product(A2, cols[i], cols[i]) for i in range(n))
            and all(ops.product(A2, cols[i], cols[j]) == zero
                    for i in range(n) for j in range(i + 1, n))
            and len(ops.rref(list(cols), n)) == n)


def _check_realizes(ops, cases, monkeypatch):
    """Each case's verdict from ops.realizes, from the unskipped check,
    with no row list mutated; the rank is read without elimination for
    the monomial columns and eliminated once where two columns share
    their lead row.  Returns the kinds seen."""
    probe = Probe(monkeypatch)
    probe.count(ops, "rref")
    seen = set()
    for kind, A1, A2, cols, verdict in cases:
        kept = _unmutated(A1 + A2 + cols)
        probe.counts.clear()
        assert ops.realizes(A1, A2, cols) == verdict, kind
        if kind == "natural":
            assert not probe.counts["rref"]
        elif kind in ("shared", "dependent"):
            assert probe.counts["rref"] == 1
        assert _unskipped_realizes(ops, A1, A2, cols) == verdict, kind
        assert all(r == old for r, old in kept)
        seen.add(kind)
    return seen


@pytest.mark.parametrize("p", [3, 5, 13, 1000033])
def test_realizes_matches_the_generic_body(p, monkeypatch):
    # the same cases through the GF(p) override and the generic body
    rng = random.Random(p + 6)
    slow = _generic_ops(p)
    cases = [case for _ in range(60) for case in
             _realizes_cases(slow, rng, lambda: rng.randrange(1, p))]
    for ops in (_PrimeOps(p), slow):
        assert _check_realizes(ops, cases, monkeypatch) \
            == set(REALIZES_KINDS)


@pytest.mark.parametrize("field", [QQ(), QI()], ids=["Q", "Qi"])
def test_realizes_over_q_and_qi_compares_with_the_payload_zero(
        field, monkeypatch):
    # Q(i) scalars a + bi from helpers.gaussian_scalar, Q scalars signed
    # fractions; the Q(i) zero payload is a pair, which is truthy
    ops = field.ops
    rng = random.Random(str(field))

    def nonzero():
        while True:
            x = (gaussian_scalar(rng, field).value if field.has_i
                 else ops.div(ops.of_int(rng.randrange(-9, 10)),
                              ops.of_int(rng.randrange(1, 4))))
            if x != ops.zero:
                return x
    cases = [case for _ in range(40)
             for case in _realizes_cases(ops, rng, nonzero)]
    assert _check_realizes(ops, cases, monkeypatch) == set(REALIZES_KINDS)


@pytest.mark.parametrize("p", PRIMES)
def test_wdot_and_div_match_the_generic_bodies(p):
    fast, slow = _PrimeOps(p), _generic_ops(p)
    rng = random.Random(p + 3)
    for _ in range(400):
        n = rng.randrange(0, 7)
        u, v, w = (_rows(rng, p, 1, n, rng.choice([0.3, 1]))[0]
                   for _ in range(3))
        kept = _unmutated([u, v, w])
        out = fast.wdot(u, v, w)
        assert out == slow.wdot(u, v, w) and 0 <= out < p
        assert all(r == old for r, old in kept)
        a, b = rng.randrange(p), rng.randrange(1, p)
        q = fast.div(a, b)
        assert q == slow.div(a, b) and 0 <= q < p and q * b % p == a
    for ops in (fast, slow):
        for a in {0, 1, p - 1}:
            with pytest.raises(DivisionByZero):
                ops.div(a, 0)


def _canonical_root(a, p):
    r = _tonelli_shanks(a, p)
    return None if r is None else min(r, p - r)


@pytest.mark.parametrize("p", [3, 5, 13, 17])
def test_sqrt_of_every_residue_matches_tonelli_shanks(p):
    # twice over: the first pass fills the memo, the second reads it
    ops = _PrimeOps(p)
    for _ in range(2):
        for a in range(p):
            r = ops.sqrt(a)
            assert r == _canonical_root(a, p)
            assert r is None or r * r % p == a
    assert len(ops._roots) == p <= _SQRT_MEMO


def test_sqrt_memo_of_a_large_field_stays_bounded():
    p = 1000033
    ops = _PrimeOps(p)
    rng = random.Random(p)
    residues = [rng.randrange(p) for _ in range(2000)]
    for a in residues + residues[:100]:
        r = ops.sqrt(a)
        assert r == _canonical_root(a, p)
        assert r is None or r * r % p == a
    assert len(ops._roots) == _SQRT_MEMO


def _leading(rng, p, n, leads, ride):
    """An n x (n + ride) matrix whose column j is zero above row
    leads[j], nonzero there and random below (a zero column where
    leads[j] is None), with ``ride`` random trailing columns."""
    cols = []
    for lead in leads:
        col = [0] * n
        if lead is not None:
            col[lead] = rng.randrange(1, p)
            for r in range(lead + 1, n):
                col[r] = _entry(rng, p, 0.6)
        cols.append(col)
    cols += [[_entry(rng, p, 0.6) for _ in range(n)] for _ in range(ride)]
    return [list(row) for row in zip(*cols)] if n else []


class _CountingRref:
    """An op table's rref, counted."""

    def __init__(self, ops):
        self.ops, self.calls = ops, 0

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def rref(self, rows, ncols):
        self.calls += 1
        return self.ops.rref(rows, ncols)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_the_eliminated_rank(p):
    rng = random.Random(p + 4)
    for ops in (_PrimeOps(p), _generic_ops(p)):
        for _ in range(300):
            n = rng.randrange(0, 6)
            ride = rng.randrange(0, 3)
            shape = rng.choice(["distinct", "collide", "zero", "random"])
            leads = list(range(n))
            rng.shuffle(leads)
            if shape == "collide" and n > 1:
                j, k = rng.sample(range(n), 2)
                leads[j] = leads[k]
            elif shape == "zero" and n:
                leads[rng.randrange(n)] = None
            rows = (_leading(rng, p, n, leads, ride) if shape != "random"
                    else _rows(rng, p, n, n + ride))
            kept = _unmutated(rows)
            counted = _CountingRref(ops)
            rank = _rank(rows, n, counted)
            assert rank == len(ops.rref(list(rows), n))
            assert all(r == old for r, old in kept)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_of_a_matrix_that_is_not_square_eliminates(p):
    ops = _PrimeOps(p)
    rng = random.Random(p + 5)
    for _ in range(200):
        nrows, ncols = rng.randrange(0, 6), rng.randrange(0, 6)
        if nrows == ncols:
            continue
        rows = _rows(rng, p, nrows, ncols + rng.randrange(0, 3))
        counted = _CountingRref(ops)
        assert _rank(rows, ncols, counted) == len(ops.rref(list(rows), ncols))
        assert counted.calls == 1


@pytest.mark.parametrize("field", [QQ(), QI()], ids=["Q", "Qi"])
def test_rank_over_q_and_qi_compares_with_the_payload_zero(field):
    # the Q(i) zero payload is a pair, which is truthy
    ops = field.ops
    rng = random.Random(str(field))
    for _ in range(200):
        n = rng.randrange(1, 5)
        rows = [[ops.of_int(_entry(rng, 7, 0.5)) for _ in range(n)]
                for _ in range(n)]
        assert _rank(rows, n, ops) == len(ops.rref(list(rows), n))
