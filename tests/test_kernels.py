"""The GF(p) kernels against the generic ones.

``_PrimeOps`` overrides ``FieldOps.rref``, ``product``, ``combine``,
``wdot`` and ``div`` with inline integer arithmetic.  On random payloads
each override must return exactly what the generic body returns when it
goes through the scalar operations one call per entry, and neither may
mutate a row list it is handed.  Its ``sqrt`` keeps a bounded memo of
the Tonelli-Shanks roots, and ``linalg._rank`` reads the rank of a
square matrix whose columns lead in distinct rows without eliminating.
GF(2) has no descriptor (``GF`` takes odd primes), but its op table is
built the same way.
"""

import random

import pytest

from evoalg.algebra import _support_masks
from evoalg.errors import DivisionByZero
from evoalg.fields import (_SQRT_MEMO, QI, QQ, FieldOps, _PrimeOps,
                           _tonelli_shanks)
from evoalg.linalg import _rank
from evoalg.oracle import _is_hom

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


def _relabelled(A, rng, p):
    """(A', m) with m the payload rows of a monomial isomorphism from
    the algebra with structure rows A' onto the one with rows A."""
    n = len(A)
    perm = list(range(n))
    rng.shuffle(perm)
    c = [rng.randrange(1, p) for _ in range(n)]
    A2 = [[0] * n for _ in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][perm[i]] = c[i]
        for j in range(n):
            A2[perm[i]][perm[j]] = \
                c[i] * c[i] * A[i][j] * pow(c[j], -1, p) % p
    return A2, m


@pytest.mark.parametrize("p", PRIMES)
def test_is_hom_verdicts_match_the_generic_kernels(p):
    fast, slow = _PrimeOps(p), _generic_ops(p)
    rng = random.Random(p + 2)
    verdicts = set()
    for _ in range(300):
        n = rng.randrange(1, 6)
        A = _rows(rng, p, n, n, 0.5)
        genuine = rng.random() < 0.5
        if genuine:
            A2, m = _relabelled(A, rng, p)
        else:
            A2, m = _rows(rng, p, n, n, 0.5), _rows(rng, p, n, n, 0.5)
            if rng.random() < 0.5:   # a relabelling with one entry spoilt
                A2, m = _relabelled(A, rng, p)
                i, j = rng.randrange(n), rng.randrange(n)
                m[i][j] = (m[i][j] + 1) % p
        kept = _unmutated(A + A2 + m)
        supports = _support_masks(A, 0)
        verdict = _is_hom(A2, A, m, fast, supports)
        assert verdict == _is_hom(A2, A, m, slow, supports)
        assert verdict or not genuine
        verdicts.add(verdict)
        assert all(r == old for r, old in kept)
    assert verdicts == {True, False}


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
            if shape == "distinct":
                # triangular up to a column permutation: read, not eliminated
                assert (rank, counted.calls) == (n, 0)


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
