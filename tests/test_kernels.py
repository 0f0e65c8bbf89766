"""The GF(p) row kernels against the generic ones.

``_PrimeOps`` overrides ``FieldOps.rref``, ``product`` and ``combine``
with inline integer arithmetic.  On random payload rows each override
must return exactly what the generic body returns when it goes through
the scalar operations one call per entry, and neither may mutate a row
list it is handed.  GF(2) has no descriptor (``GF`` takes odd primes),
but its op table is built the same way.
"""

import random

import pytest

from evoalg.algebra import _support_masks
from evoalg.fields import FieldOps, _PrimeOps
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
