"""Shared random generators for the test suite.

All randomness is drawn from caller-provided ``random.Random`` instances
so every test is reproducible from its seed.  Over GF(p) scalars are
drawn from the whole field; over Q and Q(i) from the integers 0..13, as
the benchmark's generators draw them.  Passing ``draw=gaussian_scalar``
to ``random_nilpotent`` over Q(i) or to
``random_monomial_relabelling`` draws Q(i) scalars a + bi with both
parts in -5..5 instead, which reach the paths over Q(i) that the integer
draws, having no i part, share with Q.
"""

from __future__ import annotations

from evoalg.algebra import EvolutionAlgebra, upper_series
from evoalg.fields import GF, PRIME
from evoalg.linalg import Matrix, _inverse_rows, _rank

F13 = GF(13)


def scalar_limit(field):
    """Scalars are drawn from range(scalar_limit(field))."""
    return field.modulus if field.kind == PRIME else 14


def random_algebra(dim, rng, field=F13, density=0.6):
    """A random evolution algebra (not necessarily nilpotent)."""
    rows = [[field.from_int(rng.randrange(scalar_limit(field)))
             if rng.random() < density else field.zero()
             for _ in range(dim)] for _ in range(dim)]
    return EvolutionAlgebra(dim, Matrix(rows, field, dim), field)


def _int_scalar(rng, field):
    return field.from_int(rng.randrange(scalar_limit(field)))


def _nonzero_int_scalar(rng, field):
    return field.from_int(rng.randrange(1, scalar_limit(field)))


def gaussian_scalar(rng, field):
    """a + bi in field, which holds i, with a and b drawn from -5..5."""
    a, b = (field.from_int(rng.randrange(-5, 6)) for _ in range(2))
    return a + b * field.i()


def random_nilpotent(dim, rng, field=F13, density=0.6, draw=_int_scalar):
    """A random nilpotent evolution algebra: strictly upper-triangular
    structure in a hidden basis order, then scrambled by a permutation
    (permutations preserve both naturality and nilpotency).  Each entry
    above the hidden diagonal is drawn by ``draw(rng, field)`` with
    probability ``density`` and is zero otherwise."""
    while True:
        rows = [[field.zero()] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < density:
                    rows[i][j] = draw(rng, field)
        perm = list(range(dim))
        rng.shuffle(perm)
        prows = [[field.zero()] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                prows[perm[i]][perm[j]] = rows[i][j]
        E = EvolutionAlgebra(dim, Matrix(prows, field, dim), field)
        if upper_series(E).nilpotent:
            return E


def random_nilpotent_of_type(type_vector, rng, field=F13, density=0.6):
    """Rejection-sample random_nilpotent until the type vector matches."""
    dim = sum(type_vector)
    while True:
        E = random_nilpotent(dim, rng, field, density)
        if upper_series(E).type_vector == list(type_vector):
            return E


def random_large_annihilator(rng, field=F13):
    """A random algebra of dim 2..5 with dim ann >= dim/2 >= 1.

    The dim-2 case with 1-dim annihilator equal to E^2 is excluded: that
    algebra is the two-element chain, the one shape where a large
    annihilator does not force decomposability (pairing each generator
    with its square yields a single ideal, not a direct sum).
    """
    from evoalg.algebra import square_subspace
    while True:
        dim = rng.randrange(2, 6)
        E = random_algebra(dim, rng, field, density=0.5)
        ann = E.annihilator()
        if not 2 * ann.dim >= dim >= 2 * 1:
            continue
        if dim == 2 and ann.dim == 1 and square_subspace(E).contains(ann):
            continue
        return E


def random_monomial_relabelling(E, rng, draw=_nonzero_int_scalar):
    """E in the natural basis f_pi(i) = c_i e_i for a random permutation
    pi and random nonzero scalars c_i, so that
    A'[pi(i)][pi(j)] = c_i^2 A[i][j] / c_j.  Each c_i is drawn by
    ``draw(rng, field)`` until it is nonzero."""
    n, field = E.dim, E.field
    perm = list(range(n))
    rng.shuffle(perm)
    c = []
    while len(c) < n:
        x = draw(rng, field)
        if not x.is_zero():
            c.append(x)
    rows = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = c[i] * c[i] * E.structure[i, j] / c[j]
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


def random_block_basis_change(E, rng, attempts=300):
    """Apply a random invertible block-patterned basis change that again
    yields a natural basis; returns the transformed algebra or None when
    no natural change was found within the attempt budget.

    The pattern mixes each annihilating-series block with itself and lets
    every vector pick up an arbitrary annihilator component.  The change
    is computed on payload rows: a rank test, products of its columns in
    E and one inversion.
    """
    blocks = upper_series(E).blocks
    field = E.field
    ops = field.ops
    Z, of_int = ops.zero, ops.of_int
    p = scalar_limit(field)
    n = E.dim
    for _ in range(attempts):
        m = [[Z] * n for _ in range(n)]
        for i, blk in enumerate(blocks):
            for c in blk:
                for r in blk:
                    m[r][c] = of_int(rng.randrange(p))
                if i > 0:
                    for r in blocks[0]:
                        m[r][c] = of_int(rng.randrange(p))
        # naturality first: it rejects most draws, and more cheaply
        cols = [[m[r][c] for r in range(n)] for c in range(n)]
        if any(x != Z for i in range(n) for j in range(i + 1, n)
               for x in ops.product(E._rows, cols[i], cols[j])):
            continue
        if _rank(m, n, ops) < n:
            continue
        inv = _inverse_rows(m, ops)
        squares = [ops.product(E._rows, c, c) for c in cols]
        return EvolutionAlgebra._wrap(
            [[ops.dot(r, sq) for r in inv] for sq in squares], field)
    return None
