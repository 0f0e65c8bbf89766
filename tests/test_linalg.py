"""Exact linear algebra: matrices, RREF, kernels, subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import AmbientMismatch, MixedFields, ShapeError, Singular
from evoalg.fields import GF, QI, QQ, FieldElement
from evoalg.linalg import Matrix, Subspace, kernel, rref

F13 = GF(13)


def test_rref_identity():
    m = Matrix.identity(3, QQ())
    r, rank = rref(m)
    assert r == m and rank == 3


def test_rref_proportional_rows():
    m = Matrix.from_ints([[2, 4], [1, 2]], QQ())
    r, rank = rref(m)
    assert rank == 1
    assert r == Matrix.from_ints([[1, 2], [0, 0]], QQ())


def test_rref_idempotent():
    rng = random.Random(0)
    for _ in range(25):
        m = Matrix.from_ints(
            [[rng.randrange(13) for _ in range(4)] for _ in range(3)], F13)
        r, _ = rref(m)
        r2, _ = rref(r)
        assert r2 == r


def test_inverse_roundtrip():
    m = Matrix.from_ints([[1, 2], [3, 5]], QQ())
    assert m * m.inverse() == Matrix.identity(2, QQ())
    with pytest.raises(Singular):
        Matrix.from_ints([[1, 2], [2, 4]], QQ()).inverse()


def test_shape_errors():
    a = Matrix.from_ints([[1, 2]], QQ())
    b = Matrix.from_ints([[1, 2]], QQ())
    with pytest.raises(ShapeError):
        _ = a * b


def test_matrices_honour_or_refuse_their_shape_arguments():
    # a column count that the rows contradict, a negative count and a
    # size that is not an int used to build, or raise a raw TypeError; a
    # bool is refused too, or ncols would read True
    F = GF(5)
    with pytest.raises(ShapeError, match="rows have 2 columns, not 3"):
        Matrix.from_ints([[1, 2]], F, cols=3)
    with pytest.raises(ShapeError, match="column count must be an int"):
        Matrix([], F, cols=-2)
    with pytest.raises(ShapeError, match="column count must be an int"):
        Matrix([], F, cols=1.0)
    with pytest.raises(ShapeError, match="column count must be an int"):
        Matrix([], F, cols=True)
    with pytest.raises(ShapeError, match="size must be an int"):
        Matrix.identity(2.5, F)
    with pytest.raises(ShapeError, match="size must be an int"):
        Matrix.identity(-1, F)
    with pytest.raises(ShapeError, match="size must be an int"):
        Matrix.identity(True, F)
    # the arguments that agree with the rows, or fix an empty matrix
    assert Matrix.from_ints([[1, 2]], F, cols=2).ncols == 2
    assert (Matrix([], F, cols=3).nrows, Matrix([], F, cols=3).ncols) \
        == (0, 3)
    assert Matrix.identity(0, F).nrows == 0


def test_matrices_reject_ragged_rows_and_foreign_entries():
    one = QQ().one()
    with pytest.raises(ShapeError, match="ragged rows"):
        Matrix([[one, one], [one]], QQ())
    with pytest.raises(ShapeError, match="different field"):
        Matrix([[one, F13.one()]], QQ())


def test_matrices_reject_entries_that_are_not_field_elements():
    with pytest.raises(ShapeError, match="not a field element"):
        Matrix([[1]], GF(5))


def test_vectors_must_hold_field_elements():
    with pytest.raises(ShapeError, match="not a field element"):
        Matrix.identity(2, QQ()).apply([1, 2])
    with pytest.raises(ShapeError, match="not a field element"):
        Subspace.full(2, QQ()).contains_vector([1, 2])


def test_a_subspace_basis_must_match_its_ambient():
    with pytest.raises(AmbientMismatch, match="ambient is 3"):
        Subspace(3, Matrix.identity(2, QQ()))


def test_kernel_basic():
    m = Matrix.from_ints([[1, 2], [2, 4]], QQ())
    k = kernel(m)
    assert k.dim == 1
    v = k.vectors()[0]
    assert all(x.is_zero() for x in m.apply(v))


def test_subspace_ops():
    s = Subspace.coordinate([0], 3, QQ())
    t = Subspace.coordinate([1], 3, QQ())
    assert (s + t).dim == 2
    assert (s + Subspace.zero(3, QQ())) == s
    assert (s + s) == s
    assert s.intersect(t).is_zero()
    full = Subspace.full(3, QQ())
    assert full.contains(s + t)


def test_subspace_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.coordinate([0], 2, QQ()) + Subspace.coordinate([0], 3, QQ())


@pytest.mark.parametrize("index", [-1, 3, 1.5])
def test_coordinate_subspaces_refuse_an_index_outside_the_ambient(index):
    # none of them names a coordinate of F^3
    with pytest.raises(AmbientMismatch, match="0..2"):
        Subspace.coordinate([0, index], 3, QQ())


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(0, 12), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_nullity(rows):
    m = Matrix.from_ints(rows, F13, 4)
    _, rank = rref(m)
    assert rank + kernel(m).dim == 4


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_dimension_formula(rows_s, rows_t):
    s = Subspace.from_vectors(
        [[F13.from_int(x) for x in r] for r in rows_s], 3, F13)
    t = Subspace.from_vectors(
        [[F13.from_int(x) for x in r] for r in rows_t], 3, F13)
    assert s.dim + t.dim == (s + t).dim + s.intersect(t).dim


# ---------------------------------------------------------------------------
# properties over GF(13), Q and Q(i)

def _small_fraction():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


_PAYLOADS = {
    "GF13": (F13, st.integers(0, 12)),
    "Q": (QQ(), _small_fraction()),
    "Qi": (QI(), st.tuples(_small_fraction(), _small_fraction())),
}


@st.composite
def matrices(draw, square=False):
    field, payload = _PAYLOADS[draw(st.sampled_from(sorted(_PAYLOADS)))]
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    # zeros are frequent, so rank drops and free columns both occur
    entry = st.one_of(st.just(field.ops.zero), payload)
    rows = [[FieldElement(field, draw(entry)) for _ in range(ncols)]
            for _ in range(nrows)]
    return Matrix(rows, field, ncols)


def reference_rref(m):
    """Gauss-Jordan elimination on FieldElement entries, one scalar
    operation at a time."""
    rows = [list(r) for r in m.rows]
    top = 0
    for col in range(m.ncols):
        pr = next((r for r in range(top, m.nrows)
                   if not rows[r][col].is_zero()), None)
        if pr is None:
            continue
        rows[top], rows[pr] = rows[pr], rows[top]
        inv = rows[top][col].inverse()
        rows[top] = [x * inv for x in rows[top]]
        for r in range(m.nrows):
            if r != top and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[top])]
        top += 1
    return Matrix(rows, m.field, m.ncols), top


@settings(max_examples=60)
@given(matrices())
def test_rref_matches_reference_and_is_idempotent(m):
    r, rank = rref(m)
    assert (r, rank) == reference_rref(m)
    assert rref(r) == (r, rank)


@settings(max_examples=60)
@given(matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rref(m)[1] == rref(m.transpose())[1]


@settings(max_examples=60)
@given(matrices(square=True))
def test_inverse_round_trip(m):
    ident = Matrix.identity(m.nrows, m.field)
    if not m.is_invertible():
        with pytest.raises(Singular):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == ident and inv * m == ident


@settings(max_examples=60)
@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    k = kernel(m)
    assert k.dim + rref(m)[1] == m.ncols
    for v in k.vectors():
        assert all(x.is_zero() for x in m.apply(v))


@settings(max_examples=30)
@given(matrices(square=True), st.sampled_from(sorted(_PAYLOADS)))
def test_mixing_fields_raises_in_the_kernels(m, other_name):
    # the payload kernels take one field's ops, so operands from another
    # field must be refused rather than computed with the wrong arithmetic
    other = _PAYLOADS[other_name][0]
    assume(other != m.field)
    n, field = m.nrows, m.field
    foreign = Matrix.identity(n, other)
    v = foreign.rows[0]
    E = EvolutionAlgebra(n, m, field)
    S, T = Subspace.full(n, field), Subspace.full(n, other)
    for op in (lambda: m * foreign, lambda: foreign * m,
               lambda: m.apply(v), lambda: E.multiply(v, v),
               lambda: S + T, lambda: S.intersect(T), lambda: S.contains(T),
               lambda: S.contains_vector(v)):
        with pytest.raises(MixedFields):
            op()


def _first_nonzero_columns(s):
    Z = s.field.ops.zero
    return [next(j for j, x in enumerate(r) if x != Z) for r in s._rows]


@settings(max_examples=60)
@given(matrices(), matrices())
def test_subspaces_keep_the_pivots_of_their_reduced_basis(m, other):
    # every way of making a subspace records the pivot columns of its
    # RREF basis, which membership tests read instead of scanning again
    n, field = m.ncols, m.field
    s = Subspace(n, m)
    made = [s, kernel(m), Subspace.zero(n, field), Subspace.full(n, field),
            Subspace.coordinate([n - 1, 0], n, field)]
    if other.ncols == n and other.field == field:
        t = Subspace(n, other)
        made += [s + t, s.intersect(t)]
    for sub in made:
        assert sub._pivots == _first_nonzero_columns(sub)
        assert sub == Subspace(n, sub.basis)
