"""Evolution algebras: series, powers, graphs, decomposability."""

import collections
import importlib
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from evoalg.algebra import (_ANN_OUTSIDE_SQUARE, _DISCONNECTED, _LARGE_ANN,
                            _MIDDLE_MISSED, _PROPORTIONAL_TOP,
                            DECOMPOSABLE, INDECOMPOSABLE, PLENARY, RIGHT,
                            UNKNOWN, AnnSeries, EvolutionAlgebra,
                            _annihilator_split, _natural_split,
                            _split_ideals, _split_summands, _zero_rows,
                            block_subspace, component_index_sets,
                            decomposability_check, graph_of,
                            invariant_profile, is_ideal, power_nilpotency,
                            power_subspaces, product_subspace,
                            quotient_by_block, relative_annihilator,
                            restrict_to_indices, split_components,
                            square_subspace, upper_series)
from evoalg.classify import Decomposed, classify
from evoalg.errors import (AmbientMismatch, DomainError, EvoalgError,
                           NotAnIdeal, NotNilpotent, ShapeError,
                           SpecMismatch, SqrtUnavailable)
from evoalg.fields import GF, PRIME, QI, QQ, FieldDescriptor, FieldElement
from evoalg.linalg import (Matrix, Subspace, _identity_rows, _inverse_rows,
                           _unit_row)
from evoalg.oracle import verify_hom
from evoalg.tables import find_entry

from helpers import (F13, gaussian_scalar, random_algebra,
                     random_large_annihilator, random_monomial_relabelling,
                     random_nilpotent)
from probes import Probe


def chain(n, field=QQ()):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return EvolutionAlgebra.from_ints(rows, field)


def test_algebras_compare_by_dim_field_and_structure_rows():
    rows = [[0, 1, 2], [0, 0, 3], [0, 0, 0]]
    A = EvolutionAlgebra.from_ints(rows, F13)
    # separately built copies, one over a descriptor built directly
    assert A == EvolutionAlgebra.from_ints(rows, F13)
    assert A == EvolutionAlgebra.from_ints(rows, FieldDescriptor(PRIME, 13))
    assert A == restrict_to_indices(
        EvolutionAlgebra.from_ints([[0, 1, 2, 0], [0, 0, 3, 0],
                                    [0, 0, 0, 0], [0, 0, 0, 0]], F13),
        [0, 1, 2])
    # the same payload rows over other fields
    assert A != EvolutionAlgebra.from_ints(rows, GF(5))
    assert A != EvolutionAlgebra.from_ints(rows, QQ())
    assert A != EvolutionAlgebra.from_ints([[0, 1, 2], [0, 0, 4],
                                            [0, 0, 0]], F13)
    assert A != EvolutionAlgebra.from_ints([[0, 1], [0, 0]], F13)
    assert A != rows


def test_zero_algebra_dim1():
    E = EvolutionAlgebra.from_ints([[0]], QQ())
    s = upper_series(E)
    assert s.type_vector == [1] and s.nilpotent


def test_dim2_chain_type():
    E = EvolutionAlgebra.from_ints([[0, 1], [0, 0]], QQ())
    s = upper_series(E)
    assert s.type_vector == [1, 1] and s.nilpotent


def test_diagonal_not_nilpotent():
    E = EvolutionAlgebra.from_ints([[1, 0], [0, 1]], QQ())
    assert not upper_series(E).nilpotent


def test_dim_must_be_positive():
    with pytest.raises(ShapeError):
        EvolutionAlgebra(0, Matrix([], QQ(), 0), QQ())


@pytest.mark.parametrize("index", [-1, 2, 0.5])
def test_basis_vectors_have_indices_in_range(index):
    E = EvolutionAlgebra.from_ints([[0, 1], [0, 0]], QQ())
    assert E.basis_vector(1) == [QQ().zero(), QQ().one()]
    with pytest.raises(ShapeError, match="0..1"):
        E.basis_vector(index)


def test_from_ints_refuses_a_float_entry():
    # a float payload used to build, and classify then failed in pow()
    with pytest.raises(DomainError, match="integer"):
        EvolutionAlgebra.from_ints([[0, 1.5], [0, 0]], GF(5))


def test_the_structure_must_be_square_over_the_algebras_field():
    with pytest.raises(ShapeError, match="must be 2x2, got 2x3"):
        EvolutionAlgebra(2, Matrix.from_ints([[0, 1, 0], [0, 0, 0]], QQ()),
                         QQ())
    with pytest.raises(ShapeError, match="different field"):
        EvolutionAlgebra(2, Matrix.from_ints([[0, 1], [0, 0]], F13), QQ())


def test_multiply_bilinear_diagonal():
    E = chain(3)
    x = [QQ().from_int(2), QQ().from_int(3), QQ().zero()]
    # (2e1 + 3e2)^2 = 4 e1^2 + 9 e2^2
    assert E.multiply(x, x) == [QQ().zero(), QQ().from_int(4),
                                QQ().from_int(9)]
    # distinct basis vectors multiply to zero
    assert all(v.is_zero()
               for v in E.multiply(E.basis_vector(0), E.basis_vector(1)))


def test_multiply_refuses_entries_that_are_not_field_elements():
    with pytest.raises(ShapeError, match="not a field element"):
        chain(2).multiply([1, 2], [1, 2])


def test_product_subspace_examples():
    E = EvolutionAlgebra.from_ints([[0, 1], [0, 0]], QQ())
    full = Subspace.full(2, QQ())
    assert product_subspace(E, full, Subspace.zero(2, QQ())).is_zero()
    sq = product_subspace(E, full, full)
    assert sq == Subspace.coordinate([1], 2, QQ())
    assert square_subspace(E) == sq


def test_relative_annihilator_identities():
    rng = random.Random(1)
    E = random_nilpotent(4, rng)
    full = Subspace.full(4, F13)
    assert relative_annihilator(E, full, full) == E.annihilator()
    s = Subspace.coordinate([0, 2], 4, F13)
    assert relative_annihilator(E, s, Subspace.zero(4, F13)) == s


def test_relative_annihilator_needs_subspaces_of_the_algebra():
    E = chain(3)
    with pytest.raises(AmbientMismatch, match="ambient must equal"):
        relative_annihilator(E, Subspace.full(2, QQ()), Subspace.full(3, QQ()))
    with pytest.raises(AmbientMismatch, match="ambient must equal"):
        relative_annihilator(E, Subspace.full(3, QQ()), Subspace.full(4, QQ()))


def test_product_subspace_needs_subspaces_of_the_algebra():
    # a dim-2 full subspace used to give a 2-dim subspace of F^3
    E, F = chain(3), QQ()
    with pytest.raises(AmbientMismatch, match="ambient must equal"):
        product_subspace(E, Subspace.full(2, F), Subspace.full(2, F))
    with pytest.raises(AmbientMismatch, match="ambient must equal"):
        product_subspace(E, Subspace.full(3, F), Subspace.full(4, F))


def test_series_blocks_from_relative_annihilator():
    rng = random.Random(2)
    for _ in range(20):
        E = random_nilpotent(rng.randrange(2, 6), rng)
        s = upper_series(E)
        for i in range(1, len(s.chain)):
            expected = Subspace.coordinate(
                s.blocks[i] + s.blocks[0], E.dim, F13)
            got = relative_annihilator(E, s.chain[i], s.chain[i - 1])
            assert got == expected


def test_type_vector_sums_to_dim_iff_nilpotent():
    rng = random.Random(3)
    for _ in range(40):
        E = random_algebra(rng.randrange(1, 6), rng)
        s = upper_series(E)
        assert (sum(s.type_vector) == E.dim) == s.nilpotent


def test_power_chains_right_vs_plenary():
    rng = random.Random(4)
    for _ in range(60):
        E = random_algebra(rng.randrange(1, 6), rng)
        assert power_nilpotency(E, RIGHT) == power_nilpotency(E, PLENARY)


def test_power_subspaces_reject_an_empty_chain_and_unknown_kinds():
    E = chain(3)
    with pytest.raises(ShapeError, match="max_k"):
        power_subspaces(E, RIGHT, 0)
    with pytest.raises(ShapeError, match="unknown power kind"):
        power_subspaces(E, "Left", 3)


@pytest.mark.parametrize("kind", ["x", "Left", "right"])
def test_power_nilpotency_rejects_unknown_kinds(kind):
    # an unknown kind is an error, not the plenary chain
    with pytest.raises(ShapeError, match="unknown power kind"):
        power_nilpotency(chain(3, GF(13)), kind)


def test_right_chain_of_chain_algebra():
    E = chain(4)
    ch = power_subspaces(E, RIGHT, 10)
    dims = [s.dim for s in ch]
    assert dims == [4, 3, 2, 1, 0]


def test_graph_and_components():
    E = EvolutionAlgebra.from_ints([[0]], QQ())
    assert graph_of(E).edges == []
    # two disjoint chains
    E2 = EvolutionAlgebra.from_ints(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], QQ())
    assert component_index_sets(E2) == [[0, 1], [2, 3]]
    parts = split_components(E2)
    assert [p.dim for p in parts] == [2, 2]
    assert parts[0].structure == Matrix.from_ints([[0, 1], [0, 0]], QQ())


def test_restrict_to_no_indices_is_a_shape_error():
    with pytest.raises(ShapeError):
        restrict_to_indices(chain(3), [])


def test_split_components_soundness():
    rng = random.Random(5)
    for _ in range(20):
        E = random_algebra(5, rng, density=0.25)
        idx_sets = component_index_sets(E)
        perm = [i for idx in idx_sets for i in idx]
        rebuilt = restrict_to_indices(E, perm)
        for a in range(5):
            for b in range(5):
                assert rebuilt.structure[a, b] == \
                    E.structure[perm[a], perm[b]]


def _union_find_components(E):
    """Reference for component_index_sets: a union-find over the
    nonzero structure entries, groups ordered by smallest member."""
    parent = list(range(E.dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(E.dim):
        for j in range(E.dim):
            if not E.structure[i, j].is_zero():
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(E.dim):
        groups.setdefault(find(i), []).append(i)
    return [sorted(groups[k]) for k in sorted(groups)]


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 8), density=st.sampled_from([0.1, 0.2, 0.35, 0.6]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_components_match_a_union_find(dim, density, seed):
    E = random_algebra(dim, random.Random(seed), GF(5), density)
    assert component_index_sets(E) == _union_find_components(E)


def test_quotient_requires_ideal():
    E = chain(3)
    # discarding e2 alone is not an ideal (e2^2 = e3 is kept)
    with pytest.raises(NotAnIdeal):
        quotient_by_block(E, [0, 2])
    q = quotient_by_block(E, [0, 1])  # discard the annihilator e3
    assert q.dim == 2
    assert upper_series(q).type_vector == [1, 1]


def test_decomposable_witnesses_are_complementary_ideals():
    rng = random.Random(6)
    found = 0
    while found < 30:
        E = random_large_annihilator(rng)
        verdict = decomposability_check(E)
        if verdict.status != DECOMPOSABLE or verdict.witness is None:
            continue
        found += 1
        i_part, j_part = verdict.witness
        assert i_part.intersect(j_part).is_zero()
        assert (i_part + j_part).dim == E.dim
        assert is_ideal(E, i_part) and is_ideal(E, j_part)
        assert i_part.dim > 0 and j_part.dim > 0


def test_decomposability_of_the_one_dimensional_zero_algebra():
    # no criterion applies; the large-annihilator pairing has no
    # nonzero square to pair and must not be tried
    for field in (F13, QQ(), QI()):
        E = EvolutionAlgebra.from_ints([[0]], field)
        assert decomposability_check(E).status == UNKNOWN


def test_indecomposable_n1m():
    # type [1,1,1] chain: middle block size 1 and ann inside E^2
    E = chain(3)
    verdict = decomposability_check(E)
    assert verdict.status == INDECOMPOSABLE


def test_a_one_dimensional_annihilator_makes_e_indecomposable():
    # (e): the 5-chain and the [1,2,1] algebra were Unknown before it;
    # the chains of dims 2 and 3 keep the reasons of (d0) and (d)
    bent = EvolutionAlgebra.from_ints(
        [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], QQ())
    for E in (chain(5), bent, chain(4, F13)):
        verdict = decomposability_check(E)
        assert (verdict.status, verdict.reason) == (
            INDECOMPOSABLE, "nilpotent with one-dimensional annihilator")
    assert decomposability_check(chain(2)).reason \
        == "nilpotent dim 2 with nonzero product"
    assert decomposability_check(chain(3)).reason \
        == "type [n,1,m] with annihilator inside E^2"


@st.composite
def one_dimensional_annihilators(draw):
    """A nilpotent algebra of dim 1-5 with dim ann = 1 over GF(3), GF(5),
    GF(13), GF(1000033), Q or Q(i), the last with the Gaussian draws
    a + bi of helpers.gaussian_scalar, in a random monomial
    relabelling."""
    field = draw(st.sampled_from([GF(3), GF(5), F13, GF(1000033), QQ(),
                                  QI()]))
    n = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.6, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kw = {"draw": gaussian_scalar} if field == QI() else {}
    while True:
        E = random_nilpotent(n, rng, field, density, **kw)
        if len(_zero_rows(E)) == 1:
            return random_monomial_relabelling(E, rng, **kw)


@settings(max_examples=300, deadline=None)
@given(one_dimensional_annihilators())
def test_a_one_dimensional_annihilator_has_no_natural_split(E):
    # the lemma of _natural_split that lets classify skip the split:
    # every summand of a direct sum adds its own annihilator
    series = upper_series(E)
    assert series.nilpotent and series.type_vector[0] == 1
    assert _natural_split(E, series) is None
    verdict = decomposability_check(E)
    assert verdict.status == (INDECOMPOSABLE if E.dim >= 2 else UNKNOWN)


def test_invariant_profile_errors_on_non_nilpotent():
    E = EvolutionAlgebra.from_ints([[1]], QQ())
    with pytest.raises(NotNilpotent):
        invariant_profile(E)


def test_invariant_profile_chain4():
    prof = invariant_profile(chain(4))
    assert prof.type_vector == [1, 1, 1, 1]
    assert prof.dim_sq == 3
    assert prof.u4_sq_in_u3 is True
    assert prof.ann_in_sq is True


def reference_upper_series(E):
    """The series by its definition: e_i joins once e_i^2 lies in the
    span of the vectors placed so far, tested by elimination."""
    placed, blocks, chain = set(), [], []
    prev = Subspace.zero(E.dim, E.field)
    while True:
        new = [i for i in range(E.dim) if i not in placed
               and prev.contains_vector(E.square_of_basis(i))]
        if not new:
            break
        placed.update(new)
        blocks.append(new)
        prev = Subspace.from_vectors(
            [E.basis_vector(i) for i in sorted(placed)], E.dim, E.field)
        chain.append(prev)
        if len(placed) == E.dim:
            break
    return blocks, chain, len(placed) == E.dim


def _small_fraction():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


_SERIES_FIELDS = [(F13, st.integers(0, 12)), (QQ(), _small_fraction()),
                  (QI(), st.tuples(_small_fraction(), _small_fraction()))]


def _random_entry(field, rnd):
    """A random scalar of field, nonzero three times in four: any nonzero
    residue over GF(p); a signed fraction k/d with 0 < |k| <= 8 and
    1 <= d <= 3 over Q; over Q(i) such a fraction as the real part, the
    imaginary part or each of both."""
    if rnd.randrange(4) == 0:
        return field.zero()
    if field.kind == PRIME:
        return field.from_int(rnd.randrange(1, field.modulus))

    def fraction():
        return (field.from_int(rnd.choice([k for k in range(-8, 9) if k]))
                / field.from_int(rnd.randrange(1, 4)))
    if field != QI():
        return fraction()
    part = rnd.randrange(3)  # 0: real, 1: imaginary, 2: both
    re = fraction() if part != 1 else field.zero()
    im = fraction() if part != 0 else field.zero()
    return re + im * field.i()


@st.composite
def sparse_algebras(draw):
    """Algebras of dim 1-5 over GF(13), Q or Q(i); half of them are made
    nilpotent by keeping only entries above the diagonal of a hidden
    order, the rest are arbitrary and mostly not nilpotent.  The entries
    come from a drawn Random, so that hypothesis's bias towards zero does
    not make most of them the zero algebra."""
    field, _ = draw(st.sampled_from(_SERIES_FIELDS))
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    nilpotent = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = _random_entry(field, rnd)
            if nilpotent and order[i] >= order[j]:
                x = field.zero()
            row.append(x)
        rows.append(row)
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


@settings(max_examples=150)
@given(sparse_algebras())
def test_upper_series_matches_containment_definition(E):
    s = upper_series(E)
    blocks, chain, nilpotent = reference_upper_series(E)
    assert s.blocks == blocks and s.chain == chain
    assert s.nilpotent == nilpotent
    assert s.type_vector == [len(b) for b in blocks]


def test_upper_series_builds_no_subspace_until_the_chain_is_read(
        monkeypatch):
    built = []
    Probe(monkeypatch).count(Subspace, "_init",
                             hook=lambda s, *args: built.append(s))
    rng = random.Random(3)
    for field in (F13, QQ(), QI()):
        for E in (random_nilpotent(5, rng, field),
                  random_algebra(4, rng, field)):
            s = upper_series(E)
            assert built == []
            blocks, chain, nilpotent = reference_upper_series(E)
            built.clear()
            eager = AnnSeries(chain=chain, blocks=blocks,
                              type_vector=[len(b) for b in blocks],
                              nilpotent=nilpotent)
            # equality, repr and pickling read the chain, which is built
            # once and then equals the eager one
            assert pickle.loads(pickle.dumps(s)) == eager
            assert len(built) == len(blocks)
            assert s.chain is s.chain and len(built) == len(blocks)
            assert s == eager and repr(s) == repr(eager)
            built.clear()


# ---------------------------------------------------------------------------
# the split along an annihilator vector outside E^2, against the generic
# subspace composition it replaces

def _complement_inside(small, big):
    """A complement of small inside big, spanned by basis rows of big not
    reducible against small."""
    vecs = []
    current = small
    for v in big.vectors():
        if not current.contains_vector(v):
            vecs.append(v)
            current = current + Subspace.from_vectors(
                [v], big.ambient_dim, big.field)
    return Subspace.from_vectors(vecs, big.ambient_dim, big.field)


def reference_annihilator_split(E):
    ann, sq = E.annihilator(), square_subspace(E)
    ann_sq = ann.intersect(sq)
    c_part = _complement_inside(ann_sq, ann)
    i_part = sq + _complement_inside(sq + c_part,
                                     Subspace.full(E.dim, E.field))
    return ann_sq, c_part, i_part


_SPLIT_FIELDS = [(GF(5), st.integers(0, 4))] + _SERIES_FIELDS


@st.composite
def algebras_with_zero_squares(draw):
    """Algebras of dim 1-5 over GF(5), GF(13), Q or Q(i) with at least
    one zero square, so that ann != 0 and often ann is not inside E^2;
    half of them are nilpotent.  The entries come from a drawn Random,
    as in split_algebras."""
    field, _ = draw(st.sampled_from(_SPLIT_FIELDS))
    n = draw(st.integers(1, 5))
    zero = draw(st.sets(st.integers(0, n - 1), min_size=1,
                        max_size=max(1, n - 1)))
    order = draw(st.permutations(range(n)))
    nilpotent = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = _random_entry(field, rnd)
            if i in zero or (nilpotent and order[i] >= order[j]):
                x = field.zero()
            row.append(x)
        rows.append(row)
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


@st.composite
def algebras_with_unit_squares(draw):
    """Algebras of dim 2-5 over GF(5), GF(13), Q or Q(i) with at least
    one zero square, in the shapes of split_algebras (nilpotent,
    arbitrary, or every square inside the span of the zero squares),
    except that each nonzero square may be drawn as a nonzero multiple
    of one zero square e_k instead: the unit squares the annihilator
    split pivots on, which cover none, some or all of the e_k of ann."""
    field, _ = draw(st.sampled_from(_SPLIT_FIELDS))
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["nilpotent", "arbitrary", "into ann"]))
    if shape == "into ann":
        size = draw(st.sampled_from([n // 2, (n + 1) // 2]))
        zero = sorted(draw(st.permutations(range(n)))[:size])
    else:
        zero = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=n - 1)))
    order = draw(st.permutations(range(n)))
    unit_of = draw(st.lists(st.none() | st.sampled_from(zero), min_size=n,
                            max_size=n))
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(n):
        row = [field.zero()] * n
        if i not in zero and unit_of[i] is not None:
            c = _random_entry(field, rnd)
            row[unit_of[i]] = field.one() if c.is_zero() else c
        elif i not in zero:
            for j in range(n):
                if not ((shape == "nilpotent" and order[i] >= order[j])
                        or (shape == "into ann" and j not in zero)):
                    row[j] = _random_entry(field, rnd)
        rows.append(row)
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


def _unit_columns(E):
    """The k with e_k^2 = 0 for which some square is a nonzero multiple
    of e_k."""
    masks = E._supports()
    return {k for k in _zero_rows(E) if 1 << k in masks}


def annihilator_split_pieces(E, zero):
    """(C, I) from the indices of C that _annihilator_split returns and
    the ideal I that _split_ideals spans, or None when ann lies inside
    E^2."""
    c_idx = _annihilator_split(E, zero)
    if c_idx is None:
        return None
    keep = [j for j in range(E.dim) if j not in c_idx]
    i_part, c_part = _split_ideals(E, _ANN_OUTSIDE_SQUARE,
                                   [keep] + [[k] for k in c_idx])
    assert c_part == Subspace.coordinate(c_idx, E.dim, E.field)
    return c_part, i_part


def assert_the_split_matches_the_subspace_composition(E):
    """_annihilator_split and _split_ideals against
    reference_annihilator_split, and the decomposability_check verdict."""
    zero, sq = _zero_rows(E), square_subspace(E)
    ann_in_sq = sq.contains(E.annihilator())
    got = annihilator_split_pieces(E, zero)
    assert (got is None) == ann_in_sq
    if got is not None:
        for mine, ref in zip(got, reference_annihilator_split(E)[1:]):
            assert mine._rows == ref._rows and mine._pivots == ref._pivots
    verdict = decomposability_check(E)
    split_case = (E.dim >= 2 and len(component_index_sets(E)) == 1
                  and not ann_in_sq)
    assert (verdict.reason == "annihilator is not contained in E^2") \
        == split_case
    if split_case:
        c_part, i_part = got
        assert verdict.witness == (i_part, c_part)
        assert not c_part.is_zero() and (i_part + c_part).dim == E.dim
        assert i_part.intersect(c_part).is_zero()


@settings(max_examples=200)
@given(algebras_with_zero_squares())
def test_annihilator_split_matches_the_subspace_composition(E):
    assert_the_split_matches_the_subspace_composition(E)


@settings(max_examples=200)
@given(algebras_with_unit_squares())
def test_the_unit_pivots_match_the_subspace_composition(E):
    # the split pivots on unit squares before it eliminates, and gives
    # the same C, I and verdict as the composition it replaces
    assert_the_split_matches_the_subspace_composition(E)


def test_the_unit_square_draws_reach_each_case_of_the_pivots():
    # a fixed-seed census: every zero column a unit, so no elimination;
    # some units and a split; some units and ann inside E^2 found by the
    # elimination of the other squares
    seen = collections.Counter()

    def record(E):
        zero, units = _zero_rows(E), _unit_columns(E)
        if units == set(zero):
            seen["all units"] += 1
        elif units:
            split = _annihilator_split(E, zero)
            seen["split" if split is not None else "eliminated"] += 1
    _census(algebras_with_unit_squares(), record)
    assert seen["all units"] >= 20
    assert seen["split"] >= 20 and seen["eliminated"] >= 10


def test_ann_in_sq_is_the_containment_of_ann_in_the_square():
    # invariant_profile reads ann inside E^2 as "no annihilator split";
    # random nilpotent draws take both values
    rng = random.Random(17)
    seen = collections.Counter()
    for field in (GF(5), F13, GF(1000033), QQ(), QI()):
        for _ in range(80):
            E = random_nilpotent(rng.randrange(1, 6), rng, field)
            ann_in_sq = invariant_profile(E).ann_in_sq
            assert ann_in_sq == square_subspace(E).contains(E.annihilator())
            seen[ann_in_sq] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def _census(strategy, record):
    """Run record on a fixed-seed sample of 200 draws of strategy."""
    @settings(max_examples=200, derandomize=True, database=None,
              phases=[Phase.generate])
    @given(strategy)
    def census(E):
        record(E)
    census()


def test_the_strategies_reach_the_annihilator_split():
    # a fixed-seed census: the draws reach the split along an annihilator
    # vector outside E^2 often, and are the zero algebra mostly where the
    # drawn shape forces it (dim 1, or one nonzero square masked away)
    seen = collections.Counter()

    def record(E):
        split = _natural_split(E, upper_series(E))
        seen[split[0] if split else None] += 1
        seen["zero"] += _zero_rows(E) == list(range(E.dim))
    _census(algebras_with_zero_squares(), record)
    assert seen["annihilator is not contained in E^2"] >= 40
    assert seen["zero"] < 200 // 3
    seen.clear()
    _census(sparse_algebras(), record)
    assert seen["zero"] < 200 // 4


def test_annihilator_split_on_a_vector_outside_the_square():
    # e0^2 = e1 + e2, e1^2 = e3^2 = 0, e2^2 = e3: ann = <e1, e3> meets
    # E^2 = <e1 + e2, e3> in <e3>, so the split keeps e1 and picks e0
    E = EvolutionAlgebra.from_ints(
        [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], QQ())
    zero, sq = _zero_rows(E), square_subspace(E)
    assert zero == [1, 3] and not invariant_profile(E).ann_in_sq
    assert _annihilator_split(E, zero) == [1]
    c_part, i_part = annihilator_split_pieces(E, zero)
    assert c_part == Subspace.coordinate([1], 4, QQ())
    assert i_part == sq + Subspace.coordinate([0], 4, QQ())
    ann_sq, ref_c, ref_i = reference_annihilator_split(E)
    assert ann_sq == Subspace.coordinate([3], 4, QQ())
    assert (c_part, i_part) == (ref_c, ref_i)


def _recording_eliminations(monkeypatch):
    """A list that records (rows, columns) of every elimination, which
    runs the rref kernel of its field's op table."""
    shapes = []
    Probe(monkeypatch).kernel("rref", hook=lambda ops, rows, ncols:
                              shapes.append((len(rows), ncols)))
    return shapes


@pytest.mark.parametrize("field", [F13, QQ(), QI()],
                         ids=["GF13", "Q", "Qi"])
def test_an_annihilator_of_unit_squares_takes_no_elimination(monkeypatch,
                                                              field):
    # in the n-chains and the [1,2] and [1,3] stars every e_k of ann is
    # a multiple of a square, so ann lies inside E^2 with no arithmetic
    shapes = _recording_eliminations(monkeypatch)
    algebras = [chain(n, field) for n in range(2, 6)]
    algebras += [find_entry(n, (1, n - 1), 1).template((), field)
                 for n in (3, 4)]
    for E in algebras:
        zero = _zero_rows(E)
        assert _unit_columns(E) == set(zero)
        assert _annihilator_split(E, zero) is None
    assert shapes == []


def test_the_split_eliminates_only_the_squares_off_the_units(monkeypatch):
    # the worked example above: U = {3}, so e2^2 = e3 drops out and one
    # elimination of e0^2 over the columns e0, e2, e1 finds C = <e1>
    E = EvolutionAlgebra.from_ints(
        [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], QQ())
    shapes = _recording_eliminations(monkeypatch)
    assert _unit_columns(E) == {3}
    assert _annihilator_split(E, _zero_rows(E)) == [1]
    assert shapes == [(1, 3)]


@st.composite
def nilpotent_of_type(draw, types):
    """A nilpotent algebra of one of the given types over GF(5), GF(13),
    Q or Q(i): block k squares into the blocks below it, reaching block
    k - 1, in a drawn order of the basis."""
    field, payload = draw(st.sampled_from(_SPLIT_FIELDS))
    tv = draw(st.sampled_from(types))
    n = sum(tv)
    blocks, start = [], 0
    for k in tv:
        blocks.append(list(range(start, start + k)))
        start += k
    nonzero = payload.filter(lambda x: x != field.ops.zero)
    rows = [[field.ops.zero] * n for _ in range(n)]
    for k in range(1, len(tv)):
        below = [j for b in blocks[:k] for j in b]
        for i in blocks[k]:
            for j in below:
                rows[i][j] = draw(st.one_of(st.just(field.ops.zero),
                                            payload))
            rows[i][draw(st.sampled_from(blocks[k - 1]))] = draw(nonzero)
    perm = draw(st.permutations(range(n)))
    prows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prows[perm[i]][perm[j]] = FieldElement(field, rows[i][j])
    return EvolutionAlgebra(n, Matrix(prows, field, n), field)


# ---------------------------------------------------------------------------
# the natural split shared by decomposability_check and classify, against
# the constructions it replaces

def reference_split_verdict(E):
    """(reason, witness) of cases (a)-(c) as decomposability_check built
    them before the shared split: coordinate witnesses for (a), the
    subspace composition for (b), and for (c) the pairs e_i, e_i^2 as
    FieldElement subspaces that must be complementary ideals; then the
    ann-dim-2 splits as classify's normalizers carved them
    (``reference_two_block_split``)."""
    n, field = E.dim, E.field
    comps = component_index_sets(E)
    if len(comps) > 1:
        rest = [i for c in comps[1:] for i in c]
        return ("attached graph is disconnected",
                (Subspace.coordinate(comps[0], n, field),
                 Subspace.coordinate(rest, n, field)))
    ann, sq = E.annihilator(), square_subspace(E)
    if n >= 2 and not sq.contains(ann):
        _, c_part, i_part = reference_annihilator_split(E)
        return "annihilator is not contained in E^2", (i_part, c_part)
    if 2 * ann.dim >= n > ann.dim:
        nonzero = [i for i in range(n)
                   if not all(x.is_zero() for x in E.structure.rows[i])]
        i_part = Subspace.from_vectors(
            [E.basis_vector(nonzero[0]), E.square_of_basis(nonzero[0])],
            n, field)
        j_vecs = [v for i in nonzero[1:]
                  for v in (E.basis_vector(i), E.square_of_basis(i))]
        j_part = (Subspace.from_vectors(j_vecs, n, field) if j_vecs
                  else Subspace.zero(n, field))
        if (j_part.dim > 0 and i_part.intersect(j_part).is_zero()
                and (i_part + j_part).dim == n
                and is_ideal(E, i_part) and is_ideal(E, j_part)):
            return ("annihilator has dimension at least dim/2",
                    (i_part, j_part))
    return reference_two_block_split(E)


def reference_two_block_split(E):
    """(reason, witness) of the [2,3] and [2,2,1] splits, from the basis
    that the normalizers of those types carved in adapted coordinates
    (``_old_special_basis``): its first three vectors and its last two,
    written in E's coordinates, which must be complementary ideals; None
    when E is not such a split."""
    n, field = E.dim, E.field
    series = upper_series(E)
    tv = tuple(series.type_vector)
    if not series.nilpotent or tv not in ((2, 3), (2, 2, 1)) \
            or not square_subspace(E).contains(E.annihilator()):
        return None
    perm = [i for blk in reversed(series.blocks) for i in blk]
    basis = _old_special_basis(restrict_to_indices(E, perm), tv)
    if basis is None:
        return None
    rows = []
    for b in basis:  # Ead's coordinate k is E's perm[k]
        row = [field.ops.zero] * n
        for k, x in enumerate(b):
            row[perm[k]] = x
        rows.append([FieldElement(field, x) for x in row])
    i_part = Subspace.from_vectors(rows[:3], n, field)
    j_part = Subspace.from_vectors(rows[3:], n, field)
    assert i_part.dim == 3 and j_part.dim == 2
    assert (i_part + j_part).dim == n
    assert is_ideal(E, i_part) and is_ideal(E, j_part)
    reason = ("type [2,3] with two proportional squares" if tv == (2, 3)
              else "type [2,2,1] whose top square misses a middle vector")
    return reason, (i_part, j_part)


@st.composite
def split_algebras(draw):
    """Algebras of dim 1-5 over GF(5), GF(13), Q or Q(i), nilpotent or
    arbitrary.  A drawn set of squares is zero, and a third of the
    algebras keep every square inside the span of about half the basis
    vectors, whose squares are zero, so the large-annihilator pairing
    comes up often.  The entries come from a drawn Random, so that
    hypothesis's bias towards zero does not leave most graphs
    disconnected."""
    field, _ = draw(st.sampled_from(_SPLIT_FIELDS))
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["nilpotent", "arbitrary", "into ann"]))
    if shape == "into ann":
        size = draw(st.sampled_from([n // 2, (n + 1) // 2]))
        zero = set(draw(st.permutations(range(n)))[:size])
    else:
        zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    order = draw(st.permutations(range(n)))
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = _random_entry(field, rnd)
            if (i in zero or (shape == "nilpotent" and order[i] >= order[j])
                    or (shape == "into ann" and j not in zero)):
                x = field.zero()
            row.append(x)
        rows.append(row)
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


@settings(max_examples=300)
@given(split_algebras())
def test_natural_split_verdicts_match_the_old_construction(E):
    _check_split_against_the_reference(E)


@settings(max_examples=300)
@given(nilpotent_of_type([[2, 3], [2, 2, 1]]))
def test_two_block_split_verdicts_match_the_old_construction(E):
    _check_split_against_the_reference(E)


def _check_split_against_the_reference(E):
    """The verdict, witness and groups of E's natural split agree with
    the construction of ``reference_split_verdict``."""
    ref = reference_split_verdict(E)
    verdict = decomposability_check(E)
    split = _natural_split(E, upper_series(E))
    if ref is None:
        assert split is None and verdict.status != DECOMPOSABLE
        return
    assert verdict.status == DECOMPOSABLE
    assert (verdict.reason, verdict.witness) == ref
    assert split[0] == verdict.reason
    groups = split[1]
    if split[0] == _LARGE_ANN:
        # one group [i] per nonzero square, for the pair e_i, e_i^2
        assert groups == [[i] for i in range(E.dim)
                          if i not in _zero_rows(E)]
        assert 2 * len(groups) == E.dim
    elif split[0] == _PROPORTIONAL_TOP:
        # [i, j] and [k] partition the top block
        assert sorted(i for g in groups for i in g) \
            == upper_series(E).blocks[1]
        assert [len(g) for g in groups] == [2, 1]
    elif split[0] == _MIDDLE_MISSED:
        # the top vector, then the middle vector its square misses
        blocks = upper_series(E).blocks
        assert groups[0] == blocks[2] and groups[1][0] in blocks[1]
    else:
        # the groups partition E's basis indices
        assert sorted(i for g in groups for i in g) == list(range(E.dim))


# types whose algebras split in every way classify knows: the ann-dim-2
# splits of [2,3] and [2,2,1], the pairing of [2,2], the annihilator
# split of [3,2] and [2,1,1,1]
_SPLIT_TYPES = [[2, 3], [2, 2, 1], [2, 1, 2], [2, 2], [3, 2], [2, 1, 1, 1],
                [1, 2, 2]]


# ---------------------------------------------------------------------------
# every split classify applies, against the carve of its split basis by
# coordinates from the whole inverse, as classify took its summands before
# they became selections and fixed chains

def full_inverse_adjusted_rows(E, basis):
    """The structure rows of E in the natural basis given by payload rows:
    every pair of rows is multiplied, and each square gets its
    coordinates from the inverse of the whole basis."""
    ops = E.field.ops
    Z = ops.zero
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if any(x != Z for x in ops.product(E._rows, basis[i], basis[j])):
                raise SpecMismatch("candidate basis is not natural")
    inv = _inverse_rows(basis, ops)
    return [ops.combine(ops.product(E._rows, b, b), inv, E.dim)
            for b in basis]


def _old_annihilator_basis(E, c_idx):
    """The split basis the annihilator split used to carve: e_k minus its
    C-component for each k with e_k^2 != 0, the reduced basis of
    ann cap E^2, then the unit rows of C; and the number of rows that
    span I.  The C-components come from the reference I and C."""
    ops, n = E.field.ops, E.dim
    ann_sq, c_part, i_part = reference_annihilator_split(E)
    inv = _inverse_rows(i_part._rows + c_part._rows, ops)
    zero = _zero_rows(E)
    basis = []
    for k in range(n):
        if k in zero:
            continue
        coords = inv[k]  # e_k in the basis of I then C
        row = _unit_row(k, n, ops)
        for c, x in zip(c_part._pivots, coords[i_part.dim:]):
            row[c] = ops.sub(row[c], x)
        basis.append(row)
    basis += ann_sq._rows
    return basis + [_unit_row(k, n, ops) for k in c_idx], len(basis)


def _old_special_basis(Ead, tv):
    """The split basis the ann-dim-2 split of Ead (adapted coordinates,
    type [2,3] or [2,2,1]) used to carve, with groups [[0, 1, 2], [3, 4]],
    when the normalizer of its type used to split it (e_0^2 missing e_1
    or e_2, or two dependent top squares), else None."""
    S, ops, n = Ead._rows, Ead.field.ops, Ead.dim
    unit = [_unit_row(k, n, ops) for k in range(n)]
    if tv == (2, 2, 1):
        if S[0][1] != ops.zero and S[0][2] != ops.zero:
            return None
        drop = 1 if S[0][1] == ops.zero else 2
        x2 = S[0]
        return [unit[0], x2, ops.product(S, x2, x2), unit[drop], S[drop]]
    for i in range(3):
        for j in range(i + 1, 3):
            if ops.sub(ops.mul(S[i][3], S[j][4]),
                       ops.mul(S[i][4], S[j][3])) == ops.zero:
                k = 3 - i - j
                return [unit[i], unit[j], S[i], unit[k], S[k]]
    return None


def _part_rows(part, field):
    """The structure rows of a summand classify hands to _gather: those
    of its algebra, or for a summand given as the length n of the
    n-chain, which a lemma identified, those of the chain's template
    d_n:[1,...,1]:v1 over field."""
    if isinstance(part, int):
        return find_entry(part, (1,) * part, 1).template_rows((), field)
    return part._rows


def _record_splits(classify_module):
    """Patches for classify's split stage and _gather, and the events
    they record in call order: ("split", E, reason, groups) for each
    split that classify applies, each followed by ("gather", summand
    parts) for the summands it hands down (rows through
    ``_part_rows``)."""
    events, patches = [], []

    def stage(fn):
        def wrapper(E, *series):
            split = fn(E, *series)
            if split is not None:
                events.append(("split", E) + tuple(split))
            return split
        return wrapper
    patches.append((classify_module, "_natural_split",
                    stage(classify_module._natural_split)))
    gather = classify_module._gather

    def gathering(parts):
        parts = list(parts)
        events.append(("gather", parts))
        return gather(parts)
    patches.append((classify_module, "_gather", gathering))
    return events, patches


@settings(max_examples=300)
@given(st.one_of(split_algebras(), nilpotent_of_type(_SPLIT_TYPES),
                 nilpotent_of_type([[2, 3], [2, 2, 1]])))
def test_every_split_classify_applies_is_block_diagonal(E):
    # the carve of the old split basis of every split classify applies is
    # block-diagonal, which pins the lemmas that let classify skip it:
    # the pairs, the one-index groups and the ann-dim-2 summands equal
    # the carved rows (the rows of their label's template, for those
    # classify takes as labels), and the quotient of an annihilator split
    # is isomorphic to the carved I
    classify_module = importlib.import_module("evoalg.classify")
    events, patches = _record_splits(classify_module)
    with pytest.MonkeyPatch.context() as mp:
        for module, name, fn in patches:
            mp.setattr(module, name, fn)
        try:
            classify_module.classify(E)
        except (NotNilpotent, SqrtUnavailable):
            pass
    for at, event in enumerate(events):
        if event[0] == "gather":
            continue
        kind, parts = events[at + 1]
        assert kind == "gather"
        _, A, reason, groups = event
        if reason in (_PROPORTIONAL_TOP, _MIDDLE_MISSED):
            # carved in the adapted coordinates, as the normalizers did
            series = upper_series(A)
            A = restrict_to_indices(
                A, [i for blk in reversed(series.blocks) for i in blk])
            basis = _old_special_basis(A, tuple(series.type_vector))
            assert basis is not None
            groups = [[0, 1, 2], [3, 4]]
        else:
            if reason == _DISCONNECTED:
                basis = _identity_rows(A.dim, A.field.ops)
            elif reason == _LARGE_ANN:
                basis = [v for [i] in groups
                         for v in (_unit_row(i, A.dim, A.field.ops),
                                   A._rows[i])]
                groups = [[2 * k, 2 * k + 1] for k in range(len(groups))]
            else:
                keep = groups[0]
                basis, head = _old_annihilator_basis(
                    A, [k for [k] in groups[1:]])
                groups = [list(range(head))] + [[j] for j in range(head,
                                                                   A.dim)]
        summands = [_part_rows(part, A.field) for part in parts]
        Z = A.field.ops.zero
        rows = full_inverse_adjusted_rows(A, basis)
        assert sorted(i for g in groups for i in g) == list(range(A.dim))
        for g in groups:
            assert all(rows[i][j] == Z for i in g
                       for j in range(A.dim) if j not in g)
        carved = [[[rows[i][j] for j in g] for i in g] for g in groups]
        if reason != _ANN_OUTSIDE_SQUARE:
            assert summands == carved
            continue
        # the quotient summand, and e_j -> (I-component of e_j) onto I
        assert summands[1:] == carved[1:]
        quotient = EvolutionAlgebra._wrap(summands[0], A.field)
        inv = _inverse_rows(basis, A.field.ops)
        m = [[inv[j][r] for j in keep] for r in range(head)]
        assert verify_hom(quotient,
                          EvolutionAlgebra._wrap(carved[0], A.field),
                          Matrix._wrap(m, A.field, head))


def test_an_annihilator_split_takes_two_eliminations(monkeypatch):
    # call counts: each annihilator split that classify applies
    # eliminates at most twice (seven times before the split was built
    # from index sets, four while classify still carved its summands)
    probe = Probe(monkeypatch)
    # every elimination runs the rref kernel of its field's op table
    probe.kernel("rref")
    splits = probe.window(importlib.import_module("evoalg.algebra"),
                          "_annihilator_split")
    classify = importlib.import_module("evoalg.classify").classify
    rng = random.Random(11)
    for field in (GF(5), F13, QQ(), QI()):
        for _ in range(300):
            try:
                classify(random_nilpotent(rng.randrange(2, 6), rng, field))
            except SqrtUnavailable:
                pass
    per_split = [c.delta["rref"] for c in splits if c.out is not None]
    assert len(per_split) >= 100
    assert max(per_split) <= 2
    # Q(i) scalars a + bi with an i part, which the draws above lack
    splits.clear()
    rng = random.Random(11)
    for _ in range(600):
        try:
            classify(random_nilpotent(rng.randrange(2, 6), rng, QI(),
                                      draw=gaussian_scalar))
        except SqrtUnavailable:
            pass
    per_split = [c.delta["rref"] for c in splits if c.out is not None]
    assert len(per_split) >= 80
    assert max(per_split) <= 2


@settings(max_examples=300)
@given(st.one_of(split_algebras(), nilpotent_of_type(_SPLIT_TYPES)))
def test_every_summand_inherits_what_its_split_proved(E):
    # the one-index summands of a split never reach _classify, and
    # every summand that does comes with its own series
    classify_module = importlib.import_module("evoalg.classify")
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        Probe(mp).count(classify_module, "_classify",
                        hook=lambda A, series=None: calls.append((A, series)))
        try:
            classify_module.classify(E)
        except (NotNilpotent, SqrtUnavailable):
            pass
    for A, series in calls:
        # the one-index summands of a split are labelled by the split and
        # never reach _classify
        assert series is None or A.dim > 1
        if series is not None:
            ref = upper_series(A)
            assert series.nilpotent and ref.nilpotent
            assert series.blocks == ref.blocks
            assert series.type_vector == ref.type_vector


def test_summands_skip_the_split_stages_their_split_proved(monkeypatch):
    # a pair of the pairing, taken as the two-element chain's label, runs
    # no split stage and no normalizer at all
    classify_module = importlib.import_module("evoalg.classify")
    gather = classify_module._gather
    repeats, taken = collections.Counter(), collections.Counter()
    probe = Probe(monkeypatch)
    ran = probe.counts
    splits = probe.window(classify_module, "_natural_split")
    probe.count(classify_module, "_normalize")

    def gathering(parts):
        # _classify hands a split's summands to _gather right after
        # the split stage returns it
        parts = list(parts)
        split = splits[-1]
        if split.out[0] != _LARGE_ANN:
            return gather(parts)
        field = split.args[0].field
        Z, one = field.ops.zero, field.ops.one
        for part in parts:
            assert _part_rows(part, field) == [[Z, one], [Z, Z]]
        before = ran.copy()
        out = gather(parts)
        if ran != before:
            repeats["pair"] += 1
        taken["pair"] += len(parts)
        return out
    monkeypatch.setattr(classify_module, "_gather", gathering)
    rng = random.Random(12)
    for field in (GF(5), F13, QQ(), QI()):
        for _ in range(300):
            E = random_nilpotent(rng.randrange(2, 6), rng, field)
            try:
                classify_module.classify(E)
            except SqrtUnavailable:
                pass
    assert repeats == {}
    assert taken["pair"] >= 80


@pytest.mark.parametrize("field", [GF(5), F13, GF(1000033), QQ(), QI()],
                         ids=["GF5", "GF13", "GF1000033", "Q", "Qi"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_labels_classify_takes_unclassified_are_the_chains(field, n):
    # the lemma behind the summands classify labels without classifying
    # them: the template of d_n:[1,...,1]:v1 is the n-element chain (for
    # n = 1 the zero algebra) on every field kind, with the identity as
    # its witness, and it is the shared label classify gives that chain
    classify_module = importlib.import_module("evoalg.classify")
    key, label = classify_module._shared_label(n, (1,) * n, 1)
    assert classify_module._LABELS[n, (1,) * n, 1, False, False] \
        == (key, label)
    assert label.serialize() == key == f"d{n}:[{','.join(['1'] * n)}]:v1"
    entry = find_entry(n, (1,) * n, 1)
    C = chain(n, field)
    assert entry.template_rows((), field) == C._rows
    assert verify_hom(entry.template((), field), C,
                      Matrix.identity(n, field))
    assert classify_module.classify(C) is label


@st.composite
def chain_type_algebras(draw):
    """A nilpotent algebra of dim 2 or 3 and type [1,...,1] over GF(3),
    GF(5), GF(13), GF(1000033), Q or Q(i): in a drawn order of the
    basis, each square has a nonzero entry on the next vector (1 where
    the drawn one is 0) and drawn entries on the ones after it."""
    field = draw(st.sampled_from([GF(3), GF(5), F13, GF(1000033), QQ(),
                                  QI()]))
    n = draw(st.integers(2, 3))
    order = draw(st.permutations(range(n)))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [[field.zero()] * n for _ in range(n)]
    for k in range(n - 1):
        for j in range(k + 1, n):
            x = _random_entry(field, rnd)
            if j == k + 1 and x.is_zero():
                x = field.one()
            rows[order[k]][order[j]] = x
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


@settings(max_examples=300)
@given(chain_type_algebras())
def test_type_one_by_one_in_dims_2_and_3_is_the_chain(E):
    # the chain lemma of _natural_split, which lets _gather label a
    # summand of type [1,1] or [1,1,1] by its inherited series alone:
    # classify gives the chain's label, and its witness (the powers of
    # the top vector, no root taken) realizes the template on every
    # field kind
    classify_module = importlib.import_module("evoalg.classify")
    n, field = E.dim, E.field
    assert upper_series(E).type_vector == [1] * n
    label = classify_module._shared_label(n, (1,) * n, 1)[1]
    assert classify_module.classify(E) is label
    res = classify_module.normal_form(E)
    assert res.label == label and res.witness is not None
    template = find_entry(n, (1,) * n, 1).template((), field)
    assert verify_hom(template, E, res.witness)


def _explicit_summands(E):
    """E's summands as explicit algebras, for the first split that
    classify applies to E, or None when E does not split: the selections
    of a graph split or an annihilator split, the two-element chain for
    each pair of the pairing, and the carve of the ann-dim-2 split
    basis."""
    field = E.field
    series = upper_series(E)
    split = _natural_split(E, series)
    if split is None:
        return None
    reason, groups = split
    if reason == _LARGE_ANN:
        return [chain(2, field) for _ in groups]
    if reason not in (_PROPORTIONAL_TOP, _MIDDLE_MISSED):
        return [restrict_to_indices(E, g) for g in groups]
    tv = tuple(series.type_vector)
    perm = [i for blk in reversed(series.blocks) for i in blk]
    Ead = restrict_to_indices(E, perm)
    rows = full_inverse_adjusted_rows(Ead, _old_special_basis(Ead, tv))
    return [EvolutionAlgebra._wrap([[rows[i][j] for j in g] for i in g],
                                   field)
            for g in ([0, 1, 2], [3, 4])]


def _reference_labels(E):
    """The summand labels of E, each classified from an explicit
    indecomposable algebra."""
    parts = _explicit_summands(E)
    if parts is None:
        return [importlib.import_module("evoalg.classify").classify(E)]
    return [label for P in parts for label in _reference_labels(P)]


@settings(max_examples=300)
@given(st.one_of(split_algebras(), nilpotent_of_type([[2, 3], [2, 2, 1]])))
def test_labels_taken_unclassified_match_the_summands_classified(E):
    # classify takes the summands its splits identify as labels; the
    # labels must be those of the explicit summand algebras, each
    # classified as a whole, with every pair built as the 2-chain
    classify = importlib.import_module("evoalg.classify").classify
    if not upper_series(E).nilpotent:
        with pytest.raises(NotNilpotent):
            classify(E)
        return
    try:
        labels = _reference_labels(E)
    except SqrtUnavailable:
        with pytest.raises(SqrtUnavailable):
            classify(E)
        return
    if len(labels) == 1:
        assert classify(E) == labels[0]
    else:
        assert classify(E) == Decomposed(
            sorted(labels, key=lambda l: l.serialize()))


@pytest.mark.parametrize("rows, classified, searches", [
    # a connected pairing, e_0^2 = e_2 + e_3, e_1^2 = e_2 - e_3: the two
    # pairs are labelled, and nothing is classified
    ([[0, 0, 1, 1], [0, 0, 1, 12], [0, 0, 0, 0], [0, 0, 0, 0]], 1, 0),
    # a [2,2,1] split: both chains are labelled, and no witness is sought
    ([[0, 1, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5,
      [0] * 5], 1, 0),
    # a [2,3] split: only the summand [[0, 0, 1], [0, 0, 2], [0, 0, 0]]
    # is classified, with one witness search
    ([[0, 0, 0, 1, 0], [0, 0, 0, 2, 0], [0, 0, 0, 1, 1], [0] * 5,
      [0] * 5], 2, 1),
    # a graph split into a 3-chain and a 2-chain: both components are
    # labelled by the series they inherit, and nothing is classified
    ([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0] * 5, [0, 0, 0, 0, 1],
      [0] * 5], 1, 0),
], ids=["pairing", "221", "23", "chain components"])
def test_labelled_summands_run_no_classification(monkeypatch, rows,
                                                 classified, searches):
    # call counts: before the split's summands were taken as labels, the
    # pairing classified 3 algebras with 2 witness searches, the [2,2,1]
    # split 3 with 2 and the [2,3] split 3 with 2; before the components
    # of type [1,...,1] were, the chain components 3 with 2
    classify_module = importlib.import_module("evoalg.classify")
    probe = Probe(monkeypatch)
    counts = probe.counts
    for name in ("_classify", "_witness_basis"):
        probe.count(classify_module, name)
    out = classify_module.classify(EvolutionAlgebra.from_ints(rows, F13))
    assert isinstance(out, Decomposed)
    assert counts["_classify"] == classified
    assert counts["_witness_basis"] == searches


@st.composite
def nilpotent_algebras(draw):
    """A random nilpotent algebra of dim 1-5 over GF(3), GF(5), GF(13),
    GF(1000033), Q or Q(i), the Q(i) scalars a + bi of
    helpers.gaussian_scalar."""
    field = draw(st.sampled_from([GF(3), GF(5), F13, GF(1000033), QQ(),
                                  QI()]))
    n = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.3, 0.6, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kw = {"draw": gaussian_scalar} if field == QI() else {}
    return random_nilpotent(n, rng, field, density, **kw)


@settings(max_examples=400, deadline=None)
@given(st.one_of(nilpotent_algebras(),
                 nilpotent_of_type([[2, 3], [2, 2, 1], [2, 1, 2]])))
def test_classify_decomposes_exactly_where_the_verdict_does(E):
    # classify and decomposability_check share one split stage, so a
    # Decomposed label and a Decomposable verdict come together, and the
    # verdict's witness is a pair of nonzero complementary ideals
    verdict = decomposability_check(E)
    try:
        label = classify(E)
    except EvoalgError:
        pass
    else:
        assert isinstance(label, Decomposed) \
            == (verdict.status == DECOMPOSABLE)
    if verdict.status == DECOMPOSABLE:
        I, J = verdict.witness
        assert not I.is_zero() and not J.is_zero()
        assert (I + J).dim == E.dim and I.intersect(J).is_zero()
        assert is_ideal(E, I) and is_ideal(E, J)


def _f13_span(*vectors):
    return Subspace(5, Matrix.from_ints(list(vectors), F13))


@pytest.mark.parametrize("rows, reason, groups, summands, ideals, label", [
    # e_0^2 = e_3, e_1^2 = 2 e_3, e_2^2 = e_3 + e_4: e_1^2 = 2 e_0^2
    ([[0, 0, 0, 1, 0], [0, 0, 0, 2, 0], [0, 0, 0, 1, 1], [0] * 5,
      [0] * 5],
     "type [2,3] with two proportional squares", [[0, 1], [2]],
     [[[0, 0, 1], [0, 0, 2], [0, 0, 0]], 2],
     ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]],
      [[0, 0, 1, 0, 0], [0, 0, 0, 1, 1]]),
     "d2:[1,1]:v1 + d3:[1,2]:v1"),
    # e_0^2 = e_1 + e_4 misses e_2, e_1^2 = e_3, e_2^2 = e_4
    ([[0, 1, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5,
      [0] * 5],
     "type [2,2,1] whose top square misses a middle vector", [[0], [2]],
     [3, 2],
     ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 0, 1, 0]],
      [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]),
     "d2:[1,1]:v1 + d3:[1,1,1]:v1"),
], ids=["23", "221"])
def test_the_two_block_splits_on_fixed_rows(rows, reason, groups, summands,
                                            ideals, label):
    # the two splits of dim 5 with dim ann = 2: their groups, summands,
    # witness ideals and labels
    E = EvolutionAlgebra.from_ints(rows, F13)
    assert _natural_split(E, upper_series(E)) == (reason, groups)
    assert [s if isinstance(s, int) else EvolutionAlgebra.from_ints(s, F13)
            for s in summands] == _split_summands(E, reason, groups)
    verdict = decomposability_check(E)
    assert (verdict.status, verdict.reason) == (DECOMPOSABLE, reason)
    assert verdict.witness == tuple(_f13_span(*v) for v in ideals)
    assert classify(E).serialize() == label


@pytest.mark.parametrize("field", [QQ(), QI()], ids=["Q", "Q(i)"])
@pytest.mark.parametrize("shape", ["disconnected", "ann outside square"])
def test_the_coordinate_splits_of_a_large_algebra_square_nothing(shape,
                                                                 field):
    # e_0^2 = 2 e_0 (plus every other e_k for the annihilator split): the
    # successive squares of e_0 are 2^(2^k - 1) e_0 + ..., whose bit
    # length doubles each step, so spanning a graph component or the
    # quotient by C from squares would not finish at dim 32
    n = 32
    rows = [[0] * n for _ in range(n)]
    if shape == "disconnected":
        for i in range(n):
            rows[i][i] = 2
    else:
        rows[0] = [2] + [1] * (n - 1)
    E = EvolutionAlgebra.from_ints(rows, field)
    start = time.monotonic()
    verdict = decomposability_check(E)
    assert time.monotonic() - start < 5.0
    assert verdict.status == DECOMPOSABLE
    rest = Subspace.coordinate(range(1, n), n, field)
    first = (Subspace.coordinate([0], n, field) if shape == "disconnected"
             else Subspace(n, Matrix.from_ints([rows[0]], field)))
    assert verdict.witness == (first, rest)


@settings(max_examples=300)
@given(nilpotent_of_type([[2, 1, 1], [3, 1, 1], [4, 1, 1], [3, 1, 1, 1],
                          [2, 2, 1], [3, 2, 1], [4, 2, 1], [2, 1, 1, 1],
                          [3, 1, 2], [2, 1, 2], [4, 1, 1, 1]]))
def test_a_wide_annihilator_block_lies_outside_the_square(E):
    # for r >= 3, e_i^2 of one e_i in each block U_k, k = 3..r, lies in
    # ann^{k-1} but not ann^{k-2}, so these r - 2 squares meet ann only
    # in 0 and dim (E^2 cap ann) <= (n - n1) - (r - 2); ann inside E^2
    # then gives 2 n1 <= n - r + 2, so no decomposability criterion on
    # 2 n1 > n - r + 2 can fire after the annihilator split
    series = upper_series(E)
    tv, n, r = series.type_vector, E.dim, series.r
    assert series.nilpotent and r >= 3
    if square_subspace(E).contains(E.annihilator()):
        assert 2 * tv[0] <= n - r + 2


def test_no_type_2111_input_reaches_a_normalizer(monkeypatch):
    # by the test above, a connected [2,1,1,1] has ann outside E^2, so
    # the annihilator split always takes it first, and no normalizer
    # exists for that type
    classify_module = importlib.import_module("evoalg.classify")
    normalize, reached = classify_module._normalize, collections.Counter()
    Probe(monkeypatch).count(
        classify_module, "_normalize",
        hook=lambda E, series: reached.update([tuple(series.type_vector)]))
    labels = []

    def record(E):
        assert upper_series(E).type_vector == [2, 1, 1, 1]
        labels.append(classify_module.classify(E))
    _census(nilpotent_of_type([[2, 1, 1, 1]]), record)
    assert len(labels) == 200 and sum(reached.values()) > 0
    assert reached[(2, 1, 1, 1)] == 0
    # a type without a normalizer is a SpecMismatch, should one come by
    E = EvolutionAlgebra.from_ints(
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], GF(5))
    assert upper_series(E).type_vector == [2, 1, 1, 1]
    with pytest.raises(SpecMismatch):
        normalize(E, upper_series(E))


def reference_quotient(E, keep):
    """quotient_by_block as it read the structure matrix entry by entry."""
    keep = sorted(keep)
    for i in range(E.dim):
        if i not in keep:
            for j in keep:
                if not E.structure[i, j].is_zero():
                    raise NotAnIdeal(
                        f"square of basis vector {i} leaves the discarded "
                        "span")
    rows = [[E.structure[i, j] for j in keep] for i in keep]
    return EvolutionAlgebra(len(keep), Matrix(rows, E.field, len(keep)),
                            E.field)


def test_quotient_by_block_matches_the_entrywise_check():
    rng = random.Random(14)
    outcomes = collections.Counter()
    for field in (GF(5), F13, QQ(), QI()):
        for _ in range(150):
            n = rng.randrange(1, 6)
            E = (random_nilpotent(n, rng, field) if rng.random() < 0.5
                 else random_algebra(n, rng, field, 0.3))
            keep = rng.sample(range(n), rng.randrange(1, n + 1))
            try:
                ref = reference_quotient(E, keep)
            except NotAnIdeal as exc:
                with pytest.raises(NotAnIdeal) as got:
                    quotient_by_block(E, keep)
                assert str(got.value) == str(exc)
                outcomes["not an ideal"] += 1
                continue
            assert quotient_by_block(E, keep) == ref
            outcomes["quotient"] += 1
    assert min(outcomes.values()) >= 100


@pytest.mark.parametrize("fn, idx", [
    (restrict_to_indices, [0, 3]), (restrict_to_indices, [-1]),
    (restrict_to_indices, [0, 0]), (quotient_by_block, [0, 3]),
    (quotient_by_block, [-1, 0]), (quotient_by_block, [0, 1, 1]),
    (quotient_by_block, []),
])
def test_block_indices_must_be_distinct_and_in_range(fn, idx):
    with pytest.raises(ShapeError):
        fn(chain(3), idx)


@pytest.mark.parametrize("fn, idx", [
    (quotient_by_block, "a"), (restrict_to_indices, [1.0]),
    (quotient_by_block, 1), (restrict_to_indices, [[0]]),
], ids=["string", "float", "no collection", "unhashable"])
def test_block_indices_must_be_ints(fn, idx):
    # a raw TypeError before the indices were checked to be ints
    with pytest.raises(ShapeError, match="ints"):
        fn(chain(3), idx)


@pytest.mark.parametrize("i", [0, 4, 9, -1, 1.0, "1"])
def test_block_subspace_takes_a_block_of_the_series(i):
    # block 0 was block -1, the last one, and block 9 an IndexError
    E = chain(3)
    s = upper_series(E)
    assert [block_subspace(E, s, k).dim for k in (1, 2, 3)] == [1, 1, 1]
    with pytest.raises(ShapeError, match="1..3"):
        block_subspace(E, s, i)


def test_power_subspaces_refuse_a_fractional_max_k():
    with pytest.raises(ShapeError, match="max_k"):
        power_subspaces(chain(3), RIGHT, 1.5)
