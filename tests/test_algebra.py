"""Evolution algebras: series, powers, graphs, decomposability."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evoalg.algebra import (DECOMPOSABLE, INDECOMPOSABLE, PLENARY, RIGHT,
                            UNKNOWN, AnnSeries, EvolutionAlgebra,
                            _annihilator_split, _holds_units, _zero_rows,
                            component_index_sets,
                            decomposability_check, graph_of,
                            invariant_profile, is_ideal, power_nilpotency,
                            power_subspaces, product_subspace,
                            quotient_by_block, relative_annihilator,
                            restrict_to_indices, split_components,
                            square_subspace, upper_series)
from evoalg.errors import NotAnIdeal, NotNilpotent, ShapeError
from evoalg.fields import GF, QI, QQ, FieldElement
from evoalg.linalg import Matrix, Subspace

from helpers import (F13, random_algebra, random_large_annihilator,
                     random_nilpotent)


def chain(n, field=QQ()):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return EvolutionAlgebra.from_ints(rows, field)


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


def test_multiply_bilinear_diagonal():
    E = chain(3)
    x = [QQ().from_int(2), QQ().from_int(3), QQ().zero()]
    # (2e1 + 3e2)^2 = 4 e1^2 + 9 e2^2
    assert E.multiply(x, x) == [QQ().zero(), QQ().from_int(4),
                                QQ().from_int(9)]
    # distinct basis vectors multiply to zero
    assert all(v.is_zero()
               for v in E.multiply(E.basis_vector(0), E.basis_vector(1)))


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


@st.composite
def sparse_algebras(draw):
    """Algebras of dim 1-5 over GF(13), Q or Q(i); half of them are made
    nilpotent by keeping only entries above the diagonal of a hidden
    order, the rest are arbitrary and mostly not nilpotent."""
    field, payload = draw(st.sampled_from(_SERIES_FIELDS))
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    nilpotent = draw(st.booleans())
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = draw(st.one_of(st.just(field.ops.zero), payload))
            if nilpotent and order[i] >= order[j]:
                x = field.ops.zero
            row.append(FieldElement(field, x))
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
    init = Subspace._init

    def counting(self, *args):
        built.append(self)
        return init(self, *args)
    monkeypatch.setattr(Subspace, "_init", counting)
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
    half of them are nilpotent."""
    field, payload = draw(st.sampled_from(_SPLIT_FIELDS))
    n = draw(st.integers(1, 5))
    zero = draw(st.sets(st.integers(0, n - 1), min_size=1))
    order = draw(st.permutations(range(n)))
    nilpotent = draw(st.booleans())
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = draw(st.one_of(st.just(field.ops.zero), payload))
            if i in zero or (nilpotent and order[i] >= order[j]):
                x = field.ops.zero
            row.append(FieldElement(field, x))
        rows.append(row)
    return EvolutionAlgebra(n, Matrix(rows, field, n), field)


@settings(max_examples=200)
@given(algebras_with_zero_squares())
def test_annihilator_split_matches_the_subspace_composition(E):
    zero, sq = _zero_rows(E), square_subspace(E)
    ann_in_sq = sq.contains(E.annihilator())
    assert _holds_units(sq, zero) == ann_in_sq
    got = _annihilator_split(E, zero, sq)
    for mine, ref in zip(got, reference_annihilator_split(E)):
        assert mine._rows == ref._rows and mine._pivots == ref._pivots
    verdict = decomposability_check(E)
    split_case = (E.dim >= 2 and len(component_index_sets(E)) == 1
                  and not ann_in_sq)
    assert (verdict.reason == "annihilator is not contained in E^2") \
        == split_case
    if split_case:
        ann_sq, c_part, i_part = got
        assert verdict.witness == (i_part, c_part)
        assert not c_part.is_zero() and (i_part + c_part).dim == E.dim
        assert i_part.intersect(c_part).is_zero()


def test_annihilator_split_on_a_vector_outside_the_square():
    # e0^2 = e1 + e2, e1^2 = e3^2 = 0, e2^2 = e3: ann = <e1, e3> meets
    # E^2 = <e1 + e2, e3> in <e3>, so the split keeps e1 and picks e0
    E = EvolutionAlgebra.from_ints(
        [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], QQ())
    zero, sq = _zero_rows(E), square_subspace(E)
    assert zero == [1, 3] and not _holds_units(sq, zero)
    ann_sq, c_part, i_part = _annihilator_split(E, zero, sq)
    assert ann_sq == Subspace.coordinate([3], 4, QQ())
    assert c_part == Subspace.coordinate([1], 4, QQ())
    assert i_part == sq + Subspace.coordinate([0], 4, QQ())
    assert (ann_sq, c_part, i_part) == reference_annihilator_split(E)
