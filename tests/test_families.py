"""Parametric families and their scaling isomorphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evoalg.algebra import upper_series
from evoalg.classify import classify, labels_equal
from evoalg.errors import MixedFields, SpecMismatch, UnsupportedField
from evoalg.families import (UB, UBFG, UBG, UBU, FamilySpec, build, build_Ub,
                             build_Ubfg, build_Ubg, build_Ubu,
                             family_iso_test, scaled_spec,
                             scaling_isomorphism)
from evoalg.fields import GF, QI, QQ, FieldElement
from evoalg.oracle import verify_hom

F13 = GF(13)


def f13s(*vals):
    return tuple(F13.from_int(v) for v in vals)


def test_family_types():
    b = f13s(1, 2, 3)
    assert upper_series(build_Ub(FamilySpec(UB, 3, b))).type_vector \
        == [1, 3]
    assert upper_series(build_Ubg(
        FamilySpec(UBG, 3, b, g_eigs=f13s(0, 1, 2)))).type_vector \
        == [1, 1, 3]
    assert upper_series(build_Ubfg(
        FamilySpec(UBFG, 3, b, f_eigs=f13s(1, 2, 3),
                   g_eigs=f13s(0, 1, 2)))).type_vector == [1, 1, 1, 3]
    assert upper_series(build_Ubu(
        FamilySpec(UBU, 3, b, u_coords=f13s(1, 0, 0)))).type_vector \
        == [1, 3, 1]


def test_spec_validation():
    with pytest.raises(SpecMismatch):
        FamilySpec(UB, 2, f13s(1, 0))          # degenerate form
    with pytest.raises(SpecMismatch):
        FamilySpec(UB, 2, f13s(1, 2), g_eigs=f13s(1, 2))  # g without kind
    with pytest.raises(SpecMismatch):
        FamilySpec(UBU, 2, f13s(1, 2), u_coords=f13s(0, 0))  # u = 0
    with pytest.raises(SpecMismatch):
        FamilySpec("other", 1, f13s(1))


def test_spec_validation_names_each_fault():
    b = f13s(1, 2)
    faults = [
        (dict(kind=UB, n=3, b_diag=b), "length n"),
        (dict(kind=UB, n=0, b_diag=()), "length n"),
        (dict(kind=UBG, n=2, b_diag=b, g_eigs=b, f_eigs=b), "f_eigs"),
        (dict(kind=UBFG, n=2, b_diag=b, g_eigs=b), "f_eigs"),
        (dict(kind=UBU, n=2, b_diag=b), "u_coords"),
        (dict(kind=UB, n=2, b_diag=b, u_coords=b), "u_coords"),
        (dict(kind=UBG, n=2, b_diag=b, g_eigs=f13s(1)), "length != n"),
        (dict(kind=UBU, n=2, b_diag=b, u_coords=f13s(1, 2, 3)),
         "length != n"),
    ]
    for kwargs, message in faults:
        with pytest.raises(SpecMismatch, match=message):
            FamilySpec(**kwargs)


def test_spec_refuses_an_entry_that_is_not_a_field_element():
    b = f13s(1, 2)
    for kwargs in (dict(kind=UB, n=2, b_diag=(F13.one(), 2)),
                   dict(kind=UBG, n=2, b_diag=b, g_eigs=(F13.one(), 0)),
                   dict(kind=UBFG, n=2, b_diag=b, f_eigs=(1, 2), g_eigs=b),
                   dict(kind=UBU, n=2, b_diag=b, u_coords=(1, F13.one()))):
        with pytest.raises(SpecMismatch, match="field elements"):
            FamilySpec(**kwargs)
    with pytest.raises(SpecMismatch, match="field elements"):
        FamilySpec(UB, 1, (1,))         # the first entry names the field


def test_spec_refuses_an_entry_from_another_field():
    b = f13s(1, 2)
    q1 = QQ().one()
    for kwargs in (dict(kind=UB, n=2, b_diag=(F13.one(), GF(5).one())),
                   dict(kind=UBG, n=2, b_diag=b, g_eigs=(q1, F13.one())),
                   dict(kind=UBFG, n=2, b_diag=b, f_eigs=b,
                        g_eigs=(F13.one(), QI().one())),
                   dict(kind=UBU, n=2, b_diag=b, u_coords=(q1, q1))):
        with pytest.raises(MixedFields):
            FamilySpec(**kwargs)


def test_scaled_spec_applies_to_kind_ubfg_only():
    b = f13s(1, 2)
    for spec in (FamilySpec(UB, 2, b), FamilySpec(UBG, 2, b, g_eigs=b),
                 FamilySpec(UBU, 2, b, u_coords=b)):
        with pytest.raises(SpecMismatch, match="applies to kind Ubfg"):
            scaled_spec(spec, F13.one(), F13.zero())


def test_each_builder_takes_only_its_own_kind():
    b = f13s(1, 2)
    specs = {UB: FamilySpec(UB, 2, b), UBG: FamilySpec(UBG, 2, b, g_eigs=b),
             UBFG: FamilySpec(UBFG, 2, b, f_eigs=b, g_eigs=b),
             UBU: FamilySpec(UBU, 2, b, u_coords=b)}
    builders = {UB: build_Ub, UBG: build_Ubg, UBFG: build_Ubfg,
                UBU: build_Ubu}
    for kind, builder in builders.items():
        for other, spec in specs.items():
            if other != kind:
                with pytest.raises(SpecMismatch, match=f"needs kind {kind}"):
                    builder(spec)
    with pytest.raises(SpecMismatch, match="applies to kind Ubfg"):
        scaling_isomorphism(specs[UBG], F13.one(), F13.one())


def test_build_dispatch():
    spec = FamilySpec(UB, 2, f13s(1, 1))
    assert build(spec) == build_Ub(spec)


def test_scaling_isomorphism_passes_verify_hom():
    for n, b, f, g in [(1, (3,), (2,), (5,)),
                       (2, (1, 2), (3, 4), (5, 6))]:
        spec = FamilySpec(UBFG, n, f13s(*b), f_eigs=f13s(*f),
                          g_eigs=f13s(*g))
        for alpha, beta in [(1, 0), (1, 5), (4, 7)]:
            m = scaling_isomorphism(spec, F13.from_int(alpha),
                                    F13.from_int(beta))
            src = build_Ubfg(spec)
            dst = build_Ubfg(scaled_spec(spec, F13.from_int(alpha),
                                         F13.from_int(beta)))
            assert verify_hom(src, dst, m)


def test_scaling_isomorphism_rejects_zero_alpha():
    spec = FamilySpec(UBFG, 1, f13s(1), f_eigs=f13s(1), g_eigs=f13s(1))
    with pytest.raises(SpecMismatch):
        scaling_isomorphism(spec, F13.zero(), F13.one())


def test_family_iso_requires_closed_field_assertion():
    s = FamilySpec(UB, 2, f13s(1, 1))
    with pytest.raises(UnsupportedField):
        family_iso_test(s, s)
    assert family_iso_test(s, s, assume_closed=True)


@pytest.mark.parametrize("kind, g", [(UB, None), (UBG, (1, 1)),
                                     (UBG, (0, 1))])
def test_family_iso_test_refuses_two_fields(kind, g):
    # one g eigenvalue, or none, answered True by accident; two distinct
    # ones raised MixedFields from inside the affine match
    def spec(field):
        elems = tuple(field.from_int(v) for v in (1, 1))
        return FamilySpec(kind, 2, elems, g_eigs=g and tuple(
            field.from_int(v) for v in g))
    with pytest.raises(MixedFields):
        family_iso_test(spec(F13), spec(QQ()), assume_closed=True)


def test_ubg_iso_is_affine_match():
    Q = QQ()

    def qs(*vals):
        return tuple(Q.from_int(v) for v in vals)

    s1 = FamilySpec(UBG, 3, qs(1, 1, 1), g_eigs=qs(0, 1, 2))
    s2 = FamilySpec(UBG, 3, qs(1, 1, 1), g_eigs=qs(5, 7, 9))   # 2g + 5
    s3 = FamilySpec(UBG, 3, qs(1, 1, 1), g_eigs=qs(0, 1, 3))
    assert family_iso_test(s1, s2, assume_closed=True)
    assert not family_iso_test(s1, s3, assume_closed=True)


@pytest.mark.parametrize("f1, g1, f2, g2, expected", [
    ((0, 0), (0, 1), (0, 0), (2, 7), True),           # g2 = 2 g1 + 7
    ((0, 0, 0, 0), (0, 1, 3, 4), (0, 0, 0, 0), (0, 1, 5, 11), False),
    ((0, 0), (0, 1), (0, 3), (0, 1), False),
    ((0, 3), (0, 1), (0, 0), (0, 1), False),
])
def test_ubfg_iso_with_an_all_zero_f_matches_g_affinely(f1, g1, f2, g2,
                                                         expected):
    # f = 0 leaves mu^3 free over a closed field, so the g multisets need
    # only an affine match; an all-zero f never matches a nonzero one
    def spec(f, g):
        return FamilySpec(UBFG, len(f), f13s(*[1] * len(f)),
                          f_eigs=f13s(*f), g_eigs=f13s(*g))
    s1, s2 = spec(f1, g1), spec(f2, g2)
    assert family_iso_test(s1, s2, assume_closed=True) is expected
    if s1.n == 2:      # dim 5: the labels must say the same
        assert labels_equal(classify(build(s1)),
                            classify(build(s2))) is expected


def test_ubu_iso_is_isotropy_class():
    # q(u) = 0 vs q(u) != 0 over F13: 1*2^2 + 3*1^2 = 7 != 0;
    # 1*5^2 + 1*1^2 = 26 = 0
    iso = FamilySpec(UBU, 2, f13s(1, 1), u_coords=f13s(5, 1))
    aniso = FamilySpec(UBU, 2, f13s(1, 3), u_coords=f13s(2, 1))
    aniso2 = FamilySpec(UBU, 2, f13s(1, 1), u_coords=f13s(1, 1))
    assert not family_iso_test(iso, aniso, assume_closed=True)
    assert family_iso_test(aniso, aniso2, assume_closed=True)


# ---------------------------------------------------------------------------
# the paper's families against classify

def _elements(field):
    if field == F13:
        return st.integers(0, 12).map(F13.from_int)
    return st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: FieldElement(field, (Fraction(ab[0]), Fraction(ab[1]))))


@st.composite
def family_spec_pairs(draw):
    """Two specs of one kind of Ubg, Ubfg, Ubu and one n, over GF(13) or
    Q(i), whose algebras have dim <= 5.  Half of the second specs are the
    first with its eigen-indices permuted and, for Ubfg, scaled by
    scaled_spec (isomorphic data); the rest are drawn afresh."""
    field = draw(st.sampled_from([F13, QI()]))
    kind = draw(st.sampled_from([UBG, UBFG, UBU]))
    n = draw(st.integers(1, 2 if kind == UBFG else 3))
    elem = _elements(field)
    nonzero = elem.filter(lambda x: not x.is_zero())
    lists = st.lists(elem, min_size=n, max_size=n).map(tuple)

    def spec():
        b = draw(st.lists(nonzero, min_size=n, max_size=n).map(tuple))
        if kind == UBG:
            return FamilySpec(UBG, n, b, g_eigs=draw(lists))
        if kind == UBFG:
            return FamilySpec(UBFG, n, b, f_eigs=draw(lists),
                              g_eigs=draw(lists))
        u = draw(lists.filter(lambda t: any(not x.is_zero() for x in t)))
        return FamilySpec(UBU, n, b, u_coords=u)
    s1 = spec()
    if not draw(st.booleans()):
        return s1, spec()
    perm = draw(st.permutations(range(n)))

    def permuted(t):
        return None if t is None else tuple(t[i] for i in perm)
    s2 = FamilySpec(kind, n, permuted(s1.b_diag), permuted(s1.f_eigs),
                    permuted(s1.g_eigs), permuted(s1.u_coords))
    if kind == UBFG:
        s2 = scaled_spec(s2, draw(nonzero), draw(elem))
    return s1, s2


@settings(max_examples=200, deadline=None)
@given(family_spec_pairs())
def test_family_iso_test_agrees_with_classify(pair):
    # the paper's orbit conditions on the eigen-data decide isomorphism
    # over the algebraic closure; classify's labels are field-independent
    # data, so equal labels must say the same
    s1, s2 = pair
    assert family_iso_test(s1, s2, assume_closed=True) \
        == labels_equal(classify(build(s1)), classify(build(s2)))
