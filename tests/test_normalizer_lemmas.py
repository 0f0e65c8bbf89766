"""The lemmas that let the normalizers skip degenerate cases.

``classify._DiagForm`` states L1 and L2, ``_frame`` L3, ``_h_122`` L4
and ``_h_221`` L5: the forms the normalizers read are nondegenerate,
every complement they take is anisotropic, and the [2,2,1] builder's one
candidate always realizes its template.  These tests pin each lemma on
the form alone and on the forms that classify builds, and the closed
forms the [1,2,2] and [1,2,1,1] normalizers take for the coordinates of
a vector in an orthogonal or a hyperbolic basis of a plane.  The lemma
of ``_h_slopes`` (the paper's scaling of the families Ubg and Ubfg) is
pinned on the candidates its builder yields, and so are the line frame
that the [1,n,1], [1,2,2], [1,2,1,1] and [1,1,2,1] normalizers share,
the role builder of the [1,1,2,1] variants 5 and 6 and the tower of the
[1,1,1,1,1] variants 2, 3 and 4.
"""

import collections
import importlib
import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from evoalg.classify import CanonicalLabel, _DiagForm, classify
from evoalg.errors import EvoalgError, SqrtUnavailable
from evoalg.families import UBFG, UBG, UBU, FamilySpec, build
from evoalg.fields import GF, QI, QQ, FieldElement
from evoalg.linalg import _kernel_rows
from evoalg.tables import ENTRIES, find_entry

from helpers import random_monomial_relabelling, random_nilpotent_of_type
from probes import Probe

_FRACTION = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
FIELDS = [(GF(5), st.integers(0, 4)), (GF(13), st.integers(0, 12)),
          (GF(1000033), st.integers(0, 1000032)), (QQ(), _FRACTION),
          (QI(), st.tuples(_FRACTION, _FRACTION))]


@st.composite
def forms_and_vectors(draw, dims=(2, 3)):
    """A _DiagForm with a nonzero diagonal of a length in dims, a nonzero
    vector a and any vector v; half of the time the first diagonal entry
    is chosen to make a isotropic, which every field allows once a_0 and
    the rest of q(a) are nonzero."""
    field, payload = draw(st.sampled_from(FIELDS))
    ops = field.ops
    Z = ops.zero
    nonzero = payload.filter(lambda x: x != Z)
    m = draw(st.sampled_from(dims))
    diag = [draw(nonzero) for _ in range(m)]
    a = [draw(payload) for _ in range(m)]
    assume(any(x != Z for x in a))
    rest = _DiagForm(ops, diag[1:]).q(a[1:])
    if draw(st.booleans()) and a[0] != Z and rest != Z:
        diag[0] = ops.neg(ops.div(rest, ops.mul(a[0], a[0])))
    return _DiagForm(ops, diag), a, [draw(payload) for _ in range(m)]


def _orthogonal_and_anisotropic(form, comp, against):
    Z = form.ops.zero
    assert all(form.q(w) != Z for w in comp)
    assert all(form.b(w, v) == Z for w in comp for v in against)
    assert all(form.b(u, v) == Z for u, v in itertools.combinations(comp, 2))


@settings(max_examples=400)
@given(forms_and_vectors())
def test_a_nondegenerate_form_splits_off_lines_and_planes(form_and_a):
    # L1 and L2 on the form alone: a complement of an anisotropic line or
    # of a hyperbolic plane has an orthogonal, anisotropic basis, and an
    # isotropic a != 0 has an isotropic partner
    form, a, _ = form_and_a
    Z, m = form.ops.zero, len(form.diag)
    if form.q(a) != Z:
        comp = form.orth_complement_basis([a])
        assert len(comp) == m - 1
        _orthogonal_and_anisotropic(form, comp, [a])
        return
    d, h = form.hyperbolic_partner(a)
    assert form.q(d) == Z and h == form.b(a, d) != Z
    comp = form.orth_complement_basis([a, d])
    assert len(comp) == m - 2
    _orthogonal_and_anisotropic(form, comp, [a, d])


@settings(max_examples=400)
@given(forms_and_vectors(dims=(2,)))
def test_plane_coordinates_are_closed_forms(form_a_v):
    # in the orthogonal basis a, w0 of the plane (a anisotropic, w0 its
    # complement) v has the coordinates b(v, a)/q(a) and b(v, w0)/q(w0);
    # in the hyperbolic basis a, d' (a isotropic, (d', h) its partner)
    # they are b(v, d')/h and b(v, a)/h.  The complement of a is the
    # closed form of the reduced kernel vector of (a_0 d_0, a_1 d_1)
    form, a, v = form_a_v
    ops = form.ops
    div = ops.div
    c = [ops.mul(x, d) for x, d in zip(a, form.diag)]
    assert form.orth_complement_basis([a]) == _kernel_rows([c], 2, ops)[0]
    qa = form.q(a)
    if qa != ops.zero:
        (w0,) = form.orth_complement_basis([a])
        basis = [a, w0]
        coords = [div(form.b(v, a), qa), div(form.b(v, w0), form.q(w0))]
    else:
        d, h = form.hyperbolic_partner(a)
        basis = [a, d]
        coords = [div(form.b(v, d), h), div(form.b(v, a), h)]
    assert ops.combine(coords, basis, 2) == v


_FORM_TYPES = ([1, 2, 1], [1, 3, 1], [1, 2, 2], [1, 2, 1, 1], [1, 1, 2, 1])


def _moved_templates(types, rng, samples=3):
    """Over each field of FIELDS, the template of every table entry of
    the given types, with random parameters in its domain, in a random
    monomial relabelling."""
    for field, _ in FIELDS:
        for entry in ENTRIES:
            if list(entry.type_vector) not in types:
                continue
            for _ in range(samples):
                params = tuple(field.from_int(rng.randrange(1, 30))
                               for _ in range(entry.param_arity))
                try:
                    T = entry.template(params, field)
                except EvoalgError:  # outside the domain, or needs i
                    continue
                yield random_monomial_relabelling(T, rng)


def test_the_forms_classify_reads_are_nondegenerate(monkeypatch):
    # L1-L3 on the forms the [1,n,1], [1,2,2], [1,2,1,1] and [1,1,2,1]
    # normalizers build: a nonzero diagonal of length at most 3, nonzero
    # arguments, anisotropic complements, and at most one complement
    # direction beside a hyperbolic plane (only _frame takes one, for
    # [1,3,1])
    classify_module = importlib.import_module("evoalg.classify")
    seen = collections.Counter()

    class Checked(_DiagForm):
        def __init__(self, ops, diag):
            super().__init__(ops, diag)
            assert len(self.diag) <= 3
            assert all(d != ops.zero for d in self.diag)
            seen["forms"] += 1

        def orth_complement_basis(self, vecs):
            Z = self.ops.zero
            assert all(any(x != Z for x in v) for v in vecs)
            comp = super().orth_complement_basis(vecs)
            assert len(comp) == len(self.diag) - len(vecs)
            _orthogonal_and_anisotropic(self, comp, vecs)
            if len(vecs) == 2:
                assert len(comp) <= 1
                seen["plane", len(self.diag)] += 1
            return comp

        def hyperbolic_partner(self, a):
            Z = self.ops.zero
            assert any(x != Z for x in a) and self.q(a) == Z
            d, h = super().hyperbolic_partner(a)
            assert self.q(d) == Z and h == self.b(a, d) != Z
            seen["partners"] += 1
            return d, h

    monkeypatch.setattr(classify_module, "_DiagForm", Checked)
    rng = random.Random(16)
    for tv in _FORM_TYPES:
        for field, _ in FIELDS:
            for _ in range(40):
                try:
                    classify(random_nilpotent_of_type(tv, rng, field))
                except SqrtUnavailable:
                    pass
    # random draws are rarely isotropic; the templates of every variant,
    # moved off their normal form, reach each branch
    for T in _moved_templates(_FORM_TYPES, rng):
        try:
            classify(T)
        except SqrtUnavailable:
            pass
    assert seen["forms"] >= 500 and seen["partners"] >= 100
    # the isotropic branch of _frame with a complement line and without
    assert seen["plane", 2] >= 5 and seen["plane", 3] >= 5


def test_the_221_builder_has_one_candidate_and_it_realizes(monkeypatch):
    # L5: an unsplit [2,2,1] algebra gets its witness from the first
    # candidate, so one call of the realizes kernel per witness search,
    # and never no_witness
    probe = Probe(monkeypatch)
    calls = probe.counts
    probe.count(importlib.import_module("evoalg.classify"), "_witness_basis")
    probe.kernel("realizes")
    rng = random.Random(221)
    inputs = [random_nilpotent_of_type([2, 2, 1], rng, field)
              for field, _ in FIELDS for _ in range(150)]
    inputs += _moved_templates([[2, 2, 1]], rng)
    unsplit = 0
    for E in inputs:
        calls.clear()
        label = classify(E)
        if not isinstance(label, CanonicalLabel):
            continue
        unsplit += 1
        assert label.type_vector == (2, 2, 1) and not label.no_witness
        assert calls["_witness_basis"] == calls["realizes"] == 1
    assert unsplit >= 120


@st.composite
def slope_families(draw):
    """A Ubg algebra of type [1,1,2] or [1,1,3] or a Ubfg algebra of type
    [1,1,1,1] or [1,1,1,2] over GF(13), GF(1000033) or Q(i), in a random
    monomial relabelling; its f and g entries are often zero or equal."""
    field, payload = draw(st.sampled_from([FIELDS[1], FIELDS[2], FIELDS[4]]))
    ops = field.ops
    value = st.one_of(st.integers(-2, 2).map(ops.of_int), payload)
    kind, n = draw(st.sampled_from([(UBG, 2), (UBG, 3), (UBFG, 1),
                                    (UBFG, 2)]))

    def values(strategy):
        return tuple(FieldElement(field, draw(strategy)) for _ in range(n))
    b = values(value.filter(lambda x: x != ops.zero))
    spec = FamilySpec(kind, n, b, values(value) if kind == UBFG else None,
                      values(value))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return random_monomial_relabelling(build(spec), rng)


@settings(max_examples=200, deadline=None)
@given(slope_families())
def test_the_slope_candidates_of_one_order_all_realize(E):
    # the lemma of _h_slopes: an order of the u_k that fits the template
    # fixes alpha, and signs do not change squares, so realizes gives
    # one verdict on all the candidates of one order (the first realizing
    # candidate does not depend on root signs), and that verdict is True
    classify_module = importlib.import_module("evoalg.classify")
    original = classify_module._witness_basis
    verdicts = collections.defaultdict(set)

    def record(Ead, entry, params, builder):
        if entry.variant != 1:  # variant 1 is the powers of u_1
            field = Ead.field
            m = entry.type_vector[-1]
            rows = classify_module._template_rows(entry, params, field)
            for cols in builder(Ead, field.payloads(params)):
                order = tuple(next(k for k, x in enumerate(v)
                                   if x != field.ops.zero)
                              for v in cols[:m])
                verdicts[order].add(field.ops.realizes(rows, Ead._rows, cols))
        return original(Ead, entry, params, builder)

    with mock.patch.object(classify_module, "_witness_basis", record):
        label = classify(E)
    assert isinstance(label, CanonicalLabel)
    assert all(v == {True} for v in verdicts.values())
    if label.variant != 1:
        assert label.no_witness == (not verdicts)


@st.composite
def anisotropic_ubu(draw):
    """A Ubu algebra of type [1,n,1], n = 2 or 3, whose u is anisotropic
    (sum b_i u_i^2 != 0), over GF(5), GF(13), GF(1000033), Q or Q(i), in a
    random monomial relabelling."""
    field, payload = draw(st.sampled_from(FIELDS))
    ops = field.ops
    n = draw(st.sampled_from([2, 3]))
    b = [draw(payload.filter(lambda x: x != ops.zero)) for _ in range(n)]
    u = [draw(payload) for _ in range(n)]
    assume(ops.dot(b, [ops.mul(x, x) for x in u]) != ops.zero)
    spec = FamilySpec(UBU, n, tuple(FieldElement(field, x) for x in b),
                      u_coords=tuple(FieldElement(field, x) for x in u))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return random_monomial_relabelling(build(spec), rng)


@settings(max_examples=200, deadline=None)
@given(anisotropic_ubu())
def test_every_line_frame_candidate_realizes(E):
    # the line frame of x: x, x^2, the complement of a scaled to q(a)
    # and the squares of x^2.  The complement is orthogonal to a and
    # each scaled member squares to q(a) s, like x^2, so every choice of
    # the scalings' signs realizes the [1,n,1] variant-1 template
    classify_module = importlib.import_module("evoalg.classify")
    original = classify_module._line_frame
    frames = []

    def recorded(Ead, *args):
        cols = list(original(Ead, *args))
        frames.append((Ead, cols))
        yield from cols

    with mock.patch.object(classify_module, "_line_frame", recorded):
        label = classify(E)
    n = E.dim - 2
    assert label.skeleton() == (n + 2, (1, n, 1), 1)
    assert len(frames) == 1
    Ead, candidates = frames[0]
    entry = find_entry(n + 2, (1, n, 1), 1)
    rows = classify_module._template_rows(entry, (), E.field)
    for cols in candidates:
        assert E.field.ops.realizes(rows, Ead._rows, cols)
    assert label.no_witness == (not candidates)


def _classify_with_verdicts(E):
    """The label of E, and whether each candidate that the builder
    ``_normalize`` hands to ``_witness_basis`` yields realizes the label's
    template (in adapted coordinates)."""
    classify_module = importlib.import_module("evoalg.classify")
    original = classify_module._witness_basis
    verdicts = []

    def record(Ead, entry, params, builder):
        field = Ead.field
        rows = classify_module._template_rows(entry, params, field)
        for cols in builder(Ead, field.payloads(params)):
            verdicts.append(field.ops.realizes(rows, Ead._rows, cols))
        return original(Ead, entry, params, builder)

    with mock.patch.object(classify_module, "_witness_basis", record):
        return classify(E), verdicts


def _relabelled_draws(tv, rng, count):
    """count random algebras of type tv over each field of FIELDS, each in
    a random monomial relabelling."""
    for field, _ in FIELDS:
        for _ in range(count):
            E = random_nilpotent_of_type(tv, rng, field)
            yield random_monomial_relabelling(E, rng)


def test_every_tower_candidate_realizes():
    # the tower of _h_11111: y3 is shifted on s before x2, whose relation
    # x1^2 = x2 + k3 y3 + k4 y4 reads y3 there, so every candidate of the
    # variants 2, 3 and 4 realizes the template, and no_witness is set
    # exactly when the needed roots are missing
    rng = random.Random(11111)
    seen = collections.Counter()
    for E in _relabelled_draws([1, 1, 1, 1, 1], rng, 60):
        try:
            label, verdicts = _classify_with_verdicts(E)
        except SqrtUnavailable:
            continue
        assert label.type_vector == (1, 1, 1, 1, 1)
        assert all(verdicts)
        assert label.no_witness == (not verdicts)
        seen[label.variant, label.no_witness] += 1
    assert seen[4, False] >= 15 and seen[4, True] >= 20
    assert seen[3, False] >= 5 and seen[2, False] >= 5


def test_every_1121_role_candidate_realizes():
    # the one builder of _h_1121's variants 5 and 6 (delta != 0): the tail
    # of the template y line under x' = sx e_0, the coefficient-1 column
    # taking x'^2's s-leftover; every candidate realizes, the boundary
    # v6(0, gamma) included
    rng = random.Random(1121)
    inputs = list(_relabelled_draws([1, 1, 2, 1], rng, 40))
    inputs += _moved_templates([[1, 1, 2, 1]], rng)
    # the boundary needs a field without i, where v6(0, gamma) has no v5
    # form
    v6 = find_entry(5, (1, 1, 2, 1), 6)
    inputs += [random_monomial_relabelling(
        v6.template((field.zero(), field.from_int(g)), field), rng)
        for field in (QQ(), GF(7), GF(11)) for g in range(1, 5)]
    seen = collections.Counter()
    for E in inputs:
        try:
            label, verdicts = _classify_with_verdicts(E)
        except SqrtUnavailable:
            continue
        if label.variant not in (5, 6):
            continue
        assert all(verdicts)
        assert label.no_witness == (not verdicts)
        seen[label.variant, label.boundary, label.no_witness] += 1
    assert seen[5, False, False] >= 10 and seen[6, False, False] >= 10
    assert seen[6, True, False] >= 5
