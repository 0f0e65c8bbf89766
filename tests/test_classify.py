"""Canonical labels, classification, and witness isomorphisms."""

import collections
import importlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evoalg.algebra import EvolutionAlgebra
from evoalg.classify import (CanonicalLabel, Decomposed, classify,
                             labels_equal, normal_form, witness_isomorphism)
from evoalg.errors import (EvoalgError, MixedFields, NotNilpotent,
                           SqrtUnavailable, UnsupportedDim)
from evoalg.fields import GF, QI, QQ, FieldElement
from evoalg.linalg import Matrix
from evoalg.oracle import verify_hom
from evoalg.tables import ENTRIES, ClassEntry, canonical_table, find_entry

from helpers import (F13, gaussian_scalar, random_block_basis_change,
                     random_monomial_relabelling, random_nilpotent,
                     random_nilpotent_of_type)
from probes import Probe


def test_label_serialization():
    lab = CanonicalLabel(5, (1, 1, 3), 3, (F13.from_int(2),))
    assert lab.serialize() == "d5:[1,1,3]:v3(2)"
    lab0 = CanonicalLabel(4, (1, 1, 1, 1), 1)
    assert lab0.serialize() == "d4:[1,1,1,1]:v1"


def test_not_nilpotent_and_unsupported_dim():
    E = EvolutionAlgebra.from_ints([[1]], F13)
    with pytest.raises(NotNilpotent):
        classify(E)
    big = EvolutionAlgebra.from_ints([[0] * 6 for _ in range(6)], F13)
    with pytest.raises(UnsupportedDim):
        classify(big)
    small = EvolutionAlgebra.from_ints([[0]], F13)
    for pair in ((big, big), (small, big), (big, small)):
        with pytest.raises(UnsupportedDim):
            witness_isomorphism(*pair)


def test_chain_dim4_is_variant1():
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    lab = classify(EvolutionAlgebra.from_ints(rows, F13))
    assert lab.type_vector == (1, 1, 1, 1) and lab.variant == 1
    assert not lab.no_witness


def test_113_alpha_vs_one_minus_alpha():
    entry = find_entry(5, (1, 1, 3), 3)
    a = F13.from_int(4)
    E1 = classify(entry.template((a,), F13))
    E2 = classify(entry.template((F13.one() - a,), F13))
    assert labels_equal(E1, E2)
    assert E1.params == E2.params  # both reduced to the orbit minimum


def test_type_2111_always_decomposed():
    rng = random.Random(0)
    for _ in range(15):
        E = random_nilpotent_of_type([2, 1, 1, 1], rng)
        lab = classify(E)
        assert isinstance(lab, Decomposed)


def test_decomposed_serialization_sorted():
    # two disjoint chains of lengths 2 and 3
    rows = [[0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0]]
    lab = classify(EvolutionAlgebra.from_ints(rows, F13))
    assert isinstance(lab, Decomposed)
    assert lab.serialize() == "d2:[1,1]:v1 + d3:[1,1,1]:v1"


def test_parameter_free_labels_are_shared_across_algebras_and_fields():
    # every parameter-free table entry, in two relabellings over GF(13)
    # and two over Q where its template builds: equal labels are one
    # object, the one the table holds with its serialization
    classify_module = importlib.import_module("evoalg.classify")
    rng = random.Random(30)
    across = 0
    for entry in ENTRIES:
        if entry.param_arity:
            continue
        labels = []
        for field in (F13, QQ()):
            try:
                T = entry.template((), field)
            except EvoalgError:  # the template needs i
                continue
            labels += [(field, classify(random_monomial_relabelling(T, rng)))
                       for _ in range(2)]
        for (f1, l1), (f2, l2) in itertools.combinations(labels, 2):
            assert (l1 is l2) == (l1 == l2)
            across += f1 != f2 and l1 is l2
        for _, label in labels:
            key, held = classify_module._shared_label(
                label.dim, label.type_vector, label.variant, label.boundary,
                label.no_witness)
            assert held is label and key == label.serialize()
    assert across >= 40


def test_a_label_with_parameters_is_a_fresh_object():
    T = find_entry(5, (1, 1, 3), 3).template((F13.from_int(4),), F13)
    first, second = classify(T), classify(T)
    assert first.params and first == second and first is not second


def test_decomposed_labels_are_in_serialization_order():
    rng = random.Random(31)
    decomposed = 0
    for field in (F13, QQ()):
        for _ in range(300):
            try:
                out = classify(random_nilpotent(5, rng, field))
            except SqrtUnavailable:
                continue
            if isinstance(out, Decomposed):
                decomposed += 1
                ordered = sorted(out.labels, key=lambda l: l.serialize())
                assert all(a is b for a, b in zip(out.labels, ordered))
    assert decomposed >= 100


def test_classify_is_basis_change_invariant():
    rng = random.Random(1)
    checked = 0
    for d in range(2, 5):
        for entry in canonical_table(d, F13):
            E = entry.template((), F13)
            lab = classify(E)
            for _ in range(5):
                E2 = random_block_basis_change(E, rng)
                if E2 is None:
                    continue
                checked += 1
                assert labels_equal(lab, classify(E2))
    assert checked > 20


def test_sqrt_unavailable_for_unrepresentable_parameter():
    # adapted chain-family shape whose forced rescaling is sqrt(2),
    # a nonsquare mod 13, while the parameters are nonzero
    rows = [[0, 1, 1, 1, 0], [0, 0, 1, 2, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]
    with pytest.raises(SqrtUnavailable):
        classify(EvolutionAlgebra.from_ints(rows, F13))


def test_no_witness_flag_over_qi():
    # orbit-minimal representative differs from the drawn parameters and
    # reaching it needs sqrt(2), absent from Q(i): label still computed
    Qi = QI()
    entry = find_entry(5, (1, 1, 1, 2), 4)
    E = entry.template((Qi.from_int(2), Qi.from_int(3)), Qi)
    lab = classify(E)
    assert lab.variant == 4 and lab.no_witness
    assert str(lab.params[0]) == "1/2" and str(lab.params[1]) == "-3/8"


def test_1121_beta_zero_merges_into_v5():
    # the two-parameter entry with first parameter 0 lands in the
    # one-edge variant whenever the field supplies the needed root
    entry = find_entry(5, (1, 1, 2, 1), 6)
    lab = classify(entry.template((F13.zero(), F13.from_int(3)), F13))
    assert lab.variant == 5 and lab.params == (F13.from_int(2),)
    Qi = QI()
    lab2 = classify(entry.template((Qi.zero(), Qi.from_int(3)), Qi))
    assert lab2.variant == 5
    assert lab2.params == (-Qi.from_int(3) * Qi.i(),)


def test_labels_equal_orbit_semantics():
    e = find_entry(5, (1, 2, 2), 1)
    l1 = classify(e.template((F13.from_int(2),), F13))
    l2 = classify(e.template((F13.from_int(11),), F13))   # -2
    l3 = classify(e.template((F13.from_int(3),), F13))
    assert labels_equal(l1, l2)
    assert not labels_equal(l1, l3)


def test_witness_isomorphism_identity_and_cross():
    e1, e2 = canonical_table(3, F13)
    A = e1.template((), F13)
    B = e2.template((), F13)
    assert witness_isomorphism(A, B) is None   # the two dim-3 classes
    m = witness_isomorphism(A, A)
    assert verify_hom(A, A, m)


@pytest.mark.parametrize("field, lam2", [(GF(3), 2), (GF(7), 6), (QQ(), -1),
                                         (F13, 12), (QI(), -1)])
def test_template_needing_i_has_no_witness_without_i(field, lam2):
    # x^2 = u1 + u2 with q(u1 + u2) = 1 + lam2 = 0 gives the isotropic
    # class d4:[1,2,1]:v2, whose template needs a square root of -1: a
    # field without one labels it with no_witness instead of raising
    rows = [[0, 0, 0, 1], [0, 0, 0, lam2], [1, 1, 0, 0], [0, 0, 0, 0]]
    res = normal_form(EvolutionAlgebra.from_ints(rows, field))
    assert res.label.serialize() == "d4:[1,2,1]:v2"
    assert res.label.no_witness == (not field.has_i)
    assert (res.witness is None) == res.label.no_witness


@pytest.mark.parametrize("p, rows, expected", [
    (3, [[0, 1, 2, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 2, 0, 0],
         [0, 1, 0, 2, 0]], "d5:[1,2,2]:v6"),
    (7, [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 4], [5, 0, 0, 0, 0],
         [0, 5, 0, 4, 0]], "d5:[1,2,1,1]:v5"),
    (7, [[0, 0, 1, 0, 5], [0, 0, 5, 0, 4], [0, 0, 0, 0, 0], [3, 6, 0, 0, 0],
         [0, 0, 4, 0, 0]], "d5:[1,1,2,1]:v3"),
])
def test_isotropic_classes_are_labelled_without_i(p, rows, expected):
    # choosing the variant of these parameter-free classes needs no i;
    # only their witness does
    lab = classify(EvolutionAlgebra.from_ints(rows, GF(p)))
    assert lab.serialize() == expected and lab.no_witness


def _summands(label):
    return label.labels if isinstance(label, Decomposed) else [label]


def _assert_needs_i_means_no_witness(label):
    for lab in _summands(label):
        if find_entry(lab.dim, lab.type_vector, lab.variant).needs_i:
            assert lab.no_witness, lab


def _in_qi(x, Qi):
    return FieldElement(Qi, (x.value, Fraction(0)))


def _label_in_qi(label, Qi):
    if isinstance(label, Decomposed):
        return Decomposed([_label_in_qi(l, Qi) for l in label.labels])
    return CanonicalLabel(label.dim, label.type_vector, label.variant,
                          tuple(_in_qi(p, Qi) for p in label.params),
                          label.boundary, label.no_witness)


def test_labels_over_q_agree_with_q_i():
    # the same rows over Q and over Q(i) get equal labels, the Q
    # parameters read in Q(i); labels whose template needs i carry
    # no_witness over Q.  Boundary labels are left out: the [1,1,2,1]
    # choice between v5 and the boundary v6(0, g) tests squareness in
    # the ground field, so Q can read v6(0, g) where Q(i) reads v5(g i).
    Q, Qi = QQ(), QI()
    rng = random.Random(9)
    algebras = [random_nilpotent(rng.randrange(1, 6), rng, Q)
                for _ in range(300)]
    for tv, count in (([1, 1, 2, 1], 100), ([1, 2, 1], 20), ([1, 3, 1], 20),
                      ([1, 2, 2], 20), ([1, 2, 1, 1], 20)):
        algebras += [random_nilpotent_of_type(tv, rng, Q)
                     for _ in range(count)]
    compared = 0
    for E in algebras:
        try:
            label = classify(E)
        except SqrtUnavailable:
            continue
        _assert_needs_i_means_no_witness(label)
        if any(l.boundary for l in _summands(label)):
            continue
        rows = [[_in_qi(x, Qi) for x in r] for r in E.structure.rows]
        label_qi = classify(EvolutionAlgebra(E.dim, Matrix(rows, Qi, E.dim),
                                             Qi))
        assert labels_equal(label_qi, _label_in_qi(label, Qi)), \
            (label, label_qi)
        compared += 1
    assert compared >= 350


def test_labels_needing_i_have_no_witness_over_gf7():
    rng = random.Random(4)
    seen = 0
    for tv in ([1, 2, 1], [1, 3, 1], [1, 1, 2, 1], [1, 2, 2], [1, 2, 1, 1]):
        for _ in range(80):
            try:
                label = classify(random_nilpotent_of_type(tv, rng, GF(7)))
            except SqrtUnavailable:
                continue
            _assert_needs_i_means_no_witness(label)
            seen += any(find_entry(l.dim, l.type_vector, l.variant).needs_i
                        for l in _summands(label))
    assert seen >= 10


def test_witness_isomorphism_122_rescaled():
    e = find_entry(5, (1, 2, 2), 1)
    E1 = e.template((F13.from_int(2),), F13)
    E2 = e.template((F13.from_int(11),), F13)
    m = witness_isomorphism(E1, E2)
    assert m is not None and verify_hom(E1, E2, m)


def test_witness_isomorphism_sqrt_unavailable():
    # same label, but the only isomorphisms need sqrt(2) over F13
    e = find_entry(5, (1, 1, 3), 3)
    E1 = e.template((F13.from_int(2),), F13)
    E2 = e.template((F13.from_int(7),), F13)
    assert labels_equal(classify(E1), classify(E2))
    # the fallback samples this pair's space, so its miss proves nothing
    with pytest.raises(SqrtUnavailable, match="randomized search found "
                       "none, so an isomorphism may still exist"):
        witness_isomorphism(E1, E2)


def test_witness_isomorphism_says_a_decomposed_pair_gets_no_search():
    # two 2-chains side by side, relabelled: isomorphic by construction,
    # but a Decomposed label carries no witness
    E1 = EvolutionAlgebra.from_ints(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], F13)
    E2 = EvolutionAlgebra.from_ints(
        [[0, 0, 0, 0], [0, 0, 0, 2], [3, 0, 0, 0], [0, 0, 0, 0]], F13)
    assert isinstance(classify(E1), Decomposed)
    assert labels_equal(classify(E1), classify(E2))
    with pytest.raises(SqrtUnavailable, match="a Decomposed label carries "
                       "no witness and gets no search, so an isomorphism "
                       "may still exist"):
        witness_isomorphism(E1, E2)


def test_witness_isomorphism_says_no_search_runs_over_q():
    e = find_entry(5, (1, 1, 3), 3)
    Q = QQ()
    E1 = e.template((Q.from_int(2),), Q)
    E2 = e.template((Q.from_int(1) / Q.from_int(2),), Q)
    assert labels_equal(classify(E1), classify(E2))
    with pytest.raises(SqrtUnavailable, match=r"no search runs over Q, so "
                       "an isomorphism may still exist"):
        witness_isomorphism(E1, E2)


def test_witness_isomorphism_says_an_exhaustive_miss_is_conclusive():
    # x^2 + 2y^2 against x^2 + y^2 over GF(3): the discriminants differ by
    # the nonsquare 2, so the equal labels have no isomorphism over GF(3);
    # the block-patterned space has 3^7 = 2,187 matrices, all tested
    F3 = GF(3)
    star = EvolutionAlgebra.from_ints([[0, 0, 1], [0, 0, 2], [0, 0, 0]], F3)
    T = find_entry(3, (1, 2), 1).template((), F3)
    assert labels_equal(classify(star), classify(T))
    with pytest.raises(SqrtUnavailable, match=r"the exhaustive search "
                       r"found none, so no isomorphism exists over GF\(3\)"):
        witness_isomorphism(star, T)


def test_witness_isomorphism_fallback_is_fast_on_a_sampled_gf13_pair():
    # a d4:[1,1,1,1]:v2 no_witness pair whose block-patterned space is
    # 13^7: the fallback samples it rather than enumerating 6.3e7 matrices
    E = EvolutionAlgebra.from_ints(
        [[0, 0, 0, 0], [0, 0, 10, 8], [11, 0, 0, 0], [0, 0, 2, 0]], F13)
    G = EvolutionAlgebra.from_ints(
        [[0, 1, 2, 0], [0, 0, 10, 0], [0, 0, 0, 3], [0, 0, 0, 0]], F13)
    assert classify(E).no_witness and labels_equal(classify(E), classify(G))
    start = time.perf_counter()
    m = witness_isomorphism(E, G)
    assert time.perf_counter() - start < 5.0
    assert verify_hom(E, G, m)


def test_witness_isomorphism_fallback_tests_at_most_200000_matrices(
        monkeypatch):
    e = find_entry(5, (1, 1, 3), 3)
    E1 = e.template((F13.from_int(2),), F13)
    E2 = e.template((F13.from_int(7),), F13)
    # each matrix the fallback tests is one call of the realizes kernel;
    # the witness checks of classify, before it, are not counted
    probe = Probe(monkeypatch)
    probe.kernel("realizes")
    searches = probe.window(importlib.import_module("evoalg.classify"),
                            "_bounded_iso")
    with pytest.raises(SqrtUnavailable):
        witness_isomorphism(E1, E2)
    tests = sum(c.delta["realizes"] for c in searches)
    assert 0 < tests <= 200000


@pytest.mark.parametrize("field", [GF(5), F13, QI()])
def test_dim1_zero_algebra_is_its_own_template(field):
    # classify labels the 1x1 zero algebra in closed form; the table's
    # template for that label must be the same algebra
    E = EvolutionAlgebra.from_ints([[0]], field)
    T = find_entry(1, (1,), 1).template((), field)
    assert T == E
    res = normal_form(E)
    assert res.label == CanonicalLabel(1, (1,), 1)
    assert verify_hom(T, E, res.witness)


def test_random_classifications_have_valid_witnesses():
    rng = random.Random(2)
    # a separate stream keeps the sampled algebras those of seed 2
    grng = random.Random(3)
    done = 0
    while done < 40:
        E = random_nilpotent(rng.randrange(1, 6), rng)
        try:
            lab = classify(E)
        except SqrtUnavailable:
            continue
        done += 1
        res = normal_form(E)
        assert res.label == lab
        assert (res.witness is None) == (isinstance(lab, Decomposed)
                                         or lab.no_witness)
        if isinstance(lab, CanonicalLabel) and not lab.no_witness:
            entry = find_entry(lab.dim, lab.type_vector, lab.variant)
            T = entry.template(lab.params, F13)
            m = witness_isomorphism(T, E)
            assert m is not None and verify_hom(T, E, m)
            # neither side a template: E against a relabelled copy
            gE = random_monomial_relabelling(E, grng)
            glab = classify(gE)
            if isinstance(glab, CanonicalLabel) and not glab.no_witness:
                m = witness_isomorphism(E, gE)
                assert m is not None and verify_hom(E, gE, m)


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 5), field=st.sampled_from([GF(5), F13, QI()]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_relabelling_keeps_the_label_and_witnesses_verify(dim, field, seed):
    # a monomial relabelling is a change of natural basis, so both sides
    # get equal labels or raise the same error; every witness
    # normal_form returns realizes the template.  (no_witness
    # itself is not compared: it may differ between the two
    # presentations.)
    rng = random.Random(seed)
    E = random_nilpotent(dim, rng, field)
    G = random_monomial_relabelling(E, rng)
    outcomes = []
    for A in (E, G):
        try:
            res = normal_form(A)
        except EvoalgError as exc:
            outcomes.append(type(exc))
            continue
        label = res.label
        outcomes.append(label)
        if isinstance(label, Decomposed) or label.no_witness:
            assert res.witness is None
        else:
            entry = find_entry(label.dim, label.type_vector, label.variant)
            assert verify_hom(entry.template(label.params, field), A,
                              res.witness)
    first, second = outcomes
    if isinstance(first, type) or isinstance(second, type):
        assert first == second
    else:
        assert labels_equal(first, second)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_draws_and_their_relabellings_get_equal_labels(dim, seed):
    # entries and relabelling scalars a + bi with b often nonzero reach
    # paths over Q(i) that the integer draws, having no i part, never
    # take; only an EvoalgError may come out, and then on both sides
    rng = random.Random(seed)
    E = random_nilpotent(dim, rng, QI(), draw=gaussian_scalar)
    G = random_monomial_relabelling(E, rng, gaussian_scalar)
    outcomes = []
    for A in (E, G):
        try:
            outcomes.append(classify(A))
        except EvoalgError as exc:
            outcomes.append(type(exc))
    first, second = outcomes
    if isinstance(first, type) or isinstance(second, type):
        assert first == second
    else:
        assert labels_equal(first, second)


def _summand_reprs(*algebras):
    """The sorted label reprs of the algebras' summands, or the type of
    the first EvoalgError that classify raises."""
    try:
        return sorted(repr(lab) for A in algebras
                      for lab in _summands(classify(A)))
    except EvoalgError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(dims=st.sampled_from([(a, b) for a in range(1, 5)
                             for b in range(1, 6 - a)]),
       field=st.sampled_from([GF(3), F13, QQ(), QI()]),
       density=st.sampled_from([0.4, 0.7, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_direct_sum_gets_the_labels_of_its_summands(dims, field, density,
                                                      seed):
    # A + B on complementary index sets, each summand in its own order:
    # classify labels every summand as the algebra it is, so the sum's
    # summand labels are those of A and of B, or both sides raise alike
    rng = random.Random(seed)
    kw = {"draw": gaussian_scalar} if field == QI() else {}
    A, B = (random_nilpotent(d, rng, field, density, **kw) for d in dims)
    n = A.dim + B.dim
    at_a = sorted(rng.sample(range(n), A.dim))
    at_b = [i for i in range(n) if i not in at_a]
    rows = [[field.zero()] * n for _ in range(n)]
    for P, at in ((A, at_a), (B, at_b)):
        for i, k in enumerate(at):
            for j, l in enumerate(at):
                rows[k][l] = P.structure[i, j]
    S = EvolutionAlgebra(n, Matrix(rows, field, n), field)
    assert _summand_reprs(S) == _summand_reprs(A, B)


def _chain3(field):
    return find_entry(3, (1, 1, 1), 1).template((), field)


@pytest.mark.parametrize("fields", [(QQ(), QI()), (QI(), QQ()),
                                    (GF(5), GF(13))],
                         ids=["Q-Qi", "Qi-Q", "GF5-GF13"])
def test_witness_isomorphism_refuses_two_fields(fields):
    # the fields are compared before either side is classified, so
    # neither side's payloads meet the other's ops table
    E1, E2 = (_chain3(field) for field in fields)
    with pytest.raises(MixedFields):
        witness_isomorphism(E1, E2)


def test_witness_isomorphism_refuses_two_fields_with_different_labels():
    star = find_entry(3, (1, 2), 1).template((), F13)
    with pytest.raises(MixedFields):
        witness_isomorphism(_chain3(QQ()), star)


def test_the_normalizers_are_the_table_types():
    # one normalizer per type of the class tables (the one-dimensional
    # zero algebra's included), and none for a type without classes
    classify_module = importlib.import_module("evoalg.classify")
    assert set(classify_module._HANDLERS) \
        == {entry.type_vector for entry in ENTRIES}


def test_witness_isomorphism_normalizes_each_input_once(monkeypatch):
    classify_module = importlib.import_module("evoalg.classify")
    handled, _ = Probe(monkeypatch).candidates(classify_module._HANDLERS)
    e = find_entry(5, (1, 2, 2), 1)
    E1 = e.template((F13.from_int(2),), F13)
    E2 = e.template((F13.from_int(11),), F13)
    assert not classify(E1).no_witness and not classify(E2).no_witness
    handled.clear()
    m = witness_isomorphism(E1, E2)
    assert m is not None and verify_hom(E1, E2, m)
    calls = [c.args[1] for c in handled]
    assert calls == [(1, 2, 2), (1, 2, 2)]


def test_a_failing_composed_witness_is_a_fault_not_a_search(monkeypatch):
    # two witnessed labels compose to an isomorphism, so a composition
    # that fails verify_hom is reported, not searched around: here E2 is
    # given E1's witness, and the composition is the identity
    classify_module = importlib.import_module("evoalg.classify")
    e = find_entry(5, (1, 2, 2), 1)
    E1 = e.template((F13.from_int(2),), F13)
    E2 = e.template((F13.from_int(11),), F13)
    first = normal_form(E1)
    monkeypatch.setattr(classify_module, "normal_form", lambda E: first)
    probe = Probe(monkeypatch)
    probe.count(classify_module, "_bounded_iso")
    with pytest.raises(AssertionError, match="re-verification"):
        witness_isomorphism(E1, E2)
    assert probe.counts["_bounded_iso"] == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 109])
def test_cbrt_matches_brute_force_scan(p):
    # the smallest residue root, as a scan over 0..p-1 finds it; 109 - 1
    # = 4 * 27 takes several base-3 digits of the discrete logarithm
    cbrt = GF(p).ops.cbrt
    for a in range(p):
        scan = next((r for r in range(p) if r ** 3 % p == a), None)
        if scan is None:
            assert cbrt(a) is None
        else:
            assert cbrt(a) == scan


def test_cbrt_near_1e9_is_fast():
    start = time.monotonic()
    for p in (1000000007, 1000000009):    # p = 2 and p = 1 mod 3
        cbrt = GF(p).ops.cbrt
        # a primitive cube root of unity, or 1 when cubing is a bijection
        w = next(pow(g, (p - 1) // 3, p) for g in range(2, p)
                 if pow(g, (p - 1) // 3, p) != 1) if p % 3 == 1 else 1
        for a in range(2, 400):
            r = cbrt(a)
            if r is None:
                assert p % 3 == 1 and pow(a, (p - 1) // 3, p) != 1
                continue
            assert pow(r, 3, p) == a
            # the smallest of the roots r, rw, rw^2
            assert r == min(r, r * w % p, r * w * w % p)
    assert time.monotonic() - start < 5.0


def _rational(field, q):
    return q if field == QQ() else (q, Fraction(0))


@pytest.mark.parametrize("field", [QQ(), QI()])
@pytest.mark.parametrize("k", [
    Fraction(0), Fraction(-5, 7), Fraction(10 ** 30),
    Fraction(-(10 ** 200) + 7), Fraction(2 ** 160 + 1, 3 ** 101),
    Fraction(-1, 10 ** 50)], ids=["0", "-5/7", "1e30", "-1e200+7",
                                  "2^160+1/3^101", "-1/1e50"])
def test_cbrt_over_q_is_exact_at_any_size(field, k):
    cbrt = field.ops.cbrt
    assert cbrt(_rational(field, k ** 3)) == _rational(field, k)
    if k:
        # one off a cube, in the numerator or in the denominator
        for q in (k ** 3 + 1, k ** 3 / (k.denominator ** 3 + 1)):
            assert cbrt(_rational(field, q)) is None


@pytest.mark.parametrize("a4", [64 * 10 ** 18, 10 ** 90, 10 ** 600],
                         ids=["64e18", "1e90", "1e600"])
def test_chain_with_a_huge_cube_gets_a_witness_over_q(a4):
    # the normalizer needs the cube root of a4, a square; floats lost it
    # from about 10^45 on and overflowed at 10^600
    E = EvolutionAlgebra.from_ints(
        [[0, 1, 0, a4, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1], [0] * 5], QQ())
    res = normal_form(E)
    assert res.label.serialize() == "d5:[1,1,1,1,1]:v2"
    assert not res.label.no_witness and res.witness is not None
    T = find_entry(5, (1, 1, 1, 1, 1), 2).template((), QQ())
    assert verify_hom(T, E, res.witness)


def test_chain_family_v4_shifts_y3_before_x2():
    # x2's shift on s reads y3 there, so it must see y3 already shifted;
    # reading the unshifted y3 left this algebra without a witness
    E = EvolutionAlgebra.from_ints(
        [[0, 9, 5, 1, 0], [0, 0, 12, 10, 0], [0, 0, 0, 0, 0],
         [0, 0, 4, 0, 0], [8, 9, 12, 12, 0]], F13)
    res = normal_form(E)
    assert res.label.serialize() == "d5:[1,1,1,1,1]:v4(3,10)"
    assert not res.label.no_witness and res.witness is not None
    T = find_entry(5, (1, 1, 1, 1, 1), 4).template(res.label.params, F13)
    assert verify_hom(T, E, res.witness)


def test_series_and_basis_changes_skip_redundant_elimination(monkeypatch):
    # call counts, not timings: upper_series reads membership off the
    # structure rows without any elimination, classify inverts no matrix
    # (no change of natural basis, and the 2 x 2 coordinates of the
    # normalizers are closed forms), and the witness search runs exactly
    # one rank test per candidate basis, inside the realizes kernel
    classify_module = importlib.import_module("evoalg.classify")
    algebra = importlib.import_module("evoalg.algebra")
    probe = Probe(monkeypatch)
    counts = probe.counts
    # every elimination runs the rref kernel of its field's op table, and
    # every rank test the realizes kernel
    probe.kernel("rref")
    probe.kernel("realizes")
    inverted = []
    probe.count(importlib.import_module("evoalg.linalg"), "_inverse_rows",
                hook=lambda rows, ops: inverted.append(len(rows)))
    witness_searches = probe.window(classify_module, "_witness_basis")
    probe.candidates(classify_module._HANDLERS)

    rng = random.Random(5)
    for _ in range(60):
        E = random_nilpotent(5, rng)
        for A in (E, random_monomial_relabelling(E, rng)):
            counts["rref"] = 0
            series = algebra.upper_series(A)
            assert counts["rref"] == 0 and series.nilpotent
            try:
                classify(A)
            except SqrtUnavailable:
                pass
    assert inverted == []
    assert sum(c.delta["candidates"] for c in witness_searches) >= 20
    for c in witness_searches:
        assert c.delta["realizes"] == c.delta["candidates"]


def test_no_split_stage_runs_on_a_one_dimensional_annihilator(monkeypatch):
    # the one-dimensional annihilator lemma of algebra._natural_split: a
    # top-level input and a summand with dim ann = 1 run no split stage
    classify_module = importlib.import_module("evoalg.classify")
    zero_rows = importlib.import_module("evoalg.algebra")._zero_rows
    seen, staged = {"top": 0, "summand": 0}, []

    def watched(A, series=None):
        if len(zero_rows(A)) == 1:
            seen["top" if series is None else "summand"] += 1
    probe = Probe(monkeypatch)
    probe.count(classify_module, "_natural_split",
                hook=lambda A, *series: staged.append(len(zero_rows(A))))
    probe.count(classify_module, "_classify", hook=watched)
    rng = random.Random(27)
    for field in (F13, GF(3), QQ(), QI()):
        for _ in range(150):
            E = random_nilpotent(rng.randrange(1, 6), rng, field)
            try:
                classify(E)
            except SqrtUnavailable:
                pass
    assert seen["top"] >= 200 and seen["summand"] >= 20
    assert 1 not in staged and len(staged) >= 200


@pytest.fixture
def template_builds(monkeypatch):
    """Counts template builds (entry.template_rows, the one caller of
    entry.build) per (entry key, field, params), with the template cache
    emptied; returns the counts and the Calls of _witness_basis, whose
    deltas count the builds ("template_rows") and the candidates."""
    classify_module = importlib.import_module("evoalg.classify")
    monkeypatch.setattr(classify_module, "_TEMPLATE_ROWS", {})
    builds = collections.Counter()
    probe = Probe(monkeypatch)
    probe.count(ClassEntry, "template_rows",
                hook=lambda entry, params, field: builds.update(
                    [(entry.key(), field, tuple(params))]))
    probe.candidates(classify_module._HANDLERS)
    return builds, probe.window(classify_module, "_witness_basis")


def test_parameter_free_templates_are_built_once_per_field(template_builds):
    builds, searches = template_builds
    rng = random.Random(11)
    corpus = []
    for field in (F13, GF(5), QI()):
        for _ in range(40):
            E = random_nilpotent(rng.randrange(3, 6), rng, field)
            corpus += [E, random_monomial_relabelling(E, rng)]
    for _ in range(2):
        for E in corpus:
            try:
                normal_form(E)
            except SqrtUnavailable:
                pass
    free = {key: count for key, count in builds.items() if not key[2]}
    assert sum(builds.values()) >= 20 and len(searches) > sum(free.values())
    assert set(free.values()) == {1}


def test_witness_search_without_candidates_builds_no_template(
        template_builds):
    builds, searches = template_builds
    rng = random.Random(12)
    for _ in range(150):
        try:
            normal_form(random_nilpotent(5, rng, F13))
        except SqrtUnavailable:
            pass
    empty = [c.delta["template_rows"] for c in searches
             if c.delta["candidates"] == 0]
    assert len(empty) >= 5 and set(empty) == {0}
    assert any(c.delta["template_rows"] for c in searches)


def test_normalizers_builders_and_witness_search_build_no_field_element(
        monkeypatch):
    # the normalizers, their builders and the witness search compute on
    # payloads: no FieldElement is made inside a handler call, a builder
    # iteration or a _witness_basis call, and a classify result without
    # parameters makes none at all (parameters are wrapped once, to pick
    # their orbit representative)
    classify_module = importlib.import_module("evoalg.classify")
    rng = random.Random(21)
    algebras = []
    for _ in range(100):
        E = random_nilpotent(5, rng)
        algebras += [E, random_monomial_relabelling(E, rng)]

    probe = Probe(monkeypatch)
    probe.count(FieldElement, "__init__")
    handled, steps = probe.candidates(classify_module._HANDLERS)
    searches = probe.window(classify_module, "_witness_basis")

    free = 0
    for A in algebras:
        before = probe.counts["__init__"]
        try:
            label = classify(A)
        except SqrtUnavailable:
            continue
        if not any(l.params for l in _summands(label)):
            assert probe.counts["__init__"] == before, label
            free += 1
    windows = {"handler": [c.delta["__init__"] for c in handled],
               "builder": [d["__init__"] for d in steps],
               "search": [c.delta["__init__"] for c in searches]}
    for where, counts in windows.items():
        assert len(counts) >= 100 and set(counts) == {0}, where
    assert free >= 100
