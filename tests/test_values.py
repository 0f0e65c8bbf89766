"""The value classes: equality, hashing, immutability, copying, pickling
and repr, as each class behaved when it was a dataclass."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from evoalg.algebra import (AnnSeries, DecompVerdict, EvolutionAlgebra,
                            InvariantProfile, WeightedGraph,
                            decomposability_check, graph_of,
                            invariant_profile, upper_series)
from evoalg.classify import (CanonicalLabel, Classification, Decomposed,
                             classify, normal_form)
from evoalg.families import UBG, FamilySpec
from evoalg.fields import GF, PRIME, QI, QQ, FieldDescriptor, FieldElement
from evoalg.oracle import SearchBudget
from evoalg.tables import ClassEntry, canonical_table

F13 = GF(13)
CHAIN = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
# two chains of length 2 side by side: decomposable
SPLIT = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def alg(rows, field=F13):
    return EvolutionAlgebra.from_ints(rows, field)


def gauss(re, im):
    Qi = QI()
    return Qi.from_int(re) + Qi.from_int(im) * Qi.i()


# Each factory builds a fresh value; two calls give equal, distinct values.
FACTORIES = {
    "FieldDescriptor": lambda: FieldDescriptor(PRIME, 13),
    "FieldElement": lambda: gauss(1, 2),
    "AnnSeries": lambda: upper_series(alg(CHAIN)),
    "WeightedGraph": lambda: graph_of(alg(CHAIN, QQ())),
    "DecompVerdict": lambda: decomposability_check(alg(SPLIT)),
    "InvariantProfile": lambda: invariant_profile(alg(CHAIN)),
    "CanonicalLabel": lambda: CanonicalLabel(
        3, (1, 2), 2, (gauss(1, 2),), boundary=True),
    "Decomposed": lambda: classify(alg(SPLIT)),
    "Classification": lambda: normal_form(alg(CHAIN)),
    "FamilySpec": lambda: FamilySpec(
        UBG, 2, (F13.from_int(1), F13.from_int(2)),
        g_eigs=(F13.zero(), F13.from_int(5))),
    "SearchBudget": lambda: SearchBudget(10, seed=3),
    "ClassEntry": lambda: canonical_table(3, F13)[-1],
}
CLASSES = {
    "FieldDescriptor": FieldDescriptor, "FieldElement": FieldElement,
    "AnnSeries": AnnSeries,
    "WeightedGraph": WeightedGraph, "DecompVerdict": DecompVerdict,
    "InvariantProfile": InvariantProfile, "CanonicalLabel": CanonicalLabel,
    "Decomposed": Decomposed, "Classification": Classification,
    "FamilySpec": FamilySpec,
    "SearchBudget": SearchBudget, "ClassEntry": ClassEntry,
}
FROZEN = ("FieldDescriptor", "FieldElement", "CanonicalLabel", "FamilySpec",
          "SearchBudget", "ClassEntry")
MUTABLE = tuple(name for name in FACTORIES if name not in FROZEN)
# ClassEntry holds the closures that build its templates
PICKLABLE = tuple(name for name in FACTORIES if name != "ClassEntry")
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("name", FACTORIES)
def test_factories_build_their_class(name):
    assert type(FACTORIES[name]()) is CLASSES[name]


@pytest.mark.parametrize("name", FACTORIES)
def test_equality_by_fields_within_one_class(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    if name != "ClassEntry":      # the table hands out one entry object
        assert a is not b
    assert a == b and not a != b
    assert a != object() and a != ()


def test_equality_sees_every_field():
    label = FACTORIES["CanonicalLabel"]()
    assert label != CanonicalLabel(3, (1, 2), 2, (gauss(1, 2),))
    assert SearchBudget() != SearchBudget(seed=1)
    assert FieldDescriptor(PRIME, 13) != FieldDescriptor(PRIME, 5)
    assert AnnSeries() != AnnSeries(nilpotent=True)
    assert Decomposed() == Decomposed([]) != Decomposed([label])
    chain = FACTORIES["Classification"]()
    assert chain != Classification(chain.label, None)
    assert chain != Classification(label, chain.witness)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_frozen_values_hash_alike(name):
    a, b = FACTORIES[name](), copy.copy(FACTORIES[name]())
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_values_are_unhashable(name):
    value = FACTORIES[name]()
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    value = FACTORIES[name]()
    field = {"FieldDescriptor": "kind", "FieldElement": "value",
             "CanonicalLabel": "params",
             "FamilySpec": "b_diag", "SearchBudget": "seed",
             "ClassEntry": "build"}[name]
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError,
                       match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError,
                       match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.not_a_field = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_fields_accept_assignment(name):
    value = FACTORIES[name]()
    field = {"AnnSeries": "nilpotent", "WeightedGraph": "edges",
             "DecompVerdict": "witness", "InvariantProfile": "dim_sq_cap_u3",
             "Decomposed": "labels", "Classification": "witness"}[name]
    setattr(value, field, None)
    assert getattr(value, field) is None
    assert value != FACTORIES[name]()


@pytest.mark.parametrize("name", FACTORIES)
def test_copies_are_equal(name):
    value = FACTORIES[name]()
    for dup in (copy.copy(value), copy.deepcopy(value)):
        assert type(dup) is type(value) and dup == value


def test_deepcopy_does_not_share_mutable_fields():
    series = FACTORIES["AnnSeries"]()
    dup = copy.deepcopy(series)
    dup.type_vector.append(9)
    assert series.type_vector == [1, 1, 1]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", PICKLABLE)
def test_pickle_round_trips(name, protocol):
    value = FACTORIES[name]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value) and back == value


def test_descriptors_copy_and_unpickle_to_the_interned_one():
    for field, interned in ((FieldDescriptor(PRIME, 13), GF(13)),
                            (QQ(), QQ()), (QI(), QI())):
        assert copy.deepcopy(field) is interned
        for protocol in PROTOCOLS:
            assert pickle.loads(pickle.dumps(field, protocol)) is interned


def test_family_spec_still_validates():
    from evoalg.errors import SpecMismatch
    with pytest.raises(SpecMismatch):
        FamilySpec(UBG, 2, (F13.from_int(1), F13.from_int(2)))
    with pytest.raises(SpecMismatch):
        FamilySpec("nope", 1, (F13.one(),))


# The dataclass reprs, as the classes printed them before.
REPRS = {
    "FieldDescriptor": "FieldDescriptor(kind='GF', modulus=13)",
    "AnnSeries": (
        "AnnSeries(chain=[Subspace(dim 1 of 3 over GF(13)), "
        "Subspace(dim 2 of 3 over GF(13)), Subspace(dim 3 of 3 over GF(13))],"
        " blocks=[[2], [1], [0]], type_vector=[1, 1, 1], nilpotent=True)"),
    "WeightedGraph": (
        "WeightedGraph(vertex_count=3, edges=[(0, 1, <1 in Q>), "
        "(1, 2, <1 in Q>)])"),
    "DecompVerdict": (
        "DecompVerdict(status='Decomposable', reason='attached graph is "
        "disconnected', witness=(Subspace(dim 2 of 4 over GF(13)), "
        "Subspace(dim 2 of 4 over GF(13))))"),
    "InvariantProfile": (
        "InvariantProfile(type_vector=[1, 1, 1], dim_sq=2, "
        "dim_block_sq={2: 1, 3: 1}, dim_u3_sq_sq=1, u4_sq_in_u3=None, "
        "ann_in_sq=True, dim_sq_cap_u3=1)"),
    "CanonicalLabel": (
        "CanonicalLabel(dim=3, type_vector=(1, 2), variant=2, "
        "params=(<1+2*i in Q(i)>,), boundary=True, no_witness=False)"),
    "Decomposed": (
        "Decomposed(labels=[CanonicalLabel(dim=2, type_vector=(1, 1), "
        "variant=1, params=(), boundary=False, no_witness=False), "
        "CanonicalLabel(dim=2, type_vector=(1, 1), variant=1, params=(), "
        "boundary=False, no_witness=False)])"),
    "Classification": (
        "Classification(label=CanonicalLabel(dim=3, type_vector=(1, 1, 1), "
        "variant=1, params=(), boundary=False, no_witness=False), "
        "witness=Matrix(3x3 over GF(13)))"),
    "FamilySpec": (
        "FamilySpec(kind='Ubg', n=2, b_diag=(<1 in GF(13)>, <2 in GF(13)>),"
        " f_eigs=None, g_eigs=(<0 in GF(13)>, <5 in GF(13)>), "
        "u_coords=None)"),
    "SearchBudget": "SearchBudget(max_trials=10, seed=3)",
}


@pytest.mark.parametrize("name", REPRS)
def test_repr_matches_the_dataclass_format(name):
    assert repr(FACTORIES[name]()) == REPRS[name]


def test_repr_of_defaults_and_class_entries():
    assert repr(AnnSeries()) == ("AnnSeries(chain=[], blocks=[], "
                                 "type_vector=[], nilpotent=False)")
    assert repr(Decomposed()) == "Decomposed(labels=[])"
    assert repr(QQ()) == "FieldDescriptor(kind='Q', modulus=None)"
    assert repr(SearchBudget()) == "SearchBudget(max_trials=100000, seed=0)"
    text = repr(FACTORIES["ClassEntry"]())
    assert text.startswith("ClassEntry(dim=3, type_vector=(1, 1, 1), "
                           "variant=1, param_arity=0, build=<function ")
    assert ", param_ok=<function " in text
    assert text.endswith(", needs_i=False)")
