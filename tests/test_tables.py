"""Canonical class tables: entry counts, templates, parameter orbits."""

import random

import pytest

from evoalg.algebra import EvolutionAlgebra, upper_series
from evoalg.classify import normal_form
from evoalg.errors import DomainError, FieldLacksI, UnsupportedDim
from evoalg.families import UB, UBFG, UBG, UBU, FamilySpec, build
from evoalg.fields import GF, QI, QQ
from evoalg.oracle import verify_hom
from evoalg.tables import (ENTRIES, anharmonic_j, anharmonic_orbit,
                           canonical_table, find_entry, orbit_min)

from helpers import random_monomial_relabelling

F13 = GF(13)


def test_entry_counts():
    assert [len(canonical_table(d, F13)) for d in range(1, 6)] \
        == [1, 1, 2, 7, 36]


def test_unsupported_dim():
    with pytest.raises(UnsupportedDim):
        canonical_table(6, F13)
    with pytest.raises(UnsupportedDim):
        canonical_table(0, F13)


def test_a_dimension_that_is_not_an_int_is_a_domain_error():
    with pytest.raises(DomainError, match="integer dimension"):
        canonical_table("5", F13)


def test_field_needs_i_for_dim4():
    with pytest.raises(FieldLacksI):
        canonical_table(4, QQ())
    with pytest.raises(FieldLacksI):
        canonical_table(4, GF(3))
    assert len(canonical_table(3, QQ())) == 2


def test_dim3_types():
    keys = {e.type_vector for e in canonical_table(3, F13)}
    assert keys == {(1, 2), (1, 1, 1)}


def test_dim5_131_has_two_entries():
    entries = [e for e in canonical_table(5, F13)
               if e.type_vector == (1, 3, 1)]
    assert len(entries) == 2


def sample_params(entry, field, rng):
    while True:
        params = tuple(field.from_int(rng.randrange(2, field.modulus))
                       for _ in range(entry.param_arity))
        if entry.param_ok(params):
            return params


def test_template_type_fidelity():
    rng = random.Random(0)
    for d in range(1, 6):
        for entry in canonical_table(d, F13):
            params = sample_params(entry, F13, rng)
            E = entry.template(params, F13)
            assert upper_series(E).type_vector == list(entry.type_vector)


def test_template_param_validation():
    entry = find_entry(5, (1, 1, 3), 3)
    with pytest.raises(DomainError):
        entry.template((), F13)                     # wrong arity
    with pytest.raises(DomainError):
        entry.template((F13.one(),), F13)           # alpha = 1 excluded
    with pytest.raises(DomainError):
        entry.template((F13.zero(),), F13)          # alpha = 0 excluded


def test_orbit_contains_input_and_is_equivalence():
    rng = random.Random(1)
    for d in range(1, 6):
        for entry in canonical_table(d, F13):
            params = sample_params(entry, F13, rng)
            orb = entry.param_orbit(params, F13)
            assert params in orb
            for other in orb:
                # symmetry: every member's orbit is the same set
                assert set(entry.param_orbit(other, F13)) == set(orb)


def test_orbit_min_is_canonical():
    entry = find_entry(5, (1, 1, 3), 3)
    for v in (2, 7, 12):
        assert orbit_min(entry, (F13.from_int(v),), F13) \
            == (F13.from_int(2),)


def test_anharmonic_orbit_over_q():
    Q = QQ()
    orb = {t[0] for t in anharmonic_orbit((Q.from_int(2),), Q)}
    half = Q.one() / Q.from_int(2)
    assert orb == {Q.from_int(2), half, Q.from_int(-1)}


def test_anharmonic_j_on_f13_orbits():
    # frozen from direct evaluation: j = (a^2-a+1)^3 / (a^2 (a-1)^2)
    expected = {(2, 7, 12): 10, (4, 10): 0, (3, 5, 6, 8, 9, 11): 7}
    for orbit, j in expected.items():
        for a in orbit:
            assert anharmonic_j(F13.from_int(a)) == F13.from_int(j)


def test_needs_i_entries_refuse_q():
    entry = find_entry(4, (1, 2, 1), 2)
    assert entry.needs_i
    with pytest.raises(FieldLacksI):
        entry.template((), QQ())
    entry.template((), QI())  # fine


def test_find_entry_missing():
    with pytest.raises(DomainError):
        find_entry(4, (1, 2, 1), 9)
    with pytest.raises(DomainError):
        find_entry(6, (1, 5), 1)
    with pytest.raises(DomainError):
        find_entry(4, (1, 2, 1), [1])   # an unhashable variant


def test_find_entry_refuses_a_type_vector_that_is_not_iterable():
    with pytest.raises(DomainError, match="no table entry"):
        find_entry("a", None, 1)


def test_find_entry_returns_each_table_entry():
    for d in range(1, 6):
        for entry in canonical_table(d, QI()):
            assert find_entry(*entry.key()) is entry
            # the type vector may come as a list, as AnnSeries holds it
            assert find_entry(d, list(entry.type_vector),
                              entry.variant) is entry


# The family-type templates as members of the paper's families with b = 1:
# key -> (kind, n, f, g, u), where "i" is the square root of -1 and "a",
# "b" are the entry's first and second parameters.
FAMILY_MEMBERS = {
    (2, (1, 1), 1): (UB, 1, None, None, None),
    (3, (1, 2), 1): (UB, 2, None, None, None),
    (4, (1, 3), 1): (UB, 3, None, None, None),
    (5, (1, 4), 1): (UB, 4, None, None, None),
    (3, (1, 1, 1), 1): (UBG, 1, None, (0,), None),
    (4, (1, 1, 2), 1): (UBG, 2, None, (0, 0), None),
    (4, (1, 1, 2), 2): (UBG, 2, None, (0, 1), None),
    (5, (1, 1, 3), 1): (UBG, 3, None, (0, 0, 0), None),
    (5, (1, 1, 3), 2): (UBG, 3, None, (0, 0, 1), None),
    (5, (1, 1, 3), 3): (UBG, 3, None, ("a", 0, 1), None),
    (4, (1, 1, 1, 1), 1): (UBFG, 1, (0,), (0,), None),
    (4, (1, 1, 1, 1), 2): (UBFG, 1, (1,), (0,), None),
    (5, (1, 1, 1, 2), 1): (UBFG, 2, (0, 0), (0, 0), None),
    (5, (1, 1, 1, 2), 2): (UBFG, 2, (0, 0), (1, 0), None),
    (5, (1, 1, 1, 2), 3): (UBFG, 2, (1, 0), ("a", 0), None),
    (5, (1, 1, 1, 2), 4): (UBFG, 2, (1, "a"), ("b", 0), None),
    (4, (1, 2, 1), 1): (UBU, 2, None, None, (1, 0)),
    (4, (1, 2, 1), 2): (UBU, 2, None, None, (1, "i")),
    (5, (1, 3, 1), 1): (UBU, 3, None, None, (1, 0, 0)),
    (5, (1, 3, 1), 2): (UBU, 3, None, None, (1, "i", 0)),
}
# the 5-chain is the tower over one u with three zero eigenvalue lists,
# one more than the families carry
CHAIN_5 = (5, (1, 1, 1, 1, 1), 1)

SIX_FIELDS = (GF(3), GF(5), GF(13), GF(1000033), QQ(), QI())


def _sample(entry, field, rng):
    while True:
        params = []
        for _ in range(entry.param_arity):
            x = field.from_int(rng.randrange(2, 50))
            if field.has_i and rng.random() < 0.5:
                x = x + field.from_int(rng.randrange(1, 4)) * field.i()
            params.append(x)
        if entry.param_ok(tuple(params)):
            return tuple(params)


def _member(member, params, field):
    """families.build of member, a value of FAMILY_MEMBERS."""
    def elems(data):
        if data is None:
            return None
        return tuple(field.i() if x == "i" else
                     params["ab".index(x)] if isinstance(x, str) else
                     field.from_int(x) for x in data)
    kind, n, f, g, u = member
    return build(FamilySpec(kind, n, elems((1,) * n), elems(f), elems(g),
                            elems(u)))


# The templates whose tail below their top vectors is a family member
# with b = 1: key -> (number of top vectors, the member as in
# FAMILY_MEMBERS).
TOPPED_MEMBERS = {
    **{(5, (1, 2, 2), v): (2, (UB, 2, None, None, None))
       for v in range(1, 7)},
    **{(5, (1, 2, 1, 1), v): (1, (UBU, 2, None, None,
                                  (1, 0) if v <= 3 else (1, "i")))
       for v in range(1, 8)},
    **{(5, (1, 1, 2, 1), v): (1, (UBG, 2, None,
                                  (0, 0) if v <= 4 else (0, 1), None))
       for v in range(1, 7)},
    (5, (1, 1, 1, 1, 1), 2): (1, (UBFG, 1, (0,), (0,), None)),
    (5, (1, 1, 1, 1, 1), 3): (1, (UBFG, 1, (0,), (0,), None)),
    (5, (1, 1, 1, 1, 1), 4): (1, (UBFG, 1, (1,), (0,), None)),
}


def test_family_type_templates_are_family_members():
    # every template but the 5-chain and the fixed int rows is a family
    # member with b = 1 under its top vectors (none for the family types)
    chain_5 = [[int(j == k + 1) for j in range(5)] for k in range(5)]
    members = {**{key: (0, m) for key, m in FAMILY_MEMBERS.items()},
               **TOPPED_MEMBERS}
    entries = [e for e in ENTRIES
               if e.key() in members or e.key() == CHAIN_5]
    assert len(entries) == 43
    rng = random.Random(2)
    for field in SIX_FIELDS:
        for entry in entries:
            if entry.needs_i and not field.has_i:
                continue
            for _ in range(3 if entry.param_arity else 1):
                params = _sample(entry, field, rng)
                T = entry.template(params, field)
                if entry.key() == CHAIN_5:
                    assert T == EvolutionAlgebra.from_ints(chain_5, field)
                    continue
                tops, member = members[entry.key()]
                rows = T.structure.rows[tops:]
                assert all(x.is_zero() for r in rows for x in r[:tops])
                assert [r[tops:] for r in rows] \
                    == _member(member, params, field).structure.rows, \
                    (entry.key(), field, params)


def test_needs_i_is_an_imaginary_entry_over_qi():
    # with rational parameters, a template over Q(i) has an entry with
    # a nonzero imaginary part exactly when its entry needs i
    Qi = QI()
    rng = random.Random(4)
    for entry in ENTRIES:
        while True:
            params = tuple(Qi.from_int(rng.randrange(2, 50))
                           for _ in range(entry.param_arity))
            if entry.param_ok(params):
                break
        rows = entry.template(params, Qi).structure.rows
        assert entry.needs_i == any(x.value[1] != 0 for r in rows
                                    for x in r), entry.key()


V6 = (5, (1, 1, 2, 1), 6)


@pytest.mark.parametrize("field", [GF(3), GF(7), QQ()], ids=str)
def test_1121_v6_builds_without_i(field):
    # x^2 = beta y + z + gamma w, y^2 = w, z^2 = w + s, w^2 = s: no i
    entry = find_entry(*V6)
    assert not entry.needs_i
    beta, gamma = field.from_int(2), field.from_int(5)
    T = entry.template((beta, gamma), field)
    one, zero = field.one(), field.zero()
    assert T.structure.rows[0] == [zero, beta, one, gamma, zero]
    assert upper_series(T).type_vector == [1, 1, 2, 1]


def test_1121_v6_inputs_get_verified_witnesses_over_gf7():
    F7 = GF(7)
    entry = find_entry(*V6)
    rng = random.Random(5)
    witnessed = 0
    for _ in range(30):
        params = tuple(F7.from_int(rng.randrange(1, 30)) for _ in range(2))
        E = random_monomial_relabelling(entry.template(params, F7), rng)
        res = normal_form(E)
        if res.witness is None:
            continue
        label = res.label
        T = find_entry(label.dim, label.type_vector,
                       label.variant).template(label.params, F7)
        assert verify_hom(T, E, res.witness)
        witnessed += label.skeleton() == V6
    assert witnessed >= 10
