"""Canonical class tables: entry counts, templates, parameter orbits."""

import random

import pytest

from evoalg.algebra import upper_series
from evoalg.errors import DomainError, FieldLacksI, UnsupportedDim
from evoalg.fields import GF, QI, QQ
from evoalg.tables import (anharmonic_j, anharmonic_orbit, canonical_table,
                           find_entry, orbit_min)

F13 = GF(13)


def test_entry_counts():
    assert [len(canonical_table(d, F13)) for d in range(1, 6)] \
        == [1, 1, 2, 7, 36]


def test_unsupported_dim():
    with pytest.raises(UnsupportedDim):
        canonical_table(6, F13)
    with pytest.raises(UnsupportedDim):
        canonical_table(0, F13)


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


def test_find_entry_returns_each_table_entry():
    for d in range(1, 6):
        for entry in canonical_table(d, QI()):
            assert find_entry(*entry.key()) is entry
            # the type vector may come as a list, as AnnSeries holds it
            assert find_entry(d, list(entry.type_vector),
                              entry.variant) is entry
