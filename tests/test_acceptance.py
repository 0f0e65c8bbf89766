"""End-to-end acceptance checks with explicit runtime budgets.

Each test pins one headline guarantee of the package: table fidelity,
classifier idempotence, the small-dimension census, parameter-orbit
behaviour in both directions, family scalings, decomposability,
annihilator-series structure, power-chain agreement, and basis-change
invariance of the canonical label.
"""

import random
import time

import pytest

from evoalg.algebra import (DECOMPOSABLE, PLENARY, RIGHT,
                            decomposability_check, invariant_profile,
                            is_ideal, power_nilpotency, relative_annihilator,
                            upper_series)
from evoalg.classify import (CanonicalLabel, Decomposed, classify,
                             labels_equal)
from evoalg.errors import SqrtUnavailable
from evoalg.fields import GF, PRIME, QI
from evoalg.linalg import Subspace
from evoalg.oracle import (SearchBudget, exhaustive_iso, randomized_iso,
                           verify_hom)
from evoalg.tables import anharmonic_j, canonical_table, find_entry

from helpers import (F13, random_algebra, random_block_basis_change,
                     random_large_annihilator, random_nilpotent,
                     random_nilpotent_of_type)

F3 = GF(3)


def sample_params(entry, field, rng):
    limit = field.modulus if field.kind == PRIME else 14
    while True:
        params = tuple(field.from_int(rng.randrange(2, limit))
                       for _ in range(entry.param_arity))
        if entry.param_ok(params):
            return params


def test_criterion_1_table_fidelity():
    start = time.monotonic()
    rng = random.Random(0)
    for d in range(4, 6):
        for entry in canonical_table(d, F13):
            E = entry.template(sample_params(entry, F13, rng), F13)
            assert upper_series(E).type_vector == list(entry.type_vector)
    # dim-4 distinguishing invariants, one per table row
    def profile(tv, variant):
        entry = find_entry(4, tv, variant)
        return invariant_profile(entry.template((), F13))

    assert profile((1, 2, 1), 1).dim_u3_sq_sq != 0
    assert profile((1, 2, 1), 2).dim_u3_sq_sq == 0
    assert profile((1, 1, 2), 1).dim_block_sq[3] == 1
    assert profile((1, 1, 2), 2).dim_block_sq[3] == 2
    assert profile((1, 1, 1, 1), 1).u4_sq_in_u3 is True
    assert profile((1, 1, 1, 1), 2).u4_sq_in_u3 is False
    assert time.monotonic() - start < 5.0


def test_criterion_2_classifier_idempotence():
    start = time.monotonic()
    rng = random.Random(1)
    for field in (F13, QI()):
        for d in range(1, 6):
            for entry in canonical_table(d, field):
                if entry.param_arity == 0:
                    continue
                for _ in range(50):
                    params = sample_params(entry, field, rng)
                    lab = classify(entry.template(params, field))
                    assert isinstance(lab, CanonicalLabel)
                    expected = CanonicalLabel(d, entry.type_vector,
                                              entry.variant, params)
                    assert labels_equal(lab, expected)
    assert time.monotonic() - start < 30.0


def test_criterion_3_low_dim_census():
    counts = [len(canonical_table(d, F13)) for d in range(1, 5)]
    assert counts == [1, 1, 2, 7]


def test_criterion_4_orbits_positive():
    start = time.monotonic()
    entry = find_entry(5, (1, 1, 3), 3)
    orbits = [(2, 7, 12), (4, 10), (3, 5, 6, 8, 9, 11)]
    labels = {a: classify(entry.template((F13.from_int(a),), F13))
              for a in range(2, 13)}
    for orbit in orbits:
        for a in orbit:
            for b in orbit:
                assert labels_equal(labels[a], labels[b])
    for o1 in orbits:
        for o2 in orbits:
            if o1 is not o2:
                assert not labels_equal(labels[o1[0]], labels[o2[0]])
    # the j-invariant separates the orbits exactly
    j_vals = []
    for orbit in orbits:
        js = {anharmonic_j(F13.from_int(a)) for a in orbit}
        assert len(js) == 1
        j_vals.append(js.pop())
    assert len(set(j_vals)) == 3
    assert j_vals == [F13.from_int(10), F13.zero(), F13.from_int(7)]
    # one concrete within-orbit witness per orbit
    budget = SearchBudget(max_trials=10 ** 6, seed=0)
    for a, b in [(2, 12), (4, 10), (3, 9)]:
        E1 = entry.template((F13.from_int(a),), F13)
        E2 = entry.template((F13.from_int(b),), F13)
        m = randomized_iso(E1, E2, budget)
        assert m is not None and verify_hom(E1, E2, m)
    assert time.monotonic() - start < 120.0


def test_criterion_5_orbits_negative_small_scale():
    start = time.monotonic()
    rng = random.Random(2)
    algebras = []
    for d in range(1, 5):
        for entry in canonical_table(d, F13):
            if entry.needs_i and not F3.has_i:
                continue
            algebras.append((entry, entry.template((), F3)))
    assert len(algebras) == 10
    for i, (e1, E1) in enumerate(algebras):
        for e2, E2 in algebras[i:]:
            m = exhaustive_iso(E1, E2)
            if e1 is e2:
                assert m is not None and verify_hom(E1, E2, m)
            else:
                assert m is None
    # same-label pairs beyond the identity case: natural rescalings
    for entry, E in algebras:
        E2 = random_block_basis_change(E, rng)
        if E2 is None:
            continue
        m = exhaustive_iso(E, E2)
        assert m is not None and verify_hom(E, E2, m)
    assert time.monotonic() - start < 600.0


def test_criterion_6_family_scalings():
    from evoalg.families import (UBFG, FamilySpec, build_Ubfg, scaled_spec,
                                 scaling_isomorphism)
    start = time.monotonic()
    for n, b, f, g in [(1, (2,), (3,), (4,)), (2, (1, 2), (3, 4), (5, 6))]:
        spec = FamilySpec(UBFG, n,
                          tuple(F13.from_int(v) for v in b),
                          f_eigs=tuple(F13.from_int(v) for v in f),
                          g_eigs=tuple(F13.from_int(v) for v in g))
        for alpha, beta in [(1, 0), (1, 5), (4, 7)]:
            a, bt = F13.from_int(alpha), F13.from_int(beta)
            m = scaling_isomorphism(spec, a, bt)
            assert verify_hom(build_Ubfg(spec),
                              build_Ubfg(scaled_spec(spec, a, bt)), m)
    assert time.monotonic() - start < 1.0


def test_criterion_7_decomposability():
    start = time.monotonic()
    rng = random.Random(3)
    for _ in range(100):
        E = random_nilpotent_of_type([2, 1, 1, 1], rng)
        assert isinstance(classify(E), Decomposed)
    for _ in range(100):
        E = random_large_annihilator(rng)
        verdict = decomposability_check(E)
        assert verdict.status == DECOMPOSABLE
        if verdict.witness is not None:
            i_part, j_part = verdict.witness
            assert i_part.intersect(j_part).is_zero()
            assert (i_part + j_part).dim == E.dim
            assert is_ideal(E, i_part) and is_ideal(E, j_part)
    assert time.monotonic() - start < 30.0


def _nilpotent_samples():
    rng = random.Random(4)
    return [random_nilpotent(rng.randrange(1, 6), rng) for _ in range(500)]


def test_criterion_8_relative_annihilator_blocks():
    for E in _nilpotent_samples():
        s = upper_series(E)
        for i in range(1, len(s.chain)):
            expected = Subspace.coordinate(s.blocks[i] + s.blocks[0],
                                           E.dim, F13)
            assert relative_annihilator(E, s.chain[i], s.chain[i - 1]) \
                == expected


def test_criterion_9_power_chain_agreement():
    samples = _nilpotent_samples()
    rng = random.Random(5)
    extra = 0
    while extra < 100:
        E = random_algebra(rng.randrange(1, 6), rng)
        if upper_series(E).nilpotent:
            continue
        samples.append(E)
        extra += 1
    for E in samples:
        assert power_nilpotency(E, RIGHT) == power_nilpotency(E, PLENARY)


def test_criterion_10_basis_change_invariance():
    rng = random.Random(6)
    for d in range(1, 5):
        for entry in canonical_table(d, F13):
            E = entry.template((), F13)
            lab = classify(E)
            done = 0
            while done < 100:
                E2 = random_block_basis_change(E, rng)
                if E2 is None:
                    continue
                done += 1
                assert labels_equal(lab, classify(E2))
