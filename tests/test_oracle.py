"""Finite-field brute-force isomorphism oracle."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import evoalg

from evoalg.algebra import EvolutionAlgebra, upper_series
from evoalg.errors import (BudgetExceeded, DomainError, ShapeError, Singular,
                           UnsupportedField)
from evoalg.fields import GF, QI, QQ
from evoalg.linalg import Matrix, _inverse_rows, _rank
from evoalg.oracle import (SearchBudget, _pattern_blocks, exhaustive_iso,
                           randomized_iso, verify_hom)
from evoalg.tables import find_entry

from helpers import random_nilpotent, scalar_limit

F3 = GF(3)
F5 = GF(5)


def chain(n, field):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return EvolutionAlgebra.from_ints(rows, field)


def test_verify_hom_identity_and_permutation():
    E = chain(3, F5)
    assert verify_hom(E, E, Matrix.identity(3, F5))
    # swapping the two annihilator vectors of a split pair of chains
    A = EvolutionAlgebra.from_ints(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], F5)
    B = EvolutionAlgebra.from_ints(
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], F5)
    perm = Matrix.from_ints(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], F5)
    assert verify_hom(A, B, perm)
    assert not verify_hom(A, A, perm)


def test_verify_hom_rejects_bad_shapes():
    E = chain(3, F5)
    with pytest.raises(ShapeError):
        verify_hom(E, E, Matrix.identity(2, F5))
    with pytest.raises(Singular):
        verify_hom(E, E, Matrix.from_ints([[0] * 3] * 3, F5))


def test_unsupported_field():
    E = chain(2, QQ())
    with pytest.raises(UnsupportedField):
        exhaustive_iso(E, E)
    with pytest.raises(UnsupportedField):
        exhaustive_iso(chain(2, F3), chain(2, F5))


def test_different_types_give_none():
    E1 = chain(3, F3)
    E2 = EvolutionAlgebra.from_ints(
        [[0, 1, 1], [0, 0, 0], [0, 0, 0]], F3)
    assert exhaustive_iso(E1, E2) is None
    assert randomized_iso(E1, E2) is None


def test_exhaustive_finds_rescaled_copy_over_f5():
    entry = find_entry(4, (1, 2, 1), 1)
    E1 = entry.template((), F5)
    d = Matrix.from_ints([[2, 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, 3, 0], [0, 0, 0, 4]], F5)
    inv = d.inverse()
    new_rows = []
    for i in range(4):
        col = d.apply(E1.basis_vector(i))
        sq = E1.multiply(col, col)
        new_rows.append(inv.apply(sq))
    E2 = EvolutionAlgebra(4, Matrix(new_rows, F5, 4), F5)
    m = exhaustive_iso(E1, E2)
    assert m is not None and verify_hom(E1, E2, m)
    # the first witness in slot order, whichever test rejects a candidate
    # first
    assert m == Matrix.from_ints([[2, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 2, 0], [0, 0, 0, 4]], F5)


@pytest.mark.parametrize("A1, A2, first", [
    ([[0, 0, 0], [4, 0, 0], [0, 1, 0]], [[0, 2, 0], [0, 0, 0], [1, 0, 0]],
     [[0, 1, 0], [3, 0, 0], [0, 0, 1]]),
    ([[0, 0, 0], [4, 0, 0], [4, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 4, 0]],
     [[0, 0, 2], [1, 0, 0], [0, 1, 0]]),
    ([[0, 4, 0], [0, 0, 0], [1, 1, 0]], [[0, 2, 1], [0, 0, 1], [0, 0, 0]],
     [[0, 0, 1], [2, 0, 0], [0, 1, 0]]),
    ([[0, 4, 4], [0, 0, 0], [0, 2, 0]], [[0, 3, 3], [0, 0, 4], [0, 0, 0]],
     [[1, 0, 0], [0, 0, 2], [0, 3, 4]]),
])
def test_exhaustive_returns_the_first_witness(A1, A2, first):
    # pinned from the search that ran the rank test before the product
    # test: testing the products first must not change which witness wins
    E1 = EvolutionAlgebra.from_ints(A1, F5)
    E2 = EvolutionAlgebra.from_ints(A2, F5)
    assert exhaustive_iso(E1, E2) == Matrix.from_ints(first, F5)


def test_exhaustive_none_is_conclusive():
    # the two dim-3 classes are not isomorphic over any field
    e1 = find_entry(3, (1, 2), 1)
    e2 = find_entry(3, (1, 1, 1), 1)
    assert exhaustive_iso(e1.template((), F3), e2.template((), F3)) is None


def test_exhaustive_budget_exceeded():
    entry = find_entry(5, (1, 1, 3), 3)
    F13 = GF(13)
    E = entry.template((F13.from_int(2),), F13)
    with pytest.raises(BudgetExceeded):
        exhaustive_iso(E, E)


def test_randomized_zero_budget_returns_none():
    E = chain(3, F5)
    assert randomized_iso(E, E, SearchBudget(max_trials=0)) \
        is None


@pytest.mark.parametrize("trials", [-5, 1.5, 10.0, "10", True, None])
def test_search_budget_refuses_a_trial_count_that_is_not_an_int_ge_0(
        trials):
    with pytest.raises(DomainError, match="max_trials"):
        SearchBudget(trials)


@pytest.mark.parametrize("seed", [[1], None, 1.5, "x", True])
def test_search_budget_refuses_a_seed_that_is_not_an_int(seed):
    # random.Random raised a raw TypeError for [1], and seeded None from
    # the clock, so the search could not be reproduced
    with pytest.raises(DomainError, match="seed"):
        SearchBudget(10, seed=seed)


def test_randomized_finds_self_isomorphism():
    entry = find_entry(4, (1, 2, 1), 1)
    F13 = GF(13)
    E = entry.template((), F13)
    m = randomized_iso(E, E, SearchBudget(max_trials=50000, seed=0))
    assert m is not None and verify_hom(E, E, m)


def test_oracle_symmetry_over_f3():
    rng = random.Random(0)
    checked = 0
    while checked < 6:
        E1 = random_nilpotent(3, rng, field=F3)
        E2 = random_nilpotent(3, rng, field=F3)
        m12 = exhaustive_iso(E1, E2)
        m21 = exhaustive_iso(E2, E1)
        assert (m12 is None) == (m21 is None)
        checked += 1


def test_reverification_survives_optimize_flag():
    # under python -O a bare assert would vanish and the unverified hit
    # would be returned; the explicit check must still raise
    code = textwrap.dedent("""
        import sys
        import evoalg.oracle as oracle
        from evoalg.algebra import EvolutionAlgebra
        from evoalg.fields import GF
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        oracle.verify_hom = lambda *args: False
        E = EvolutionAlgebra.from_ints(
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]], GF(3))
        for search in (oracle.exhaustive_iso, oracle.randomized_iso):
            try:
                m = search(E, E)
            except AssertionError:
                continue
            sys.exit(f"{search.__name__} returned {m!r}")
    """)
    src = os.path.dirname(os.path.dirname(evoalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# the support skip of the product test

def unskipped_is_hom(A1, A2, m, ops):
    """The product test of verify_hom with every cross product of the
    columns computed, as before products of columns whose supports do not
    meet on the nonzero squares were skipped."""
    n = len(m)
    cols = list(zip(*m))
    for i in range(n):
        if ops.combine(A1[i], cols, n) != ops.product(A2, cols[i], cols[i]):
            return False
    zero = [ops.zero] * n
    return all(ops.product(A2, cols[i], cols[j]) == zero
               for i in range(n) for j in range(i + 1, n))


def _scalar(rng, field, nonzero=False):
    """A payload drawn as the test generators draw scalars, times i a
    third of the time over Q(i)."""
    ops = field.ops
    x = ops.of_int(rng.randrange(1 if nonzero else 0, scalar_limit(field)))
    if field.has_i and rng.random() < 1 / 3:
        x = ops.mul(x, ops.i)
    return x


def _relabelling(A, rng, field):
    """The structure rows A in the natural basis f_pi(i) = c_i e_i, and
    the payload rows of the isomorphism e_i -> c_i^-1 f_pi(i)."""
    ops, n = field.ops, len(A)
    perm = list(range(n))
    rng.shuffle(perm)
    c = [_scalar(rng, field, nonzero=True) for _ in range(n)]
    A2 = [[ops.zero] * n for _ in range(n)]
    m = [[ops.zero] * n for _ in range(n)]
    for i in range(n):
        m[perm[i]][i] = ops.inv(c[i])
        for j in range(n):
            A2[perm[i]][perm[j]] = ops.div(ops.mul(ops.mul(c[i], c[i]),
                                                   A[i][j]), c[j])
    return A2, m


def _patterned(A1, A2, rng, field):
    """A block-patterned candidate drawn as randomized_iso draws one: a
    diagonal block is monomial half the time, and an annihilator slot is
    zero half the time."""
    ops, n = field.ops, len(A1)
    wrap = EvolutionAlgebra._wrap
    diag, ann = _pattern_blocks(upper_series(wrap(A1, field)),
                                upper_series(wrap(A2, field)))
    m = [[ops.zero] * n for _ in range(n)]
    for rows, cols in diag:
        if len(cols) > 1 and rng.random() < 0.5:
            perm = list(range(len(cols)))
            rng.shuffle(perm)
            for ci, c in enumerate(cols):
                m[rows[perm[ci]]][c] = _scalar(rng, field, nonzero=True)
        else:
            for c in cols:
                for r in rows:
                    m[r][c] = _scalar(rng, field)
    for r, c in ann:
        if rng.random() < 0.5:
            m[r][c] = _scalar(rng, field, nonzero=True)
    return m


def _squares_pass(A2, rng, field):
    """Rows A1 and a sparse invertible candidate m (a monomial matrix
    plus a few entries) for which every square of the product test holds
    by construction, A1[i] holding the coordinates of (m e_i)^2 in the
    columns of m; only the cross products decide.  None when the draw is
    singular."""
    ops, n = field.ops, len(A2)
    m = [[ops.zero] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for j in range(n):
        m[perm[j]][j] = _scalar(rng, field, nonzero=True)
    for _ in range(rng.randrange(3)):
        m[rng.randrange(n)][rng.randrange(n)] = _scalar(rng, field)
    if _rank(m, n, ops) < n:
        return None
    inv = _inverse_rows(m, ops)
    cols = list(zip(*m))
    A1 = []
    for c in cols:
        sq = ops.product(A2, c, c)
        A1.append([ops.dot(r, sq) for r in inv])
    return A1, m


@pytest.mark.parametrize("field", [GF(5), GF(13), QQ(), QI()],
                         ids=str)
def test_the_support_skip_keeps_every_product_test_verdict(field):
    # the realizes kernel against the unskipped product test and the
    # rank on natural candidates, spoilt ones, dense ones, block-patterned
    # ones and ones that pass every square; verify_hom answers with the
    # same verdict
    ops = field.ops
    rng = random.Random(str(field))
    verdicts = {}
    for _ in range(400):
        A = random_nilpotent(rng.randrange(1, 6), rng, field)._rows
        n = len(A)
        A2, m = _relabelling(A, rng, field)
        kind = rng.choice(["natural", "spoilt", "dense", "patterned",
                           "squares pass"])
        A1 = A
        if kind == "spoilt":
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = ops.add(m[i][j], ops.one)
        elif kind == "dense":
            m = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
        elif kind == "patterned":
            m = _patterned(A1, A2, rng, field)
        elif kind == "squares pass":
            drawn = _squares_pass(A2, rng, field)
            if drawn is None:
                continue
            A1, m = drawn
        verdict = ops.realizes(A1, A2, list(zip(*m)))
        assert verdict == (unskipped_is_hom(A1, A2, m, ops)
                           and _rank(m, n, ops) == n)
        assert verdict or kind != "natural"
        verdicts.setdefault(kind, set()).add(verdict)
        E1, E2 = (EvolutionAlgebra._wrap(A1, field),
                  EvolutionAlgebra._wrap(A2, field))
        M = Matrix._wrap(m, field, n)
        if _rank(m, n, ops) == n:
            assert verify_hom(E1, E2, M) == verdict
        else:
            with pytest.raises(Singular):
                verify_hom(E1, E2, M)
    assert verdicts["natural"] == {True}
    assert verdicts["squares pass"] == {True, False}
    assert verdicts["spoilt"] == verdicts["patterned"] == {True, False}
