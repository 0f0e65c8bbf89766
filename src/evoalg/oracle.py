"""Brute-force isomorphism search over prime fields.

Any isomorphism between nilpotent evolution algebras can be composed
with basis reorderings on both sides so that its matrix, written in
bases adapted to the upper annihilating series, mixes each block with
itself and adds an arbitrary annihilator component.  The searches below
therefore enumerate only matrices with that block pattern: the free
entries are the r diagonal blocks plus the annihilator block-row, which
cuts the space from p^(n^2) down to p^(n1^2 + sum n_i(n_i+n1)).

A returned matrix is always re-verified, so it is a genuine isomorphism
over the given prime field.  For exhaustive mode, None means no
isomorphism exists over that field; for randomized mode None is merely
a failed search.
"""

from __future__ import annotations

import itertools
import random

from ._values import Frozen, set_fields
from .errors import (BudgetExceeded, DomainError, ShapeError, Singular,
                     UnsupportedField)
from .fields import PRIME
from .linalg import Matrix
from .algebra import EvolutionAlgebra, upper_series

_EXHAUSTIVE_LIMIT = 10 ** 8
# the most matrices that _bounded_iso tests
_FALLBACK_TRIALS = 200000


class SearchBudget(Frozen):
    """The trial count and the seed of a randomized_iso search; the
    count must be an int >= 0 and the seed an int, so that every search
    can be reproduced."""

    __slots__ = _fields = ("max_trials", "seed")

    def __init__(self, max_trials: int = 100000, seed: int = 0):
        if type(max_trials) is not int or max_trials < 0:
            raise DomainError(
                f"max_trials must be an int >= 0, got {max_trials!r}")
        if type(seed) is not int:
            raise DomainError(f"seed must be an int, got {seed!r}")
        set_fields(self, max_trials, seed)


def verify_hom(E1: EvolutionAlgebra, E2: EvolutionAlgebra,
               m: Matrix) -> bool:
    """Check that x -> m.x is an algebra isomorphism E1 -> E2; raises
    Singular when m is not invertible.

    By bilinearity it is enough that m(e_i^2) = (m e_i)^2 and that
    images of distinct basis vectors multiply to zero: the field's
    ``ops.realizes`` tests that and m's rank on m's columns.
    """
    if E1.dim != E2.dim or m.nrows != E1.dim or m.ncols != E1.dim:
        raise ShapeError("isomorphism candidate has wrong shape")
    E1.field.require(E2.field)
    E1.field.require(m.field)
    cols = list(zip(*m._payloads()))
    if E1.field.ops.realizes(E1._rows, E2._rows, cols):
        return True
    if not m.is_invertible():
        raise Singular("isomorphism candidate is singular")
    return False


def _pattern_blocks(series1, series2):
    """The free matrix slots of the adapted block pattern, grouped as
    (diagonal blocks, annihilator slots); rows index E2's basis, cols
    index E1's basis.  Each diagonal block is (rows of E2's block i,
    cols of E1's block i); the annihilator slots are the (row, col)
    pairs of the first block row under the non-annihilator columns."""
    b1, b2 = series1.blocks, series2.blocks
    diag = [(b2[i], b1[i]) for i in range(len(b1))]
    ann = [(row, col)
           for i in range(1, len(b1))
           for col in b1[i]
           for row in b2[0]]
    return diag, ann


def _search_common(E1, E2):
    """Shared validation; returns (A1, A2, ops, n, diag, ann) or None
    when the answer is immediately None."""
    if E1.field.kind != PRIME or E2.field.kind != PRIME \
            or E1.field != E2.field:
        raise UnsupportedField("oracle search requires a shared prime field")
    if E1.dim != E2.dim:
        return None
    s1, s2 = upper_series(E1), upper_series(E2)
    if not s1.nilpotent or not s2.nilpotent \
            or s1.type_vector != s2.type_vector:
        return None
    return (E1._rows, E2._rows, E1.field.ops, E1.dim) \
        + _pattern_blocks(s1, s2)


def _slots(diag, ann) -> list:
    """The free (row, col) slots of the block pattern, in the order that
    decides which witness exhaustive_iso finds first: column by column,
    the diagonal-block rows, then the annihilator rows."""
    ann_rows = {}
    for r, c in ann:
        ann_rows.setdefault(c, []).append(r)
    return [(r, c) for rows, cols in diag for c in cols
            for r in [*rows, *ann_rows.get(c, ())]]


def _verified(E1, E2, cols) -> Matrix:
    """The search hit (payload columns) as a matrix, re-verified."""
    witness = Matrix._wrap([list(r) for r in zip(*cols)], E1.field,
                           len(cols))
    if not verify_hom(E1, E2, witness):
        raise AssertionError("search hit failed re-verification")
    return witness


def exhaustive_iso(E1: EvolutionAlgebra,
                   E2: EvolutionAlgebra) -> Matrix | None:
    """Enumerate every block-patterned matrix over the prime field.

    Returns the lexicographically first witness, or None once the space
    is exhausted (conclusive non-isomorphism over this field).
    """
    common = _search_common(E1, E2)
    if common is None:
        return None
    A1, A2, ops, n, diag, ann = common
    p = E1.field.modulus
    slots = _slots(diag, ann)
    if p ** len(slots) > _EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(
            f"{p}^{len(slots)} block-patterned matrices exceed the "
            f"exhaustive limit {_EXHAUSTIVE_LIMIT}")
    realizes = ops.realizes
    m = [[0] * n for _ in range(n)]       # m[c] is column c
    for values in itertools.product(range(p), repeat=len(slots)):
        for (r, c), v in zip(slots, values):
            m[c][r] = v
        if realizes(A1, A2, m):
            return _verified(E1, E2, m)
    return None


def randomized_iso(E1: EvolutionAlgebra, E2: EvolutionAlgebra,
                   budget: SearchBudget = SearchBudget()) -> Matrix | None:
    """Sample block-patterned matrices; a hit is a verified witness, a
    miss after max_trials is *not* evidence of non-isomorphism.

    Sampling is importance-weighted rather than uniform: half the time a
    diagonal block is drawn as a monomial matrix (permutation times
    nonzero scalars) and annihilator-row entries are zeroed half the
    time.  Isomorphisms between natural-basis presentations concentrate
    on such sparse matrices, so this finds witnesses that uniform
    sampling over p^(free) matrices would essentially never hit.  Every
    hit is still re-verified exactly.
    """
    common = _search_common(E1, E2)
    if common is None:
        return None
    A1, A2, ops, n, diag, ann = common
    p = E1.field.modulus
    rng = random.Random(budget.seed)
    rand, randrange, shuffle = rng.random, rng.randrange, rng.shuffle
    realizes = ops.realizes
    m = [[0] * n for _ in range(n)]       # m[c] is column c
    for _ in range(budget.max_trials):
        for rows, cols in diag:
            k = len(cols)
            if k > 1 and rand() < 0.5:
                perm = list(range(k))
                shuffle(perm)
                for ci, c in enumerate(cols):
                    for ri, r in enumerate(rows):
                        m[c][r] = randrange(1, p) if ri == perm[ci] else 0
            else:
                for c in cols:
                    for r in rows:
                        m[c][r] = randrange(p)
        for r, c in ann:
            m[c][r] = 0 if rand() < 0.5 else randrange(1, p)
        if realizes(A1, A2, m):
            return _verified(E1, E2, m)
    return None


def _bounded_iso(E1: EvolutionAlgebra, E2: EvolutionAlgebra) -> tuple:
    """A witness search that tests at most _FALLBACK_TRIALS matrices:
    (the witness or None, whether None is conclusive).  It runs
    exhaustive_iso when the block-patterned space has no more matrices
    than that (None is then conclusive), randomized_iso with that many
    trials and seed 1 otherwise (None is then a failed search)."""
    common = _search_common(E1, E2)
    if common is None:
        return None, True
    if E1.field.modulus ** len(_slots(*common[4:])) <= _FALLBACK_TRIALS:
        return exhaustive_iso(E1, E2), True
    return randomized_iso(E1, E2, SearchBudget(_FALLBACK_TRIALS,
                                               seed=1)), False
