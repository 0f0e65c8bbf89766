"""Classification of nilpotent evolution algebras of dimension at most 5.

``classify`` maps an algebra presented in a natural basis to its
canonical label: first it peels off direct-sum decompositions that can
be realized by natural bases (graph components, an annihilator vector
outside E^2 and a large annihilator, found by the split stage
``algebra._natural_split`` that ``decomposability_check`` shares, and
the two ann-dim-2 special splits of the normalizers), then it reorders
the basis into blocks adapted to the upper annihilating series and runs
a per-type normalizer that extracts the variant and the normalized
parameters.

Labels are field-independent data (parameters are extracted through
rational expressions plus canonical square roots); witness bases, which
realize the template by an explicit change of basis, may need roots that
the coefficient field lacks.  Each normalizer hands over a builder that
yields candidate bases, one per choice of the square roots it needs; a
root missing from the field simply yields no candidate, and a template
that needs i has none over a field without i.  When no candidate
realizes the template the label carries a no-witness flag.  The
normalizer builds and verifies the witness basis once, in the same pass
that produces the label, and ``witness_isomorphism`` composes the two
stored witnesses instead of normalizing again.

The splitting stages, the adapted reorder and the witness check compute
on raw payload rows through the field's ``ops`` table: a change of
natural basis inverts its basis once, summands are row and column
selections (graph components need no basis change at all), every split
is checked to close (each adjusted row stays inside its own group), and
each witness candidate gets one rank test and the product test of
``verify_hom``.  Only the per-type normalizers work with
``FieldElement`` values: a summand's structure matrix is built only when
a normalizer reads it, and only the accepted witness is wrapped.

The invariants that decide the split are read off index sets of the
natural basis: the series blocks (its chain of subspaces is never
built), ann(E) as the indices of the zero squares, ann inside E^2 as
unit rows of E^2's reduced basis, and the refined split's pieces from
``algebra._annihilator_split``.  A template's payload rows are built
only once a builder yields its first candidate, and those of a
parameter-free template once per field.  Cube roots over Q and Q(i)
are exact at any size (an integer cube root of the numerator and of
the denominator).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._values import Frozen, Value, set_fields
from .errors import (
    BudgetExceeded,
    NotNilpotent,
    SpecMismatch,
    SqrtUnavailable,
    UnsupportedDim,
)
from .fields import (
    PRIME,
    RATIONALS,
    FieldElement,
    _cube_root_mod,
    order_key,
    sqrt_if_square,
)
from .linalg import (Matrix, Subspace, _combine, _inverse_rows, _rank,
                     _unit_row, kernel)
from .algebra import (EvolutionAlgebra, _natural_split, _product,
                      _subalgebra, upper_series)
from .tables import find_entry, orbit_min
from .oracle import (SearchBudget, _is_hom, exhaustive_iso, randomized_iso,
                     verify_hom)


class CanonicalLabel(Frozen):
    __slots__ = _fields = ("dim", "type_vector", "variant", "params",
                           "boundary", "no_witness")

    def __init__(self, dim: int, type_vector: tuple, variant: int,
                 params: tuple = (), boundary: bool = False,
                 no_witness: bool = False):
        set_fields(self, dim, type_vector, variant, params, boundary,
                   no_witness)

    def serialize(self) -> str:
        tv = ",".join(str(k) for k in self.type_vector)
        out = f"d{self.dim}:[{tv}]:v{self.variant}"
        if self.params:
            out += "(" + ",".join(str(p) for p in self.params) + ")"
        return out

    def skeleton(self):
        return (self.dim, self.type_vector, self.variant)


class Decomposed(Value):
    """A direct-sum decomposition into indecomposable summand labels,
    sorted by serialization for determinism."""

    __slots__ = _fields = ("labels",)

    def __init__(self, labels: list | None = None):
        self.labels = [] if labels is None else labels

    def serialize(self) -> str:
        return " + ".join(l.serialize() for l in self.labels)


def labels_equal(l1, l2) -> bool:
    """Equal skeleton and parameter tuples in the same finite orbit."""
    if isinstance(l1, Decomposed) or isinstance(l2, Decomposed):
        if not (isinstance(l1, Decomposed) and isinstance(l2, Decomposed)):
            return False
        if len(l1.labels) != len(l2.labels):
            return False
        return all(labels_equal(a, b)
                   for a, b in zip(l1.labels, l2.labels))
    if l1.skeleton() != l2.skeleton():
        return False
    if not l1.params:
        return True
    entry = find_entry(l1.dim, l1.type_vector, l1.variant)
    field = l1.params[0].field
    return tuple(l2.params) in entry.param_orbit(tuple(l1.params), field)


# ---------------------------------------------------------------------------
# small vector helpers (coordinate lists of FieldElement)

def _zeros(n, field):
    return [field.zero()] * n


def _unit(i, n, field):
    v = _zeros(n, field)
    v[i] = field.one()
    return v


def _vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def _vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def _vscale(c, v):
    return [c * x for x in v]


def _placed(n, field, start, coords, last=None):
    """The length-n vector with coords at start, start + 1, ... and, when
    given, ``last`` as its final (annihilator) coordinate."""
    v = _zeros(n, field)
    v[start:start + len(coords)] = coords
    if last is not None:
        v[n - 1] = last
    return v


def _roots(x: FieldElement) -> tuple:
    """The square roots of x: (r, -r), or (0,) when x is 0, or () when x
    is not a square in its field.  A builder loops over them, so a missing
    root yields no candidate."""
    r = sqrt_if_square(x)
    if r is None:
        return ()
    return (r,) if r.is_zero() else (r, -r)


def _both_signs(cols, k):
    """The candidate cols, then cols with column k negated."""
    yield cols
    yield cols[:k] + [[-x for x in cols[k]]] + cols[k + 1:]


def _root_choices(xs):
    """Every choice of one square root of each x in xs, the first choice
    changing fastest; no choice at all when some x is not a square."""
    for picks in itertools.product(*map(_roots, reversed(xs))):
        yield picks[::-1]


def _cbrt(x: FieldElement) -> FieldElement:
    """A cube root, when one can be found exactly."""
    field = x.field
    if field.kind == PRIME:
        r = _cube_root_mod(x.value, field.modulus)
        if r is None:
            raise SqrtUnavailable(f"{x} has no cube root in {field}")
        return FieldElement(field, r)
    if field.kind == RATIONALS:
        q = x.value
    elif x.value[1] == 0:
        q = x.value[0]
    else:
        raise SqrtUnavailable(f"no exact cube root of {x} available")
    # a fraction in lowest terms is a cube exactly when its numerator
    # and its denominator are
    num, den = abs(q.numerator), q.denominator
    rn, rd = _icbrt(num), _icbrt(den)
    if rn ** 3 != num or rd ** 3 != den:
        raise SqrtUnavailable(f"{x} has no rational cube root")
    root = Fraction(-rn if q < 0 else rn, rd)
    if field.kind == RATIONALS:
        return FieldElement(field, root)
    return FieldElement(field, (root, Fraction(0)))


def _icbrt(m: int) -> int:
    """The integer cube root floor(m^(1/3)) of m >= 0, by integer Newton
    iteration from a power of two above it (exact at any size)."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // 3)
    while True:
        y = (2 * x + m // (x * x)) // 3
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# diagonal quadratic form utilities

class _DiagForm:
    """The form Q(v) = sum v_k^2 d_k on a coordinate space."""

    def __init__(self, diag):
        self.diag = list(diag)
        self.field = diag[0].field

    def q(self, v):
        acc = self.field.zero()
        for x, d in zip(v, self.diag):
            acc = acc + x * x * d
        return acc

    def b(self, u, v):
        acc = self.field.zero()
        for x, y, d in zip(u, v, self.diag):
            acc = acc + x * y * d
        return acc

    def orth_complement_basis(self, vecs):
        """An orthogonal basis, with anisotropic members whenever
        possible, of the orthogonal complement of span(vecs)."""
        m = len(self.diag)
        rows = [[v[k] * self.diag[k] for k in range(m)] for v in vecs]
        comp = kernel(Matrix(rows, self.field, m)) if rows \
            else Subspace.full(m, self.field)
        basis = [list(v) for v in comp.vectors()]
        # Gram-Schmidt with isotropic-pivot repair
        out = []
        while basis:
            pick = next((v for v in basis if not self.q(v).is_zero()), None)
            if pick is None and len(basis) >= 2:
                # all remaining basis vectors isotropic; if the restricted
                # form is nondegenerate some sum is anisotropic
                for a in range(len(basis)):
                    for b in range(a + 1, len(basis)):
                        cand = _vadd(basis[a], basis[b])
                        if not self.q(cand).is_zero():
                            basis[a] = cand
                            pick = cand
                            break
                    if pick is not None:
                        break
            if pick is None:
                # totally isotropic leftover (possible when the restricted
                # form is degenerate); keep as-is
                out.extend(basis)
                break
            basis.remove(pick)
            out.append(pick)
            qp = self.q(pick)
            basis = [_vsub(v, _vscale(self.b(v, pick) / qp, pick))
                     for v in basis]
            basis = [v for v in basis if any(not x.is_zero() for x in v)]
        return out

    def hyperbolic_partner(self, a):
        """For isotropic a != 0: an isotropic d' with b(a, d') != 0."""
        m = len(self.diag)
        d = None
        for k in range(m):
            cand = _unit(k, m, self.field)
            if not self.b(a, cand).is_zero():
                d = cand
                break
        if d is None:
            raise SpecMismatch("vector lies in the radical of the form")
        h0 = self.b(a, d)
        two = self.field.from_int(2)
        d2 = _vsub(d, _vscale(self.q(d) / (two * h0), a))
        return d2, self.b(a, d2)

    def hyperbolic_pair(self, a, d, delta):
        """u = a/2 + delta d and v = -i (a/2 - delta d), so that u + iv = a:
        for isotropic a and an isotropic partner d the form takes the
        common value q(u) = q(v) = delta b(a, d) on them, and b(u, v) = 0."""
        half_a = _vscale(self.field.from_int(2).inverse(), a)
        dd = _vscale(delta, d)
        return _vadd(half_a, dd), _vscale(-self.field.i(), _vsub(half_a, dd))


# ---------------------------------------------------------------------------
# natural-basis-preserving decompositions, on payload rows

def _adjusted_rows(E, basis):
    """The structure rows of E in the natural basis given by the payload
    rows ``basis``; raises SpecMismatch if the basis is not natural and
    Singular if it is not a basis.

    With M the matrix whose rows are the basis vectors, a vector w has
    coordinates w M^-1 in the new basis, so one inversion of M serves
    every new square."""
    ops = E.field.ops
    A, Z, n = E._rows, ops.zero, E.dim
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if any(x != Z for x in _product(A, basis[i], basis[j], ops)):
                raise SpecMismatch("candidate basis is not natural")
    inv = _inverse_rows(basis, ops)
    return [_combine(_product(A, b, b, ops), inv, n, ops) for b in basis]


def _split_in_basis(E, basis, groups):
    """The summands of E on the index groups of the natural basis given
    by payload rows; raises SpecMismatch unless every group spans an
    ideal, that is, unless each adjusted row stays inside its own group."""
    rows = _adjusted_rows(E, basis)
    Z = E.field.ops.zero
    for g in groups:
        inside = set(g)
        if any(x != Z for i in g for j, x in enumerate(rows[i])
               if j not in inside):
            raise SpecMismatch("split failed to close")
    return [_subalgebra(rows, g, E.field) for g in groups]


# ---------------------------------------------------------------------------
# the classifier

def classify(E: EvolutionAlgebra):
    """Canonical label of E, or the Decomposed list of summand labels."""
    return _classify(E)[0]


def _classify(E):
    """The label of E and its verified witness basis, the latter None
    for Decomposed labels and whenever the label carries no_witness."""
    if E.dim > 5:
        raise UnsupportedDim("classification covers dimension at most 5")
    ops = E.field.ops
    if E._rows == [[ops.zero]]:
        # E is then the template of d1:[1]:v1 itself, so the identity is
        # trivially a witness
        return CanonicalLabel(1, (1,), 1), Matrix.identity(1, E.field)
    series = upper_series(E)
    if not series.nilpotent:
        raise NotNilpotent("classification applies to nilpotent algebras")

    split = _natural_split(E)
    if split is not None:
        _, basis, groups = split
        if basis is None:  # graph components: no basis change needed
            parts = [_subalgebra(E._rows, g, E.field) for g in groups]
        else:
            parts = _split_in_basis(E, basis, groups)
        return _gather(parts), None

    result = _normalize(E, series)
    if isinstance(result, list):  # an ann-dim-2 special split
        return _gather(result), None
    return result


def _gather(parts):
    labels = []
    for sub in parts:
        res = classify(sub)
        if isinstance(res, Decomposed):
            labels.extend(res.labels)
        else:
            labels.append(res)
    labels.sort(key=lambda l: l.serialize())
    return Decomposed(labels)


def _normalize(E, series):
    """Adapted reorder + per-type normalizer for an indecomposable
    candidate: (label, witness basis or None), or a list of summands."""
    tv = tuple(series.type_vector)
    perm = [i for blk in reversed(series.blocks) for i in blk]
    field = E.field
    Ead = _subalgebra(E._rows, perm, field)

    handler = _HANDLERS.get(tv)
    if handler is None:
        raise SpecMismatch(f"no normalizer for type {list(tv)}")
    out = handler(Ead, tv)
    if isinstance(out, list):
        return out
    variant, params, boundary, builder = out
    entry = find_entry(E.dim, tv, variant)
    params = orbit_min(entry, tuple(params), field) if params else ()
    witness = _witness_basis(E, Ead, perm, entry, params, builder)
    label = CanonicalLabel(E.dim, tv, variant, params, boundary=boundary,
                           no_witness=witness is None)
    return label, witness


def _witness_basis(E, Ead, perm, entry, params, builder):
    """A matrix whose columns express the template's natural basis in
    E's coordinates, verified against the template: each candidate is
    assembled as payload rows, passes one rank test and the product test
    of ``verify_hom``, and only the accepted one is wrapped.  None when no
    candidate realizes the template: a builder yields no candidate for a
    square root the field lacks, and a template that needs i has no
    witness over a field without i.  The template's rows are built only
    once a candidate exists."""
    field = E.field
    if entry.needs_i and not field.has_i:
        return None
    template_rows = None
    n = E.dim
    for cols_ad in builder(Ead, params):
        m = [[None] * n for _ in range(n)]
        for j, v in enumerate(cols_ad):
            for k, x in enumerate(v):
                m[perm[k]][j] = x.value
        if template_rows is None:
            template_rows = _template_rows(entry, params, field)
        if _realizes(template_rows, E, m):
            return Matrix._wrap(m, field, n)
    return None


# payload rows of the parameter-free templates, per (entry key, field);
# parametrised templates are not kept, as over Q there is no bound on
# how many distinct parameter tuples come by
_TEMPLATE_ROWS: dict = {}


def _template_rows(entry, params, field) -> list[list]:
    """The payload structure rows of entry's template over field, built
    through ``entry.template`` (which checks params and the need for i);
    those of a parameter-free template are built once per field."""
    if params:
        return entry.template(params, field)._rows
    key = (entry.key(), field)
    rows = _TEMPLATE_ROWS.get(key)
    if rows is None:
        rows = _TEMPLATE_ROWS[key] = entry.template(params, field)._rows
    return rows


def _realizes(template_rows, E, m) -> bool:
    """Whether the payload rows m are invertible (one rank test) and
    carry the template's products to E's (the product test of
    verify_hom): then m's columns are a natural basis of E realizing the
    template."""
    ops = E.field.ops
    return _rank(m, E.dim, ops) == E.dim \
        and _is_hom(template_rows, E._rows, m, ops)


def witness_isomorphism(E1: EvolutionAlgebra, E2: EvolutionAlgebra):
    """Change-of-basis matrix carrying E1's products to E2's, when the
    labels agree and the needed roots exist; None when labels differ."""
    (l1, b1), (l2, b2) = _classify(E1), _classify(E2)
    if not labels_equal(l1, l2):
        return None
    if E1 == E2:
        return Matrix.identity(E1.dim, E1.field)
    if b1 is not None and b2 is not None:
        m = b2 * b1.inverse()
        if verify_hom(E1, E2, m):
            return m
    # root-free fallback over finite fields: delegate to the oracle
    if E1.field.kind == PRIME and not isinstance(l1, Decomposed):
        try:
            m = exhaustive_iso(E1, E2)
        except BudgetExceeded:
            m = randomized_iso(E1, E2, SearchBudget(
                max_trials=200000, seed=1))
        if m is not None:
            return m
    raise SqrtUnavailable(
        "labels agree but no witness basis exists over this field")


# ---------------------------------------------------------------------------
# per-type normalizers.  Each receives the algebra in adapted coordinates
# (top block first, annihilator last) and returns
# (variant, raw params, boundary, builder) or a list of summands.  Type
# [1] has none: _classify labels the one-dimensional zero algebra itself.
# A builder yields candidate bases, one per choice of the square roots it
# needs (_roots); it never raises for a missing root, it just yields
# nothing more.

def _chain_builder(Ead, params):
    """Basis x, x^2, (x^2)^2, ... for plain chains."""
    n = Ead.dim
    field = Ead.field
    cols = [_unit(0, n, field)]
    for _ in range(n - 1):
        cols.append(Ead.multiply(cols[-1], cols[-1]))
    yield cols


def _h_chain(Ead, tv):
    return 1, (), False, _chain_builder


def _h_star(Ead, tv):
    # type [1, n-1]: u_i^2 = lam_i s
    n = Ead.dim

    def build(Ead, params):
        field = Ead.field
        lam = [Ead.structure[i, n - 1] for i in range(n - 1)]
        for ts in _root_choices([lam[0] / lam[i] for i in range(1, n - 1)]):
            yield ([_unit(0, n, field)]
                   + [_vscale(t, _unit(k, n, field))
                      for k, t in enumerate(ts, 1)]
                   + [Ead.square_of_basis(0)])
    return 1, (), False, build


def _h_1n1(Ead, tv):
    # adapted (x, u_1..u_m, s); x^2 = a + mu s with a in U_2
    m = tv[1]
    n = Ead.dim
    field = Ead.field
    lam = [Ead.structure[1 + k, n - 1] for k in range(m)]
    form = _DiagForm(lam)
    a = [Ead.structure[0, 1 + k] for k in range(m)]
    qa = form.q(a)

    if not qa.is_zero():
        def build(Ead, params):
            x2 = Ead.square_of_basis(0)
            comp = form.orth_complement_basis([a])
            if any(form.q(w).is_zero() for w in comp):
                return
            for ts in _root_choices([qa / form.q(w) for w in comp]):
                yield ([_unit(0, n, field), x2]
                       + [_placed(n, field, 1, _vscale(t, w))
                          for t, w in zip(ts, comp)]
                       + [Ead.multiply(x2, x2)])
        return 1, (), False, build

    def build_iso(Ead, params):
        # a is isotropic: hyperbolic pair gives x^2 = u1 + i u2
        dprime, h = form.hyperbolic_partner(a)
        comp = form.orth_complement_basis([a, dprime])
        delta = field.one()
        # the first complement direction sets the common square value
        # (delta = q(comp[0]) / h), so it enters unscaled; the remaining
        # orthogonal directions are scaled to that value
        rest = []
        if comp:
            g3 = form.q(comp[0])
            if g3.is_zero():
                return
            delta = g3 / h
            rest.append(comp[0])
        for w in comp[1:]:
            qw = form.q(w)
            if qw.is_zero():
                return
            t = sqrt_if_square(g3 / qw)
            if t is None:
                return
            rest.append(_vscale(t, w))
        u1, u2 = form.hyperbolic_pair(a, dprime, delta)
        v1 = _placed(n, field, 1, u1, Ead.structure[0, n - 1])
        yield from _both_signs([_unit(0, n, field), v1,
                                _placed(n, field, 1, u2)]
                               + [_placed(n, field, 1, w) for w in rest]
                               + [Ead.multiply(v1, v1)], 2)
    return 2, (), False, build_iso


def _h_11n(Ead, tv):
    # adapted (u_1..u_m, w, s): u_i^2 = lam_i w + nu_i s, w^2 = gw s
    m = tv[2]
    n = Ead.dim
    field = Ead.field
    lam = [Ead.structure[k, m] for k in range(m)]
    nu = [Ead.structure[k, n - 1] for k in range(m)]
    gw = Ead.structure[m, n - 1]
    tvals = [nu[k] / lam[k] for k in range(m)]
    distinct = []
    for t in tvals:
        if t not in distinct:
            distinct.append(t)

    def build_equal(Ead, params):
        for ts in _root_choices([lam[0] / lam[k] for k in range(1, m)]):
            wn = Ead.square_of_basis(0)
            yield ([_unit(0, n, field)]
                   + [_vscale(t, _unit(k, n, field))
                      for k, t in enumerate(ts, 1)]
                   + [wn, Ead.multiply(wn, wn)])

    if len(distinct) == 1:
        return 1, (), False, build_equal

    def gap_square(base, gap, k):
        """The square of the scaling of u_k that puts the template's unit
        gap between the slopes of u_base and u_gap."""
        return (tvals[gap] - tvals[base]) / (lam[base] * gw) \
            * lam[base] / lam[k]

    if m == 2:
        # two eigenvalues: template u1^2 = w, u2^2 = w + s
        def build(Ead, params):
            for base, gap in ((0, 1), (1, 0)):
                for s0 in _roots(gap_square(base, gap, base)):
                    for s1 in _roots(gap_square(base, gap, gap)):
                        ub = _vscale(s0, _unit(base, n, field))
                        ug = _vscale(s1, _unit(gap, n, field))
                        wn = Ead.multiply(ub, ub)
                        yield [ub, ug, wn, Ead.multiply(wn, wn)]
        return 2, (), False, build

    # m == 3
    if len(distinct) == 2:
        def build(Ead, params):
            for a, b, c in itertools.permutations(range(3)):
                # slots u1, u2 (g=0), u3 (g=1)
                if tvals[a] != tvals[b]:
                    continue
                sc = [sqrt_if_square(gap_square(a, c, k)) for k in range(3)]
                if None in sc:
                    continue
                ua = _vscale(sc[a], _unit(a, n, field))
                ub = _vscale(sc[b], _unit(b, n, field))
                uc = _vscale(sc[c], _unit(c, n, field))
                wn = Ead.multiply(ua, ua)
                yield [ua, ub, uc, wn, Ead.multiply(wn, wn)]
        return 2, (), False, build

    # three distinct eigenvalues: anharmonic parameter
    alpha = (tvals[0] - tvals[1]) / (tvals[2] - tvals[1])

    def build(Ead, params):
        (target,) = params
        for a, b, c in itertools.permutations(range(3)):
            # slots: u1 (g=alpha), u2 (g=0), u3 (g=1)
            if (tvals[a] - tvals[b]) / (tvals[c] - tvals[b]) != target:
                continue
            for sa in _roots(gap_square(b, c, a)):
                for sb in _roots(gap_square(b, c, b)):
                    for scc in _roots(gap_square(b, c, c)):
                        ua = _vscale(sa, _unit(a, n, field))
                        ub = _vscale(sb, _unit(b, n, field))
                        uc = _vscale(scc, _unit(c, n, field))
                        wn = Ead.multiply(ub, ub)
                        yield [ua, ub, uc, wn, Ead.multiply(wn, wn)]
    return 3, (alpha,), False, build


def _h_111n(Ead, tv):
    # adapted (u_1..u_m, w, t, s)
    m = tv[3]
    n = Ead.dim
    field = Ead.field
    lam = [Ead.structure[k, m] for k in range(m)]
    mu = [Ead.structure[k, m + 1] for k in range(m)]
    nu = [Ead.structure[k, n - 1] for k in range(m)]
    aw = Ead.structure[m, m + 1]
    bw = Ead.structure[m, n - 1]
    gt = Ead.structure[m + 1, n - 1]
    f = [mu[k] / (aw * lam[k]) for k in range(m)]
    g = [(nu[k] - mu[k] * bw / aw) / (aw * aw * gt * lam[k])
         for k in range(m)]

    if m == 1:
        if f[0].is_zero():
            return 1, (), False, _chain_builder

        def build_v2(Ead, params):
            for e in _roots(mu[0] / (lam[0] * lam[0] * aw)):
                un = _vscale(e, _unit(0, n, field))
                usq = Ead.multiply(un, un)
                a = usq[1]  # w-coefficient
                tn = _placed(n, field, 2, [a * a * aw], a * a * bw)
                wn = _vsub(usq, tn)
                yield [un, wn, tn, Ead.multiply(tn, tn)]
        return 2, (), False, build_v2

    # m == 2
    zf = [k for k in range(2) if f[k].is_zero()]
    if len(zf) == 2:
        if g[0] == g[1]:
            def build(Ead, params):
                wn = Ead.square_of_basis(0)
                tn = Ead.multiply(wn, wn)
                for s in _roots(lam[0] / lam[1]):
                    yield [_unit(0, n, field),
                           _vscale(s, _unit(1, n, field)),
                           wn, tn, Ead.multiply(tn, tn)]
            return 1, (), False, build

        def build_v2(Ead, params):
            for base, gap in ((0, 1), (1, 0)):
                c6 = (nu[gap] / lam[gap] - nu[base] / lam[base]) \
                    / (lam[base] ** 3 * aw * aw * gt)
                try:
                    tb2 = _cbrt(c6)
                except SqrtUnavailable:
                    continue
                for sb in _roots(tb2):
                    for sg in _roots(tb2 * lam[base] / lam[gap]):
                        ub = _vscale(sb, _unit(base, n, field))
                        ug = _vscale(sg, _unit(gap, n, field))
                        wn = Ead.multiply(ub, ub)
                        tn = Ead.multiply(wn, wn)
                        yield [ug, ub, wn, tn, Ead.multiply(tn, tn)]
        return 2, (), False, build_v2

    if len(zf) == 1:
        z = zf[0]
        a = 1 - z
        gamma = (g[a] - g[z]) / (f[a] ** 3)

        def build(Ead, params):
            tb2 = mu[a] / (lam[a] * lam[z] * aw)
            for sb in _roots(tb2):
                for sa in _roots(tb2 * lam[z] / lam[a]):
                    ub = _vscale(sb, _unit(z, n, field))
                    ua = _vscale(sa, _unit(a, n, field))
                    wn = Ead.multiply(ub, ub)
                    tn = Ead.multiply(wn, wn)
                    yield [ua, ub, wn, tn, Ead.multiply(tn, tn)]
        return 3, (gamma,), False, build

    # both f nonzero
    cand = []
    for a in range(2):
        z = 1 - a
        cand.append((f[z] / f[a], (g[a] - g[z]) / (f[a] ** 3)))

    def build(Ead, params):
        for a in range(2):
            z = 1 - a
            if cand[a] != tuple(params):
                continue
            avec = mu[a] / (lam[a] * aw)
            gamma = cand[a][1]
            tn = _placed(n, field, m + 1, [avec * avec * aw],
                         avec * avec * bw)
            sn = Ead.multiply(tn, tn)
            for sa in _roots(avec / lam[a]):
                for sb in _roots(avec / lam[z]):
                    ua = _vscale(sa, _unit(a, n, field))
                    ub = _vscale(sb, _unit(z, n, field))
                    wn = _vsub(_vsub(Ead.multiply(ua, ua), tn),
                               _vscale(gamma, sn))
                    yield [ua, ub, wn, tn, sn]
    return 4, min(cand, key=lambda t: (order_key(t[0]), order_key(t[1]))), \
        False, build


def _h_122(Ead, tv):
    # adapted (x, y, u, v, s)
    n = Ead.dim
    field = Ead.field
    lam_u = Ead.structure[2, 4]
    lam_v = Ead.structure[3, 4]
    form = _DiagForm([lam_u, lam_v])
    a = [Ead.structure[0, 2], Ead.structure[0, 3]]
    b = [Ead.structure[1, 2], Ead.structure[1, 3]]
    mu_x = Ead.structure[0, 4]
    nu_y = Ead.structure[1, 4]
    qa, qb, qab = form.q(a), form.q(b), form.b(a, b)
    xi, yi = 0, 1
    if qa.is_zero() and not qb.is_zero():
        a, b, mu_x, nu_y = b, a, nu_y, mu_x
        qa, qb = qb, qa
        xi, yi = 1, 0

    if not qa.is_zero():
        det = qa * qb - qab * qab
        if not det.is_zero():
            alpha2 = qab * qab / det
            alpha = sqrt_if_square(alpha2)
            if alpha is None:
                raise SqrtUnavailable(
                    "the [1,2,2] parameter is not representable in "
                    f"{field}")

            def build(Ead, params):
                (target,) = params
                comp = form.orth_complement_basis([a])
                w0 = comp[0]
                qw0 = form.q(w0)
                if qw0.is_zero():
                    return
                # decompose b = A a + B w0
                gram = Matrix([[qa, form.b(a, w0)],
                               [form.b(a, w0), qw0]], field, 2)
                coeff = gram.inverse().apply([form.b(b, a), form.b(b, w0)])
                A, B = coeff
                if B.is_zero():
                    return
                for t in _roots(qa / qw0):
                    if t * A / B != target:
                        continue
                    eps2 = t / B
                    eps = sqrt_if_square(eps2)
                    if eps is None:
                        continue
                    un = _placed(n, field, 2, a, mu_x)
                    sn = Ead.multiply(un, un)
                    sigma = eps2 * (nu_y - A * mu_x)
                    vn = _placed(n, field, 2, _vscale(t, w0), sigma)
                    xn = _unit(xi, n, field)
                    yn = _vscale(eps, _unit(yi, n, field))
                    yield [xn, yn, un, vn, sn]
            return 1, (alpha,), False, build

        # b parallel to a: variants 2 / 3
        A = (form.b(b, a)) / qa
        kappa = nu_y - A * mu_x
        if kappa.is_zero():
            def build(Ead, params):
                comp = form.orth_complement_basis([a])
                w0 = comp[0]
                qw0 = form.q(w0)
                for e in _roots(A.inverse()):
                    for tt in _roots(qa / qw0):
                        un = _placed(n, field, 2, a, mu_x)
                        sn = Ead.multiply(un, un)
                        vn = _placed(n, field, 2, _vscale(tt, w0))
                        yield [_unit(xi, n, field),
                               _vscale(e, _unit(yi, n, field)),
                               un, vn, sn]
            return 2, (), False, build

        def build_v3(Ead, params):
            comp = form.orth_complement_basis([a])
            w0 = comp[0]
            qw0 = form.q(w0)
            ex2 = kappa / (A * qa)
            for sx in _roots(ex2):
                for sy in _roots(ex2 / A):
                    for st in _roots(ex2 * ex2 * qa / qw0):
                        xn = _vscale(sx, _unit(xi, n, field))
                        un = Ead.multiply(xn, xn)
                        sn = Ead.multiply(un, un)
                        vn = _placed(n, field, 2, _vscale(st, w0))
                        yield [xn,
                               _vscale(sy, _unit(yi, n, field)),
                               un, vn, sn]
        return 3, (), False, build_v3

    # both squares isotropic
    dprime, h = form.hyperbolic_partner(a)
    gram = Matrix([[qa, h], [h, form.q(dprime)]], field, 2)
    cc = gram.inverse().apply([form.b(b, a), form.b(b, dprime)])
    c_plus, c_minus = cc  # b = c_plus a + c_minus d'

    def pair_cols(delta, sigma_u, sigma_v=None):
        u0, v0 = form.hyperbolic_pair(a, dprime, delta)
        return (_placed(n, field, 2, u0, sigma_u),
                _placed(n, field, 2, v0, sigma_v))

    if not c_minus.is_zero() and not c_plus.is_zero():
        raise SpecMismatch("isotropic squares must lie on isotropic lines")

    if c_minus.is_zero():
        rho = c_plus
        kappa = nu_y / rho - mu_x
        # variant 4 when kappa = 0; otherwise delta = kappa / h != 0
        variant = 4 if kappa.is_zero() else 5

        def build(Ead, params):
            eys = _roots(rho.inverse())
            un, vn = pair_cols(field.one() if variant == 4 else kappa / h,
                               mu_x)
            sn = Ead.multiply(un, un)
            for e in eys:
                yield [_unit(0, n, field),
                       _vscale(e, _unit(1, n, field)), un, vn, sn]
        return variant, (), False, build

    # b on the opposite isotropic line
    def build_v6(Ead, params):
        ey2 = field.from_int(2) / c_minus
        # shift the pair by tau*s: u -> u - i tau s, v -> v + tau s keeps
        # x^2 = u + iv while fixing the s-part of u - iv to match y^2
        i = field.i()
        tau = -i * (mu_x - ey2 * nu_y) / field.from_int(2)
        un, vn = pair_cols(field.one(), mu_x - i * tau, tau)
        sn = Ead.multiply(un, un)
        for e in _roots(ey2):
            yield [_unit(0, n, field),
                   _vscale(e, _unit(1, n, field)), un, vn, sn]
    return 6, (), False, build_v6


def _h_1211(Ead, tv):
    # adapted (x, y, u, v, s)
    n = Ead.dim
    field = Ead.field
    lam_u = Ead.structure[2, 4]
    lam_v = Ead.structure[3, 4]
    form = _DiagForm([lam_u, lam_v])
    by = [Ead.structure[1, 2], Ead.structure[1, 3]]
    mu_y = Ead.structure[1, 4]
    lam = Ead.structure[0, 1]
    ax = [Ead.structure[0, 2], Ead.structure[0, 3]]
    nu_x = Ead.structure[0, 4]
    qby = form.q(by)

    if not qby.is_zero():
        A = form.b(ax, by) / qby
        wvec = _vsub(ax, _vscale(A, by))
        qw = form.q(wvec)
        comp = form.orth_complement_basis([by])
        w0 = comp[0]
        qw0 = form.q(w0)

        def common_cols(ey, sy_shift, tvar):
            yn = _placed(n, field, 1, [ey], sy_shift)
            un = Ead.multiply(yn, yn)
            sn = Ead.multiply(un, un)
            vn = _placed(n, field, 2, _vscale(tvar, w0))
            return yn, un, sn, vn

        if A.is_zero() and all(x.is_zero() for x in wvec):
            def build(Ead, params):
                for t in _roots(lam ** 4 * qby / qw0):
                    yn, un, sn, vn = common_cols(lam, nu_x, t)
                    yield [_unit(0, n, field), yn, un, vn, sn]
            return 1, (), False, build

        if A.is_zero():
            def build_v2(Ead, params):
                # decompose the U_2 part of x^2 along w0
                B = form.b(ax, w0) / qw0
                for e2 in _roots(B * B * qw0 / (lam ** 4 * qby)):
                    for sx in _roots(e2):
                        yn, un, sn, vn = common_cols(
                            sx * sx * lam, sx * sx * nu_x, sx * sx * B)
                        yield [_vscale(sx, _unit(0, n, field)),
                               yn, un, vn, sn]
            return 2, (), False, build_v2

        beta2 = qw / (A * A * qby)
        beta = sqrt_if_square(beta2)
        if beta is None:
            raise SqrtUnavailable(
                f"the [1,2,1,1] parameter is not representable in {field}")

        def build_v3(Ead, params):
            (target,) = params
            B = form.b(ax, w0) / qw0
            ex2 = A / (lam * lam)
            ey = A / lam
            for t in _roots(ey ** 4 * qby / qw0):
                if ex2 * B / t != target:
                    continue
                for sx in _roots(ex2):
                    sy_shift = ex2 * (nu_x - A * mu_y)
                    yn, un, sn, vn = common_cols(ey, sy_shift, t)
                    yield [_vscale(sx, _unit(0, n, field)),
                           yn, un, vn, sn]
        return 3, (beta,), False, build_v3

    # second class: y^2 isotropic
    dprime, h = form.hyperbolic_partner(by)
    gram = Matrix([[qby, h], [h, form.q(dprime)]], field, 2)
    cc = gram.inverse().apply([form.b(ax, by), form.b(ax, dprime)])
    c_plus, c_minus = cc
    qax = form.q(ax)

    def second_class_cols(delta, base):
        """u, v, s for y scaled by base: the hyperbolic pair is built from
        the rescaled y's square (whose s-part y itself does not touch)."""
        yn = _placed(n, field, 1, [base])
        ysq = Ead.multiply(yn, yn)
        u0, v0 = form.hyperbolic_pair(ysq[2:4], dprime, delta)
        un = _placed(n, field, 2, u0, ysq[4])
        return un, _placed(n, field, 2, v0), Ead.multiply(un, un)

    if all(x.is_zero() for x in ax):
        def build_v4(Ead, params):
            # x^2 = lam y + nu_x s: fold into y
            un, vn, sn = second_class_cols(field.one(), lam)
            yn = _placed(n, field, 1, [lam], nu_x)
            yield from _both_signs([_unit(0, n, field), yn, un, vn, sn], 3)
        return 4, (), False, build_v4

    if not qax.is_zero():
        def build_v5(Ead, params):
            for sx in _roots(field.from_int(2) * c_plus / (lam * lam)):
                e2 = sx * sx
                un, vn, sn = second_class_cols(e2 * c_minus, e2 * lam)
                # absorb s-components into the y column
                yn = _placed(n, field, 1, [e2 * lam], e2 * nu_x - un[4])
                yield [_vscale(sx, _unit(0, n, field)), yn, un, vn, sn]
        return 5, (), False, build_v5

    # a_x isotropic and nonzero
    if c_minus.is_zero():
        def build_v6(Ead, params):
            for sx in _roots(c_plus / (lam * lam)):
                e2 = sx * sx
                un, vn, sn = second_class_cols(e2 * c_plus, e2 * lam)
                yn = _placed(n, field, 1, [e2 * lam], e2 * nu_x - un[4])
                yield from _both_signs(
                    [_vscale(sx, _unit(0, n, field)), yn, un, vn, sn], 3)
        return 6, (), False, build_v6

    def build_v7(Ead, params):
        # x's U_2 part lies on the opposite isotropic line
        un, vn, sn = second_class_cols(c_minus / field.from_int(2), lam)
        yn = _placed(n, field, 1, [lam], nu_x - un[4])
        yield from _both_signs([_unit(0, n, field), yn, un, vn, sn], 3)
    return 7, (), False, build_v7


def _h_1121(Ead, tv):
    # adapted (x, y, z, w, s)
    n = Ead.dim
    field = Ead.field
    p1, q1 = Ead.structure[1, 3], Ead.structure[1, 4]
    p2, q2 = Ead.structure[2, 3], Ead.structure[2, 4]
    gw = Ead.structure[3, 4]
    c1, c2 = Ead.structure[0, 1], Ead.structure[0, 2]
    c3, c4 = Ead.structure[0, 3], Ead.structure[0, 4]
    delta = q1 / p1 - q2 / p2

    if delta.is_zero():
        form = _DiagForm([p1, p2])
        c = [c1, c2]
        qc = form.q(c)
        if not qc.is_zero():
            comp = form.orth_complement_basis([c])
            w0 = comp[0]
            qw0 = form.q(w0)
            if c3.is_zero():
                def build(Ead, params):
                    yn = _placed(n, field, 1, c, c4)
                    wn = Ead.multiply(yn, yn)
                    sn = Ead.multiply(wn, wn)
                    for t in _roots(qc / qw0):
                        zn = _placed(n, field, 1, _vscale(t, w0))
                        yield [_unit(0, n, field), yn, zn, wn, sn]
                return 1, (), False, build

            def build_v2(Ead, params):
                for sx in _roots(c3 / qc):
                    e2 = sx * sx
                    xn = _vscale(sx, _unit(0, n, field))
                    xsq = Ead.multiply(xn, xn)
                    # y_n = x_n^2 minus its w,s tail beyond the U3 part
                    yn = _placed(n, field, 1, xsq[1:3],
                                 xsq[4] - e2 * c3 * (q1 / p1))
                    wn = Ead.multiply(yn, yn)
                    sn = Ead.multiply(wn, wn)
                    for t in _roots(e2 * e2 * qc / qw0):
                        zn = _placed(n, field, 1, _vscale(t, w0))
                        yield [xn, yn, zn, wn, sn]
            return 2, (), False, build_v2

        # isotropic top square
        dprime, h = form.hyperbolic_partner(c)

        def build_iso(Ead, params):
            delta_c = field.one() if c3.is_zero() else c3 / h
            y0, z0 = form.hyperbolic_pair(c, dprime, delta_c)
            yn = _placed(n, field, 1, y0, c4)
            zn = _placed(n, field, 1, z0)
            wn = Ead.multiply(yn, yn)
            sn = Ead.multiply(wn, wn)
            yield from _both_signs([_unit(0, n, field), yn, zn, wn, sn], 2)
        return (3 if c3.is_zero() else 4), (), False, build_iso

    # delta != 0: the two U_3 lines are intrinsic (only permutations and
    # scalings of them extend to natural basis changes)
    def role_data(Y):
        """Line Y as the template y and 3 - Y as z: (Z, p_Y, p_Z, c_Y,
        c_Z, the s-gap p_Y q_Z / p_Z - q_Y)."""
        Z = 3 - Y  # indices 1 and 2
        pY, qY, cY = (p1, q1, c1) if Y == 1 else (p2, q2, c2)
        pZ, qZ, cZ = (p2, q2, c2) if Y == 1 else (p1, q1, c1)
        return Z, pY, pZ, cY, cZ, pY * qZ / pZ - qY

    def v5_builder(Y):
        Z0, pY, pZ, cY, _, dpr = role_data(Y)

        def build(Ead, params):
            (target,) = params
            for sy in _roots(dpr / (pY * pY * gw)):
                if c3 / (cY * sy * pY) != target:
                    continue
                yn = _placed(n, field, Y, [sy])
                wn = Ead.multiply(yn, yn)
                sn = Ead.multiply(wn, wn)
                for sz in _roots(sy * sy * pY / pZ):
                    zn = _placed(n, field, Z0, [sz])
                    for sx in _roots(sy / cY):
                        xn = _vscale(sx, _unit(0, n, field))
                        xsq = Ead.multiply(xn, xn)
                        yshift = _placed(n, field, Y, [sy],
                                         xsq[4] - target * wn[4])
                        yield [xn, yshift, zn, wn, sn]
        return build

    def v6_builder(roles):
        def build(Ead, params):
            for Y in roles:
                Z0, pY, pZ, cY, cZ, dpr = role_data(Y)
                for sy in _roots(dpr / (pY * pY * gw)):
                    yn = _placed(n, field, Y, [sy])
                    wn = Ead.multiply(yn, yn)
                    sn = Ead.multiply(wn, wn)
                    for sz in _roots(sy * sy * pY / pZ):
                        realized_b = (sz / cZ) * cY / sy
                        realized_g = (sz / cZ) * c3 / (sy * sy * pY)
                        if (realized_b, realized_g) != tuple(params):
                            continue
                        for sx in _roots(sz / cZ):
                            xn = _vscale(sx, _unit(0, n, field))
                            xsq = Ead.multiply(xn, xn)
                            zshift = _placed(n, field, Z0, [sz],
                                             xsq[4] - realized_g * wn[4])
                            yield [xn, yn, zshift, wn, sn]
        return build

    if c1.is_zero() or c2.is_zero():
        # x couples to a single line; whether that line can serve as the
        # template y (x^2 = y + alpha w, the other line carrying the s
        # gap) is decided by a scaling invariant that must be a square
        Yc = 1 if c2.is_zero() else 2
        _, _, _, cYc, _, dprc = role_data(Yc)
        alpha = sqrt_if_square(c3 * c3 * gw / (cYc * cYc * dprc))
        if alpha is not None:
            return 5, (alpha,), False, v5_builder(Yc)
        # boundary configuration: x couples only to the template z line
        Yf = 3 - Yc
        _, pYf, pZf, _, cZf, dprf = role_data(Yf)
        gamma = sqrt_if_square(
            c3 * c3 * pYf * gw / (cZf * cZf * pZf * dprf))
        if gamma is None:
            raise SqrtUnavailable(
                f"the [1,1,2,1] parameter is not representable in {field}")
        return 6, (field.zero(), gamma), True, v6_builder([Yf])

    # both coefficients nonzero: variant 6
    cands = []
    for Y in (1, 2):
        _, pY, pZ, cY, cZ, dpr = role_data(Y)
        beta = sqrt_if_square((cY / cZ) ** 2 * pY / pZ)
        gamma = sqrt_if_square(c3 * c3 * pY * gw / (cZ * cZ * pZ * dpr))
        if beta is None or gamma is None:
            continue
        cands.append((beta, gamma))
    if not cands:
        raise SqrtUnavailable(
            f"the [1,1,2,1] parameters are not representable in {field}")
    params0 = min(cands,
                  key=lambda t: (order_key(t[0]), order_key(t[1])))
    return 6, params0, False, v6_builder([1, 2])


def _h_11111(Ead, tv):
    n = Ead.dim
    field = Ead.field
    a2, a3, a4 = Ead.structure[0, 1], Ead.structure[0, 2], Ead.structure[0, 3]
    b3, b4 = Ead.structure[1, 2], Ead.structure[1, 3]
    c4 = Ead.structure[2, 3]

    if not b4.is_zero():
        eps22 = b4 / (b3 * b3 * c4)
        eps2s = _roots(eps22)  # the forced scalings of x2
        if eps2s:
            cands = [(a3 / (e * a2 * b3),
                      a4 / (e ** 3 * a2 * b3 * b3 * c4))
                     for e in eps2s]
        elif a3.is_zero() and a4.is_zero():
            cands = [(field.zero(), field.zero())]
        else:
            raise SqrtUnavailable(
                f"the chain-family parameters are not representable "
                f"in {field}")
        params0 = min(cands, key=lambda t: (order_key(t[0]),
                                            order_key(t[1])))

        def build_v4(Ead, params):
            for e2 in eps2s:
                realized = (a3 / (e2 * a2 * b3),
                            a4 / (e2 ** 3 * a2 * b3 * b3 * c4))
                if realized != tuple(params):
                    continue
                y3 = _placed(n, field, 2, [eps22 * b3])
                y4 = Ead.multiply(y3, y3)
                y5 = Ead.multiply(y4, y4)
                for s1 in _roots(e2 / a2):
                    x2n = _vscale(e2, _unit(1, n, field))
                    x1n = _vscale(s1, _unit(0, n, field))
                    x1sq = Ead.multiply(x1n, x1n)
                    used = _vadd(_vadd(x2n, _vscale(realized[0], y3)),
                                 _vscale(realized[1], y4))
                    # x2's column absorbs the leftover x5 component
                    x2shift = list(x2n)
                    x2shift[4] = x2shift[4] + (x1sq[4] - used[4])
                    # x2's own square closes on y3 + y4 via a y3 shift
                    x2sq = Ead.multiply(x2shift, x2shift)
                    y3shift = list(y3)
                    y3shift[4] = y3shift[4] + (x2sq[4] - y3[4] - y4[4])
                    yield [x1n, x2shift, y3shift, y4, y5]
        return 4, params0, False, build_v4

    if not a3.is_zero():
        e12 = a3 / (a2 * a2 * b3)
        alpha = a4 * a2 * a2 * b3 / (a3 ** 3 * c4)

        def build_v3(Ead, params):
            for s1 in _roots(e12):
                x1n = _vscale(s1, _unit(0, n, field))
                x1sq = Ead.multiply(x1n, x1n)
                y2 = _placed(n, field, 1, [e12 * a2])
                y3 = Ead.multiply(y2, y2)
                y4 = Ead.multiply(y3, y3)
                used = _vadd(_vadd(y2, y3), _vscale(alpha, y4))
                y2shift = list(y2)
                y2shift[4] = y2shift[4] + (x1sq[4] - used[4])
                yield [x1n, y2shift, y3, y4, Ead.multiply(y4, y4)]
        return 3, (alpha,), False, build_v3

    if not a4.is_zero():
        def build_v2(Ead, params):
            e6 = a4 / (a2 ** 4 * b3 * b3 * c4)
            try:
                e2 = _cbrt(e6)
            except SqrtUnavailable:
                return
            for s in _roots(e2):
                x1n = _vscale(s, _unit(0, n, field))
                x1sq = Ead.multiply(x1n, x1n)
                y2 = _placed(n, field, 1, [e2 * a2])
                y3 = Ead.multiply(y2, y2)
                y4 = Ead.multiply(y3, y3)
                used = _vadd(y2, y4)
                y2shift = list(y2)
                y2shift[4] = y2shift[4] + (x1sq[4] - used[4])
                yield [x1n, y2shift, y3, y4, Ead.multiply(y4, y4)]
        return 2, (), False, build_v2

    return 1, (), False, _chain_builder


# ---------------------------------------------------------------------------
# ann-dim-2 types

def _h_23(Ead, tv):
    n = Ead.dim
    field = Ead.field
    sqs = [[Ead.structure[k, 3], Ead.structure[k, 4]] for k in range(3)]

    def dep(u, v):
        return (u[0] * v[1] - u[1] * v[0]).is_zero()

    for i in range(3):
        for j in range(i + 1, 3):
            if dep(sqs[i], sqs[j]):
                k = 3 - i - j
                # split off span{e_k, e_k^2}
                ops = field.ops
                basis = [_unit_row(i, n, ops), _unit_row(j, n, ops),
                         Ead._rows[i], _unit_row(k, n, ops), Ead._rows[k]]
                return _split_in_basis(Ead, basis, [[0, 1, 2], [3, 4]])

    def build(Ead, params):
        # pick the frame (x, z) = (0, 2); decompose e1^2 = al x^2 + be z^2
        gram = Matrix([[sqs[0][0], sqs[2][0]],
                       [sqs[0][1], sqs[2][1]]], field, 2)
        al, be = gram.inverse().apply(sqs[1])
        for fa in _roots(al):
            for fb in _roots(be):
                xn = _vscale(fa, _unit(0, n, field))
                zn = _vscale(fb, _unit(2, n, field))
                yield [xn, _unit(1, n, field), zn,
                       Ead.multiply(xn, xn), Ead.multiply(zn, zn)]
    return 1, (), False, build


def _h_221(Ead, tv):
    n = Ead.dim
    field = Ead.field
    al, be = Ead.structure[0, 1], Ead.structure[0, 2]
    if al.is_zero() or be.is_zero():
        drop = 1 if al.is_zero() else 2
        ops = field.ops
        x2 = Ead._rows[0]
        basis = [_unit_row(0, n, ops), x2, _product(Ead._rows, x2, x2, ops),
                 _unit_row(drop, n, ops), Ead._rows[drop]]
        return _split_in_basis(Ead, basis, [[0, 1, 2], [3, 4]])

    def build(Ead, params):
        x2 = Ead.square_of_basis(0)
        ann_part = _placed(n, field, 3, x2[3:])
        an = _vadd(_vscale(al, _unit(1, n, field)), ann_part)
        bn = _vscale(be, _unit(2, n, field))
        yield [_unit(0, n, field), an, bn,
               Ead.multiply(an, an), Ead.multiply(bn, bn)]
        # or put the annihilator tail on b instead
        an2 = _vscale(al, _unit(1, n, field))
        bn2 = _vadd(_vscale(be, _unit(2, n, field)), ann_part)
        yield [_unit(0, n, field), an2, bn2,
               Ead.multiply(an2, an2), Ead.multiply(bn2, bn2)]
    return 1, (), False, build


def _h_212(Ead, tv):
    n = Ead.dim
    field = Ead.field
    cx = Ead.structure[0, 2]
    cy = Ead.structure[1, 2]

    def build(Ead, params):
        an = Ead.square_of_basis(0)  # = c_x a + annihilator tail
        un = Ead.multiply(an, an)
        for s in _roots(cx / cy):
            yn = _vscale(s, _unit(1, n, field))
            vn = _vsub(Ead.multiply(yn, yn), an)
            yield [_unit(0, n, field), yn, an, un, vn]
    return 1, (), False, build


def _h_2111(Ead, tv):
    raise SpecMismatch(
        "type [2,1,1,1] is always decomposable; the split stages should "
        "have handled it")


_HANDLERS = {
    (1, 1): _h_chain,
    (1, 2): _h_star,
    (1, 1, 1): _h_chain,
    (1, 3): _h_star,
    (1, 2, 1): _h_1n1,
    (1, 1, 2): _h_11n,
    (1, 1, 1, 1): _h_111n,
    (1, 4): _h_star,
    (1, 3, 1): _h_1n1,
    (1, 1, 3): _h_11n,
    (1, 1, 1, 2): _h_111n,
    (1, 2, 2): _h_122,
    (1, 2, 1, 1): _h_1211,
    (1, 1, 2, 1): _h_1121,
    (1, 1, 1, 1, 1): _h_11111,
    (2, 3): _h_23,
    (2, 2, 1): _h_221,
    (2, 1, 2): _h_212,
    (2, 1, 1, 1): _h_2111,
}
