"""Classification of nilpotent evolution algebras of dimension at most 5.

``classify`` maps an algebra presented in a natural basis to its
canonical label, and ``normal_form`` to the ``Classification`` that
holds the label and its witness basis: first each peels off direct-sum
decompositions that can be realized by natural bases (graph
components, an annihilator vector outside E^2, a large annihilator,
and the [2,3] and [2,2,1] splits of dim ann = 2), all found by the one
split stage ``algebra._natural_split`` that ``decomposability_check``
shares, then it reorders the basis into blocks adapted to the upper
annihilating series and runs a per-type normalizer that extracts the
variant and the normalized parameters.  No normalizer splits.

Labels are field-independent data (parameters are extracted through
rational expressions plus canonical square roots); witness bases, which
realize the template by an explicit change of basis, may need roots that
the coefficient field lacks.  Each normalizer hands over a builder that
yields candidate bases, one per choice of the square roots it needs; a
root missing from the field simply yields no candidate, and a template
that needs i has none over a field without i.  Most builders are one of
three constructions on the paper's data, a nondegenerate diagonal form
and the slopes of commuting diagonalizable maps: the powers of x
(``_powers``, which the one-dimensional zero algebra takes like any
chain), the frame of a line against the form and the paper's scaling of
the families Ubg and Ubfg, types [1,1,m] and [1,1,1,m] (``_h_slopes``).
The frame takes a generator g and a second column g2 whose part a on
the form's block is anisotropic (``_line_frame``: g, g2, a's complement
scaled to q(a), squares of g2) or isotropic (``_pair_frame``: g, the
hyperbolic pair u + iv = a, squares of u).  It serves [1,m,1] and the
proportional [1,1,2,1] on x (``_frame``), the [1,2,1] algebra inside
[1,2,2] (on x) and [1,2,1,1] (on y), and the [1,1,2,1] variant 2 (on
y).  Two types build their variants through one construction each:
the [1,1,2,1] variants 5 and 6 put the tail of either U_3 line under x
as the template y (one builder over the roles of the two lines), and
the [1,1,1,1,1] variants 2-4 take one tower x1, x2, y3 and y3's powers,
shifted on s (``_h_11111``).  When no candidate realizes the template
the label carries a no-witness flag.  The normalizer builds and
verifies the witness basis once, in the same pass that produces the
label, and ``witness_isomorphism`` composes the witnesses of the two
``normal_form`` results instead of normalizing again.

Everything below the public boundary computes on raw payloads through
the field's ``ops`` table: the split stage, the adapted reorder,
the per-type normalizers (they read the structure rows, take roots
with ``ops.sqrt`` and ``ops.cbrt`` and divide with ``ops.div``, which
raises DivisionByZero), their builders (payload columns, products by
``ops.product``), the templates' rows and the witness check.
``classify`` makes no change of natural basis:
``algebra._split_summands`` gives every summand of a split as a
selection of E's own rows and columns (a graph component, the quotient
of an annihilator split), as the length of a chain (each e_k of C, each
pair of the dim/2 pairing, the [2,2,1] summands and one [2,3] summand)
or as the algebra with rows [[0, 0, 1], [0, 0, c], [0, 0, 0]] read off
E's entries (the other [2,3] summand); the lemmas are in
``algebra._natural_split``, ``algebra._annihilator_split`` and
``algebra._two_block_split``.  Nor does it invert a matrix: the
coordinates the normalizers take in a plane are closed forms in an
orthogonal or a hyperbolic basis, or Cramer's rule, and the
complement of a line in a plane is a closed form too
(``_DiagForm.orth_complement_basis``).  The summands given as chain
lengths are labelled without being classified, and so is each summand
of dimension 2 or 3 whose own series is [1,1] or [1,1,1]: in dims 2 and
3 that type has one table entry, which the powers of the top vector
realize over every field (the chain lemma of ``_natural_split``).
Every other summand is classified as the algebra it is, with its own
series and the same split stage as an input, so each label that carries
a witness still has one verified;
a Decomposed label carries none.  Each witness candidate gets one call
of the field's ``ops.realizes``, the product test and the rank test of
``verify_hom``.
``FieldElement`` values appear only at the public boundary: a
normalizer's raw parameters are wrapped once, to pick their orbit
representative for the label, ``classify`` builds no witness matrix,
and ``normal_form`` wraps the one witness it returns.
A label without parameters is not built per call: one shared object per
(dim, type vector, variant, boundary, no_witness), with its
serialization, serves every algebra and field (``_LABELS``).  The
witness stays in the adapted coordinates the builder gives it, for
``classify`` and for every summand of a split; only ``normal_form``
writes it in E's coordinates.

The invariants that decide the split are read off index sets of the
natural basis: the series blocks (its chain of subspaces is never
built), ann(E) as the indices of the zero squares, and the part C of
the split along an annihilator vector outside E^2 from
``algebra._annihilator_split``, which pivots on the squares that are a
multiple of one e_k of ann and eliminates only the other squares, over
the other columns: none when every e_k of ann is such a multiple.
Supports are int bitmasks, so the cross products of the witness check
(``FieldOps.realizes``) are computed only for two columns whose supports
meet on the nonzero squares.  No split is searched for in an algebra
or summand whose annihilator, the series' first block, has one index:
every summand of a direct sum adds its own nonzero annihilator, so such
an algebra has no split (the one-dimensional annihilator lemma of
``algebra._natural_split``).  A template's payload rows are built
only once a builder yields its first candidate, and those of a
parameter-free template once per field.  Cube roots over
Q and Q(i) are exact at any size (``fields._frac_root``: an integer cube
root of the numerator and of the denominator).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from ._values import Frozen, Value, set_fields
from .errors import (
    NotNilpotent,
    SpecMismatch,
    SqrtUnavailable,
    UnsupportedDim,
)
from .fields import PRIME, FieldElement
from .linalg import Matrix, _kernel_rows, _unit_row
from .algebra import (EvolutionAlgebra, _natural_split, _split_summands,
                      _subalgebra, upper_series)
from .tables import find_entry, orbit_min
from .oracle import _bounded_iso, verify_hom


class CanonicalLabel(Frozen):
    """The canonical label of an indecomposable algebra: its table entry
    (dim, type vector, variant), the orbit representative of its
    parameters, and the boundary and no-witness flags.  A label without
    parameters may be an object that ``classify`` shares between all
    algebras it labels alike (``_shared_label``), so callers compare
    labels with ``==`` or ``labels_equal``, never by identity."""

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


class Classification(Value):
    """What ``normal_form`` returns: E's label, and the verified witness
    basis as a Matrix m such that x -> m.x carries the template of the
    label onto E (m's columns are the template's natural basis in E's
    coordinates); the witness is None for a Decomposed label and
    whenever the label carries no_witness."""

    __slots__ = _fields = ("label", "witness")

    def __init__(self, label, witness: Matrix | None):
        self.label = label
        self.witness = witness


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
# payload vector helpers for the normalizers (rows of one field's payloads,
# arithmetic through its ops table)

def _placed(ops, n, start, coords, last=None):
    """The length-n row with coords at start, start + 1, ... and, when
    given, ``last`` as its final (annihilator) coordinate."""
    v = [ops.zero] * n
    v[start:start + len(coords)] = coords
    if last is not None:
        v[n - 1] = last
    return v


def _power(ops, x, k):
    """x^k for k >= 1."""
    out = x
    for _ in range(k - 1):
        out = ops.mul(out, x)
    return out


def _shifted(ops, v, by):
    """The row v with by added to its last (annihilator) coordinate."""
    return v[:-1] + [ops.add(v[-1], by)]


def _sq(Ead, v):
    """The square of the row v in Ead."""
    return Ead.field.ops.product(Ead._rows, v, v)


def _squares(Ead, v, k):
    """The k successive squares v^2, (v^2)^2, ... of the row v in Ead."""
    out = []
    for _ in range(k):
        v = _sq(Ead, v)
        out.append(v)
    return out


def _roots(ops, x) -> tuple:
    """The square roots of x: (r, -r), or (0,) when x is 0, or () when x
    is not a square in its field.  A builder loops over them, so a missing
    root yields no candidate."""
    r = ops.sqrt(x)
    if r is None:
        return ()
    return (r,) if r == ops.zero else (r, ops.neg(r))


def _both_signs(ops, cols, k):
    """The candidate cols, then cols with column k negated."""
    yield cols
    yield cols[:k] + [[ops.neg(x) for x in cols[k]]] + cols[k + 1:]


def _root_choices(ops, xs):
    """Every choice of one square root of each x in xs, the first choice
    changing fastest; no choice at all when some x is not a square."""
    for picks in itertools.product(*[_roots(ops, x) for x in reversed(xs)]):
        yield picks[::-1]


# ---------------------------------------------------------------------------
# diagonal quadratic form utilities

class _DiagForm:
    """The form Q(v) = sum v_k^2 d_k on a coordinate space of payloads,
    built on a block U of the adapted basis, where the type makes it
    nondegenerate, for the frames of ``_line_frame`` and ``_pair_frame``
    (types [1,m,1], [1,2,2], [1,2,1,1] and [1,1,2,1]).  ``b`` and ``q``
    are one call of the field's ``wdot`` kernel with the diagonal d.
    L1: each d_k, the coefficient of a U square on the block below (s, or
    w for [1,1,2,1]), is nonzero, or that basis vector would lie a block
    lower; so is each vector whose partner or complement is sought (a
    nonzero multiple of the U-part of x^2 or y^2, or of (c_1, c_2)).
    So b(a, e_k) = a_k d_k != 0 for some k.  L2: each span whose complement is taken is an
    anisotropic line or a hyperbolic plane, so the complement is
    nondegenerate and no member of an orthogonal basis of it is
    isotropic."""

    def __init__(self, ops, diag):
        self.ops = ops
        self.diag = list(diag)

    def q(self, v):
        return self.ops.wdot(v, v, self.diag)

    def b(self, u, v):
        return self.ops.wdot(u, v, self.diag)

    def orth_complement_basis(self, vecs):
        """An orthogonal basis of the orthogonal complement of span(vecs),
        with anisotropic members (L2).  The complement of one vector a in
        a plane is the line of the reduced kernel vector of c = (a_0 d_0,
        a_1 d_1), c != 0 (L1), written in closed form: [0, 1] if c_1 = 0,
        [1, 0] if c_0 = 0, else [1, -c_0 / c_1], what ``_kernel_rows``
        returns after its second reduction; an anisotropic line (L2) is
        its own orthogonal basis."""
        ops = self.ops
        Z, mul = ops.zero, ops.mul
        m = len(self.diag)
        if m == 2 and len(vecs) == 1:
            c0, c1 = [mul(x, d) for x, d in zip(vecs[0], self.diag)]
            if c1 == Z:
                return [[Z, ops.one]]
            if c0 == Z:
                return [[ops.one, Z]]
            return [[ops.one, ops.neg(ops.div(c0, c1))]]
        rows = [[mul(x, d) for x, d in zip(v, self.diag)] for v in vecs]
        basis = _kernel_rows(rows, m, ops)[0]
        # Gram-Schmidt
        out = []
        while basis:
            pick = next((v for v in basis if self.q(v) != Z), None)
            if pick is None:
                # every member is isotropic, so some u + v is not (L2):
                # q(u + v) = 2 b(u, v)
                for i, j in itertools.combinations(range(len(basis)), 2):
                    if self.b(basis[i], basis[j]) != Z:
                        pick = basis[i] = ops.addmul(basis[i], ops.one,
                                                     basis[j])
                        break
            basis.remove(pick)
            out.append(pick)
            qp = self.q(pick)
            basis = [ops.addmul(v, ops.neg(ops.div(self.b(v, pick), qp)),
                                pick)
                     for v in basis]
            basis = [v for v in basis if any(x != Z for x in v)]
        return out

    def hyperbolic_partner(self, a):
        """For isotropic a != 0: an isotropic d' with b(a, d') != 0, and
        b(a, d')."""
        ops = self.ops
        m = len(self.diag)
        # some e_k has b(a, e_k) != 0 (L1); no bare next(): generators call it
        for k in range(m):
            d = _unit_row(k, m, ops)
            h0 = self.b(a, d)
            if h0 != ops.zero:
                break
        two = ops.of_int(2)
        d2 = ops.addmul(d, ops.neg(ops.div(self.q(d), ops.mul(two, h0))),
                        a)
        return d2, self.b(a, d2)

    def hyperbolic_pair(self, a, d, delta):
        """u = a/2 + delta d and v = -i (a/2 - delta d), so that u + iv = a:
        for isotropic a and an isotropic partner d the form takes the
        common value q(u) = q(v) = delta b(a, d) on them, and b(u, v) = 0."""
        ops = self.ops
        half_a = ops.scale(ops.div(ops.one, ops.of_int(2)), a)
        return (ops.addmul(half_a, delta, d),
                ops.scale(ops.neg(ops.i),
                          ops.addmul(half_a, ops.neg(delta), d)))


# ---------------------------------------------------------------------------
# the classifier

def classify(E: EvolutionAlgebra):
    """Canonical label of E, or the Decomposed list of summand labels."""
    return _classify(E)[0]


def normal_form(E: EvolutionAlgebra) -> Classification:
    """The label of E and its verified witness basis (``Classification``).
    The normalizer's accepted columns are in the adapted coordinates,
    E's coordinate perm[k] being the adapted basis' k-th; only here are
    they written in E's coordinates and wrapped, and ``classify`` never
    builds them."""
    label, witness = _classify(E)
    if witness is None:
        return Classification(label, None)
    perm, cols = witness
    rows = [None] * E.dim
    for k, row in enumerate(zip(*cols)):
        rows[perm[k]] = list(row)
    return Classification(label, Matrix._wrap(rows, E.field, E.dim))


def _classify(E, series=None):
    """The label of E and its verified witness as (perm, the accepted
    payload columns in the adapted coordinates ``perm`` orders), None for
    Decomposed labels and whenever the label carries no_witness; series
    is E's, when the caller has computed it.

    The split stage and its summands are ``algebra``'s: every summand
    that ``_split_summands`` gives is an algebra in its own right, with
    its own natural basis, which ``_gather`` classifies as one, or the
    length of a chain that a lemma identifies, which takes the chain's
    label unclassified.  No split is searched for when the series' first
    block, ann(E), has one index: such an E has no split (the
    one-dimensional annihilator lemma of ``_natural_split``)."""
    if E.dim > 5:
        raise UnsupportedDim("classification covers dimension at most 5")
    if series is None:
        series = upper_series(E)
        if not series.nilpotent:
            raise NotNilpotent("classification applies to nilpotent algebras")

    split = None if len(series.blocks[0]) == 1 else _natural_split(E, series)
    if split is not None:
        return _gather(_split_summands(E, *split)), None
    return _normalize(E, series)


# the parameter-free labels: (dim, type vector, variant, boundary,
# no_witness) -> (serialization, label), each pair built on first use.
# A CanonicalLabel is immutable, so one object serves every algebra that
# takes the label, over every field, and its serialization, _gather's
# sort key, is built once per process
_LABELS: dict = {}


def _shared_label(dim, type_vector, variant, boundary=False,
                  no_witness=False):
    """The table's (serialization, label) pair for a parameter-free
    label."""
    key = (dim, type_vector, variant, boundary, no_witness)
    pair = _LABELS.get(key)
    if pair is None:
        label = CanonicalLabel(dim, type_vector, variant, (), boundary,
                               no_witness)
        pair = _LABELS[key] = (label.serialize(), label)
    return pair


def _gather(parts):
    """The Decomposed label of the summands, each given as its algebra
    or, when a lemma identified it, as the length n of the n-chain.

    Each algebra's series is computed once and handed to ``_classify``.
    A summand of dim n <= 3 whose series has n blocks of one index each
    is the n-chain (the chain lemma of ``algebra._natural_split``), and
    it takes the chain's label without being classified.  The labels are
    sorted by serialization: a parameter-free label's is the one stored
    with it in ``_LABELS``, and only a label with parameters builds its
    string here."""
    keyed = []
    for part in parts:
        if isinstance(part, int):
            keyed.append(_shared_label(part, (1,) * part, 1))
            continue
        series = upper_series(part)
        if len(series.blocks) == part.dim <= 3:
            keyed.append(_shared_label(part.dim, (1,) * part.dim, 1))
            continue
        res = _classify(part, series)[0]
        for label in res.labels if isinstance(res, Decomposed) else (res,):
            keyed.append((label.serialize(), label) if label.params else
                         _shared_label(label.dim, label.type_vector,
                                       label.variant, label.boundary,
                                       label.no_witness))
    keyed.sort(key=itemgetter(0))
    return Decomposed([label for _, label in keyed])


def _normalize(E, series):
    """Adapted reorder + per-type normalizer for an algebra that the
    split stage does not split: (label, (perm, witness columns) or
    None).  The normalizer's raw parameters are wrapped here, once, to
    pick the orbit representative that the label carries; a label
    without parameters is the shared one of ``_LABELS``."""
    tv = tuple(series.type_vector)
    perm = [i for blk in reversed(series.blocks) for i in blk]
    field = E.field
    Ead = _subalgebra(E._rows, perm, field)
    handler = _HANDLERS.get(tv)
    if handler is None:
        raise SpecMismatch(f"no normalizer for type {list(tv)}")
    variant, params, boundary, builder = handler(Ead, tv)
    entry = find_entry(E.dim, tv, variant)
    if params:
        params = orbit_min(entry, tuple(FieldElement(field, x)
                                        for x in params), field)
    cols = _witness_basis(Ead, entry, params, builder)
    if params:
        label = CanonicalLabel(E.dim, tv, variant, params, boundary,
                               cols is None)
    else:
        label = _shared_label(E.dim, tv, variant, boundary, cols is None)[1]
    return label, None if cols is None else (perm, cols)


def _witness_basis(Ead, entry, params, builder):
    """The payload columns, in Ead's coordinates, of a witness basis
    verified against the template: each candidate the builder yields
    (handed the payloads of params) is checked against Ead by the
    field's ``ops.realizes``, the product test and the rank test of
    ``verify_hom``.  Ead is E in a reordered natural basis, which is
    natural too, so this is the test against E itself; the accepted
    columns are returned as the builder gave them, and only
    ``normal_form`` writes them in E's coordinates.  None when no
    candidate realizes the template: a builder yields no candidate for a
    square root the field lacks, and a template that needs i has no
    witness over a field without i.  The template's rows are built only
    once a candidate exists."""
    field = Ead.field
    if entry.needs_i and not field.has_i:
        return None
    template_rows = None
    realizes, A2 = field.ops.realizes, Ead._rows
    for cols in builder(Ead, field.payloads(params)):
        if template_rows is None:
            template_rows = _template_rows(entry, params, field)
        if realizes(template_rows, A2, cols):
            return cols
    return None


# payload rows of the parameter-free templates, per (entry key, field);
# parametrised templates are not kept, as over Q there is no bound on
# how many distinct parameter tuples come by
_TEMPLATE_ROWS: dict = {}


def _template_rows(entry, params, field) -> list[list]:
    """The payload structure rows of entry's template over field, built
    by ``entry.template_rows`` (which checks params and the need for i);
    those of a parameter-free template are built once per field."""
    if params:
        return entry.template_rows(params, field)
    key = (entry.key(), field)
    rows = _TEMPLATE_ROWS.get(key)
    if rows is None:
        rows = _TEMPLATE_ROWS[key] = entry.template_rows(params, field)
    return rows


def witness_isomorphism(E1: EvolutionAlgebra, E2: EvolutionAlgebra):
    """Change-of-basis matrix carrying E1's products to E2's, when the
    labels agree and the needed roots exist; None when labels differ.
    Raises MixedFields when the two fields differ, and SqrtUnavailable,
    whose message says whether the failure is conclusive, when the
    labels agree but no witness is found: a Decomposed label carries no
    witness and gets no search, over Q and Q(i) no search runs, an
    exhaustive search over GF(p) that finds nothing shows that no
    isomorphism exists over GF(p), and a randomized one does not.  When
    both labels carry a witness their composition is the answer, with no
    search; should it fail verify_hom, that is a fault in the library,
    raised as AssertionError (explicitly, so python -O keeps it)."""
    E1.field.require(E2.field)
    c1, c2 = normal_form(E1), normal_form(E2)
    if not labels_equal(c1.label, c2.label):
        return None
    return _compose(E1, E2, c1, c2)


def _compose(E1, E2, c1, c2):
    """``witness_isomorphism``'s answer for E1 and E2 over one field,
    from their normal forms c1 and c2, whose labels agree."""
    if E1 == E2:
        return Matrix.identity(E1.dim, E1.field)
    if c1.witness is not None and c2.witness is not None:
        # both witnesses carry the template of one label onto E1 and E2,
        # so only a fault in the library can fail this check
        m = c2.witness * c1.witness.inverse()
        if not verify_hom(E1, E2, m):
            raise AssertionError("composed witness failed re-verification")
        return m
    field = E1.field
    if isinstance(c1.label, Decomposed):
        why = "a Decomposed label carries no witness and gets no search"
    elif field.kind != PRIME:
        why = f"no search runs over {field}"
    else:
        # root-free fallback over finite fields: an oracle search that
        # tests at most 200,000 block-patterned matrices
        m, exhaustive = _bounded_iso(E1, E2)
        if m is not None:
            return m
        if exhaustive:
            raise SqrtUnavailable(f"labels agree but the exhaustive search "
                                  f"found none, so no isomorphism exists "
                                  f"over {field}")
        why = "a randomized search found none"
    raise SqrtUnavailable(f"labels agree but no witness was found over "
                          f"{field}: {why}, so an isomorphism may still "
                          f"exist")


# ---------------------------------------------------------------------------
# per-type normalizers.  Each receives the algebra in adapted coordinates
# (top block first, annihilator last), which the split stage did not
# split, reads its payload rows, and returns (variant, raw payload
# params, boundary, builder); none of them splits.  A builder receives
# the payloads of the label's params and yields candidate bases as
# payload columns, one per choice of the square roots it needs (_roots);
# it never raises for a missing root, it just yields nothing more.
# Three constructions serve several types: the powers of x (_powers:
# chains, the zero algebra, stars, and equal data of [1,1,m] and
# [1,1,1,m]), the frame of a line against the form
# (_line_frame and _pair_frame: [1,m,1] and the proportional [1,1,2,1]
# through _frame, [1,2,2], [1,2,1,1] and the [1,1,2,1] variant 2), the
# paper's scaling of the families Ubg and Ubfg ([1,1,m] and [1,1,1,m],
# _h_slopes), the role builder of the [1,1,2,1] variants 5 and 6 and the
# tower of the [1,1,1,1,1] variants 2, 3 and 4.

def _powers(m):
    """The builder of the basis x = e_0, then t_k e_k for the other e_k of
    the top block (its first m indices), each scaled by a root of
    lam_0 / lam_k, lam_k being the entry of e_k^2 at index m, then x^2,
    (x^2)^2, ... down to the last block."""
    def build(Ead, params):
        n, S, ops = Ead.dim, Ead._rows, Ead.field.ops
        tail = [S[0]] + _squares(Ead, S[0], n - m - 1) if n > m else []
        for ts in _root_choices(ops, [ops.div(S[0][m], S[k][m])
                                      for k in range(1, m)]):
            yield ([_unit_row(0, n, ops)]
                   + [_placed(ops, n, k, [t]) for k, t in enumerate(ts, 1)]
                   + tail)
    return build


def _h_powers(Ead, tv):
    """Chains (the zero algebra among them) and stars [1, m]: the top
    block's squares all lie on one line, so the powers of x."""
    return 1, (), False, _powers(tv[-1])


def _line_frame(Ead, form, g, g2, start, count):
    """The frame for a column g2 whose part a on the form's block U
    (from index start) is anisotropic: the candidates g, g2, then the
    orthogonal complement of a scaled to q(a), then count squares of g2.
    One candidate per choice of the complement's scalings t_k, t_k^2
    q(w_k) = q(a), the first changing fastest; the squares are taken
    once a choice exists."""
    ops, n = Ead.field.ops, Ead.dim
    a = g2[start:start + len(form.diag)]
    qa = form.q(a)
    comp = form.orth_complement_basis([a])
    tail = None
    for ts in _root_choices(ops, [ops.div(qa, form.q(w)) for w in comp]):
        if tail is None:
            tail = _squares(Ead, g2, count)
        yield ([g, g2] + [_placed(ops, n, start, ops.scale(t, w))
                          for t, w in zip(ts, comp)] + tail)


def _pair_frame(Ead, form, g, g2, dprime, delta, start, count):
    """The frame for a column g2 whose part a on the form's block U
    (from index start) is isotropic: the candidate g, then the hyperbolic
    pair u, v with u + iv = a at delta for a's isotropic partner dprime
    (``_DiagForm.hyperbolic_pair``), u carrying g2's annihilator
    coordinate, then count squares of u."""
    ops, n = Ead.field.ops, Ead.dim
    u, v = form.hyperbolic_pair(g2[start:start + len(form.diag)], dprime,
                                delta)
    u = _placed(ops, n, start, u, g2[n - 1])
    return [g, u, _placed(ops, n, start, v)] + _squares(Ead, u, count)


def _frame(Ead, diag, k, variants):
    """The frame of x: adapted (x, u_1..u_m, ..., s) with x^2 = a +
    k e_(m+1) + ... + mu s, a in U = span(u_i) and diag the coefficients
    on e_(m+1) of the u squares (for [1,m,1], e_(m+1) = s and k = 0).
    Variant variants[0] when a is anisotropic: the line frame of x.
    Variant variants[1] when a is isotropic: the pair frame of x, with
    the complement of the pair after v, and v in both signs.  The pair's
    common square value q(u) = q(v) is q of the complement when there is
    one, else k when k != 0, else b(a, d').
    L3: m is 2 or 3 (dim <= 5), so the complement of a hyperbolic plane
    in U has dimension m - 2 <= 1."""
    n, m = Ead.dim, len(diag)
    S, ops = Ead._rows, Ead.field.ops
    form = _DiagForm(ops, diag)
    a = S[0][1:1 + m]
    x = _unit_row(0, n, ops)

    if form.q(a) != ops.zero:
        def build(Ead, params):
            return _line_frame(Ead, form, x, S[0], 1, n - 1 - m)
        return variants[0], (), False, build

    def build_iso(Ead, params):
        dprime, h = form.hyperbolic_partner(a)
        # at most one complement direction (L3), anisotropic (L2); it sets
        # the common square value, so it enters unscaled
        comp = form.orth_complement_basis([a, dprime])
        top = form.q(comp[0]) if comp else k
        cols = _pair_frame(Ead, form, x, S[0], dprime,
                           ops.div(top, h) if top != ops.zero else ops.one,
                           1, n - 1 - m)
        cols[3:3] = [_placed(ops, n, 1, w) for w in comp]
        yield from _both_signs(ops, cols, 2)
    return variants[1], (), False, build_iso


def _h_1n1(Ead, tv):
    """Type [1,m,1], adapted (x, u_1..u_m, s): the frame of x against
    the form of the u squares on s."""
    S = Ead._rows
    return _frame(Ead, [S[1 + j][-1] for j in range(tv[1])],
                  Ead.field.ops.zero, (1, 2))


def _h_slopes(Ead, tv):
    """Types [1,1,m] and [1,1,1,m], the paper's families Ubg and Ubfg,
    adapted (u_1..u_m, w, [t,] s), whose data are read off the rows:
    u_k^2 = lam_k (w + f_k w^2 + g_k (w^2)^2) for Ubfg (e = 3), and
    u_k^2 = lam_k (w + g_k w^2) for Ubg (e = 1, f = 0).  Equal data
    (f = 0, one g) give the powers of u_1.  Otherwise the variant's
    params fix the template's slots u_j^2 = w + F_j t + G_j s (no t for
    Ubg): the base slot is the last with G = 0, F is 1 on the first slot
    with F != 0, if any, and else G is 1 on the gap slot.

    Lemma (the paper's scaling (lam, f, g) -> (alpha lam, alpha f,
    alpha^e g + beta)): put u_(k_j) in slot j, u'_j = r_j u_(k_j) with
    r_j^2 = alpha / lam_(k_j), t' = alpha^2 w^2 and w' = u'_base^2 -
    F_base t'.  Then w'^2 = t' (the rest of w' squares to 0), and u'_j^2
    = w' + F_j t' + G_j t'^2 (Ubg: w' + G_j t') for all j exactly when
    f_(k_j) = alpha F_j and g_(k_j) - g_(k_base) = alpha^e G_j.  So each
    order fixes alpha: f on the first slot with F != 0, else the g gap of
    the gap and base slots (for Ubfg its cube root, taken as lam_base
    (gap / lam_base^3)^(1/3)).  Each order that fits gives a candidate
    per choice of the r_j; signs do not change squares, so all of them
    realize the template."""
    m, n = tv[-1], Ead.dim
    S, ops = Ead._rows, Ead.field.ops
    Z, one, sub, mul, div = ops.zero, ops.one, ops.sub, ops.mul, ops.div
    lam = [S[k][m] for k in range(m)]
    nu = [S[k][n - 1] for k in range(m)]
    if len(tv) == 3:
        e, f = 1, [Z] * m
        g = [div(x, mul(S[m][n - 1], lk)) for x, lk in zip(nu, lam)]
    else:
        e = 3
        aw, bw, gt = S[m][m + 1], S[m][n - 1], S[m + 1][n - 1]
        mu = [S[k][m + 1] for k in range(m)]
        f = [div(x, mul(aw, lk)) for x, lk in zip(mu, lam)]
        a3gt = mul(_power(ops, aw, 3), gt)
        g = [div(sub(mul(nk, aw), mul(mk, bw)), mul(a3gt, lk))
             for mk, nk, lk in zip(mu, nu, lam)]
    nf, distinct = m - f.count(Z), len(set(g))
    if nf == 0 and distinct == 1:
        return 1, (), False, _powers(m)
    orders = None
    if e == 1:  # the slots' G: 0, 1 or 0, 0, 1 or the anharmonic a, 0, 1
        variant = distinct
        params = () if distinct == 2 else \
            (div(sub(g[0], g[1]), sub(g[2], g[1])),)
    elif m == 1 or nf == 0:
        variant, params = 2, ()
        if m == 2:
            orders = ((1, 0), (0, 1))  # u_0 takes the base slot first
    else:
        cand = [(div(f[1 - a], f[a]),
                 div(sub(g[a], g[1 - a]), _power(ops, f[a], 3)))
                for a in range(2) if f[a] != Z]
        variant, params = (4, min(cand)) if nf == 2 else (3, cand[0][1:])

    def slots(p):
        """The template's F and G for the params p."""
        if e == 1:
            return [Z] * m, [*p] + [Z] * (m - 1 - len(p)) + [one]
        if variant == 2:
            return ([one], [Z]) if m == 1 else ([Z, Z], [one, Z])
        return [one, p[0] if variant == 4 else Z], [p[-1], Z]

    def build(Ead, params):
        F, G = slots(params)
        base = m - 1 - G[::-1].index(Z)
        anchor = F.index(one) if one in F else None
        gap = G.index(one) if anchor is None else None
        nfb = ops.neg(F[base])
        for order in orders or itertools.permutations(range(m)):
            kb = order[base]
            if anchor is not None:
                alpha = f[order[anchor]]
            else:
                alpha = sub(g[order[gap]], g[kb])
                if e == 3:
                    c = ops.cbrt(div(alpha, _power(ops, lam[kb], 3)))
                    if c is None:
                        continue
                    alpha = mul(lam[kb], c)
            if m > 1:  # else the one slot is the anchor and the base
                ae = alpha if e == 1 else _power(ops, alpha, 3)
                if any(f[k] != mul(alpha, x) or sub(g[k], g[kb]) != mul(ae, y)
                       for k, x, y in zip(order, F, G)):
                    continue
            roots = [_roots(ops, div(alpha, lam[k])) for k in order]
            if () in roots:
                continue
            tn = ops.scale(mul(alpha, alpha), S[m])
            tail = [tn] + _squares(Ead, tn, n - m - 2)
            for rs in itertools.product(*roots):
                us = [_placed(ops, n, k, [r]) for k, r in zip(order, rs)]
                yield us + [ops.addmul(_sq(Ead, us[base]), nfb, tn)] + tail
    return variant, params, False, build


def _h_122(Ead, tv):
    """Type [1,2,2], adapted (x, y, u, v, s); a and b are the U-parts of
    x^2 and y^2, x the one with anisotropic a if either has one.  Every
    candidate is the frame of x (of sx x for variant 3), the [1,2,1]
    algebra inside, with the y column put second and, for variants 1
    and 6, s-shifts that fit y^2.  L4: det != 0 means b is not parallel
    to a, so B != 0 in b = A a + B w0; and with both isotropic, b = c+ a
    + c- d' gives 0 = q(b) = 2 c+ c- h with h != 0, so c+ c- = 0."""
    n = Ead.dim
    S, ops, field = Ead._rows, Ead.field.ops, Ead.field
    Z, one, sub, mul, div = ops.zero, ops.one, ops.sub, ops.mul, ops.div
    form = _DiagForm(ops, [S[2][4], S[3][4]])
    a, b = S[0][2:4], S[1][2:4]
    mu_x, nu_y = S[0][4], S[1][4]
    qa, qb, qab = form.q(a), form.q(b), form.b(a, b)
    xi = 0
    if qa == Z and qb != Z:
        a, b, mu_x, nu_y, qa, qb, xi = b, a, nu_y, mu_x, qb, qa, 1
    x = _unit_row(xi, n, ops)

    def with_y(cols, e):
        """The frame cols with e y put second."""
        return cols[:1] + [_placed(ops, n, 1 - xi, [e])] + cols[1:]

    if qa != Z:
        # b = A a + B w0 in the orthogonal basis a, w0 of the plane
        A = div(qab, qa)
        det = sub(mul(qa, qb), mul(qab, qab))
        if det != Z:
            alpha = ops.sqrt(div(mul(qab, qab), det))
            if alpha is None:
                raise SqrtUnavailable(
                    "the [1,2,2] parameter is not representable in "
                    f"{field}")

            def build(Ead, params):
                (target,) = params
                for cols in _line_frame(Ead, form, x, S[xi], 2, 1):
                    # the complement column is t w0 with q = q(a), so
                    # t / B = q(a) / b(b, t w0)
                    eps2 = div(qa, form.b(b, cols[2][2:4]))
                    if mul(A, eps2) != target:
                        continue
                    eps = ops.sqrt(eps2)
                    if eps is None:
                        continue
                    cols[2] = _shifted(ops, cols[2],
                                       mul(eps2, sub(nu_y, mul(A, mu_x))))
                    yield with_y(cols, eps)
            return 1, (alpha,), False, build

        # b parallel to a: x itself (variant 2) or sx x (variant 3)
        kappa = sub(nu_y, mul(A, mu_x))
        ex2 = one if kappa == Z else div(kappa, mul(A, qa))

        def build_23(Ead, params):
            for sx in (one,) if kappa == Z else _roots(ops, ex2):
                xn = _placed(ops, n, xi, [sx])
                for sy in _roots(ops, div(ex2, A)):
                    for cols in _line_frame(Ead, form, xn,
                                            ops.scale(ex2, S[xi]), 2, 1):
                        yield with_y(cols, sy)
        return 2 if kappa == Z else 3, (), False, build_23

    # both squares isotropic; b = c_plus a + c_minus d' in the hyperbolic
    # basis a, d'
    dprime, h = form.hyperbolic_partner(a)
    c_plus, c_minus = div(form.b(b, dprime), h), div(qab, h)
    if c_minus == Z:
        kappa = sub(div(nu_y, c_plus), mu_x)
        # variant 4 when kappa = 0; otherwise delta = kappa / h != 0
        variant, ey2 = (4 if kappa == Z else 5), div(one, c_plus)
        delta = one if kappa == Z else div(kappa, h)
    else:  # b on the opposite isotropic line
        variant, ey2, delta = 6, div(ops.of_int(2), c_minus), one

    def build_iso(Ead, params):
        cols = _pair_frame(Ead, form, x, S[0], dprime, delta, 2, 1)
        if variant == 6:
            # shift the pair by tau s: u -> u - i tau s, v -> v + tau s
            # keeps x^2 = u + iv while fixing the s-part of u - iv to
            # match y^2
            i, two = ops.i, ops.of_int(2)
            tau = div(mul(ops.neg(i), sub(mu_x, mul(ey2, nu_y))), two)
            cols[1] = _shifted(ops, cols[1], ops.neg(mul(i, tau)))
            cols[2] = _shifted(ops, cols[2], tau)
        for e in _roots(ops, ey2):
            yield with_y(cols, e)
    return variant, (), False, build_iso


def _h_1211(Ead, tv):
    """Type [1,2,1,1], adapted (x, y, u, v, s): x^2 = lam y + a_x + nu_x s
    and y^2 = b_y + mu_y s, with a_x and b_y in U = span(u, v).  Every
    candidate is x' = sx x over the frame of y' = sx^2 lam y + sigma s,
    the [1,2,1] algebra inside: the line frame when b_y is anisotropic,
    the pair frame when it is isotropic.  sigma is what x'^2 leaves over
    on s: sx^2 nu_x, less the s-part of y'^2 when the template's x^2
    holds u_1 (variants 3, 5, 6 and 7).  Each variant picks sx, and the
    complement scale (variants 2 and 3) or delta."""
    n = Ead.dim
    S, ops, field = Ead._rows, Ead.field.ops, Ead.field
    Z, one, sub, mul, div = ops.zero, ops.one, ops.sub, ops.mul, ops.div
    form = _DiagForm(ops, [S[2][4], S[3][4]])
    lam, ax, nu_x = S[0][1], S[0][2:4], S[0][4]
    by = S[1][2:4]
    qby = form.q(by)

    def y_frame(e2):
        """y' and y'^2 for x' = sx x, sx^2 = e2."""
        el = mul(e2, lam)
        y2 = ops.scale(mul(el, el), S[1])
        sigma = mul(e2, nu_x)
        if variant in (3, 5, 6, 7):
            sigma = sub(sigma, y2[4])
        return _placed(ops, n, 1, [el], sigma), y2

    if qby != Z:
        # a_x = A b_y + w, w orthogonal to b_y
        A = div(form.b(ax, by), qby)
        wvec = ops.addmul(ax, ops.neg(A), by)
        qw = form.q(wvec)
        if all(x == Z for x in ax):
            variant, params, e2s = 1, (), (one,)
        elif A == Z:
            variant, params = 2, ()
            e2s = _roots(ops, div(qw, mul(_power(ops, lam, 4), qby)))
        else:
            beta = ops.sqrt(div(qw, mul(mul(A, A), qby)))
            if beta is None:
                raise SqrtUnavailable(
                    f"the [1,2,1,1] parameter is not representable in "
                    f"{field}")
            variant, params, e2s = 3, (beta,), (div(A, mul(lam, lam)),)

        def build(Ead, params):
            # past variant 1, the complement column is (e2 / target) w
            target = params[0] if params else one
            for e2 in e2s:
                sxs = (one,) if variant == 1 else _roots(ops, e2)
                if not sxs:
                    continue
                for cols in _line_frame(Ead, form, *y_frame(e2), 2, 1):
                    if variant == 1 or ops.scale(target, cols[2][2:4]) \
                            == ops.scale(e2, wvec):
                        for sx in sxs:
                            yield [_placed(ops, n, 0, [sx])] + cols
        return variant, params, False, build

    # y^2 isotropic; a_x = c_plus b_y + c_minus d' in the hyperbolic basis
    # b_y, d'.  Each variant: sx^2 lam^2 (None: sx = 1) and delta / sx^2
    dprime, h = form.hyperbolic_partner(by)
    c_plus, c_minus = div(form.b(ax, dprime), h), div(form.b(ax, by), h)
    if all(x == Z for x in ax):
        variant, sl2, c = 4, None, one
    elif form.q(ax) != Z:
        variant, sl2, c = 5, mul(ops.of_int(2), c_plus), c_minus
    elif c_minus == Z:
        variant, sl2, c = 6, c_plus, c_plus
    else:  # a_x on the opposite isotropic line
        variant, sl2, c = 7, None, div(c_minus, ops.of_int(2))

    def build_iso(Ead, params):
        for sx in (one,) if sl2 is None else \
                _roots(ops, div(sl2, mul(lam, lam))):
            e2 = mul(sx, sx)
            cols = [_placed(ops, n, 0, [sx])] + _pair_frame(
                Ead, form, *y_frame(e2), dprime, mul(e2, c), 2, 1)
            yield from [cols] if variant == 5 else _both_signs(ops, cols, 3)
    return variant, (), False, build_iso


def _h_1121(Ead, tv):
    # adapted (x, y, z, w, s)
    n = Ead.dim
    S, ops, field = Ead._rows, Ead.field.ops, Ead.field
    Z, sub, mul, div = ops.zero, ops.sub, ops.mul, ops.div
    p1, q1 = S[1][3], S[1][4]
    p2, q2 = S[2][3], S[2][4]
    gw = S[3][4]
    c1, c2 = S[0][1], S[0][2]
    c3, c4 = S[0][3], S[0][4]
    delta = sub(div(q1, p1), div(q2, p2))

    if delta == Z:
        # y^2 and z^2 lie on the line of w' = w + (q1/p1) s, and w'^2 =
        # w^2: the [1,2,1] frame with one more power below it, except
        # when c = (c1, c2) is anisotropic and c3 != 0 (variant 2)
        form = _DiagForm(ops, [p1, p2])
        c = [c1, c2]
        qc = form.q(c)
        if c3 == Z or qc == Z:
            return _frame(Ead, [p1, p2], c3, (1, 3 if c3 == Z else 4))

        def build_v2(Ead, params):
            # x' over the line frame of y' = x'^2 less its w and s tail
            for sx in _roots(ops, div(c3, qc)):
                xn = _placed(ops, n, 0, [sx])
                xsq = _sq(Ead, xn)
                yn = _placed(ops, n, 1, xsq[1:3],
                             sub(xsq[4], mul(mul(mul(sx, sx), c3),
                                             div(q1, p1))))
                yield from _line_frame(Ead, form, xn, yn, 1, 2)
        return 2, (), False, build_v2

    # delta != 0: the two U_3 lines are intrinsic (only permutations and
    # scalings of them extend to natural basis changes)
    def role_data(Y):
        """Line Y as the template y and 3 - Y as z: (3 - Y, p_Y, p_Z, c_Y,
        c_Z, the s-gap p_Y q_Z / p_Z - q_Y)."""
        pY, qY, cY = (p1, q1, c1) if Y == 1 else (p2, q2, c2)
        pZ, qZ, cZ = (p2, q2, c2) if Y == 1 else (p1, q1, c1)
        return 3 - Y, pY, pZ, cY, cZ, sub(div(mul(pY, qZ), pZ), qY)

    def builder(variant, roles):
        """Per role Y the tail y' = sy e_Y, w' = y'^2, s' = w'^2 and z' =
        sz e_Z under x' = sx e_0, sx^2 making x'^2's coefficient 1 exact on
        y' (variant 5) or z' (variant 6); where the realized (G), or (B,
        G), are the params, that column takes the s-leftover x'^2[s] - G
        w'[s]."""
        k = 0 if variant == 5 else 1  # the coefficient-1 column of y', z'

        def build(Ead, params):
            for Y in roles:
                Z0, pY, pZ, cY, cZ, dpr = role_data(Y)
                for sy in _roots(ops, div(dpr, mul(mul(pY, pY), gw))):
                    yn, tail = _placed(ops, n, Y, [sy]), None
                    for sz in _roots(ops, div(mul(mul(sy, sy), pY), pZ)):
                        e2 = div(sy, cY) if variant == 5 else div(sz, cZ)
                        G = div(mul(e2, c3), mul(mul(sy, sy), pY))
                        realized = (G,) if variant == 5 else \
                            (div(mul(e2, cY), sy), G)
                        if realized != tuple(params):
                            continue
                        tail = tail or _squares(Ead, yn, 2)
                        cols = [yn, _placed(ops, n, Z0, [sz])]
                        cols[k] = _shifted(ops, cols[k], sub(
                            mul(e2, c4), mul(G, tail[0][4])))
                        for sx in _roots(ops, e2):
                            yield [_placed(ops, n, 0, [sx])] + cols + tail
        return build

    # the roles whose template z line x couples to
    roles = [Y for Y, cZ in ((1, c2), (2, c1)) if cZ != Z]
    if len(roles) == 1:
        # x couples to a single line; whether that line can serve as the
        # template y (x^2 = y + alpha w, the other line carrying the s
        # gap) is decided by a scaling invariant that must be a square
        Yc = 3 - roles[0]
        _, _, _, cYc, _, dprc = role_data(Yc)
        alpha = ops.sqrt(div(mul(mul(c3, c3), gw), mul(mul(cYc, cYc), dprc)))
        if alpha is not None:
            return 5, (alpha,), False, builder(5, [Yc])
    # variant 6; when x couples only to the template z line, B = 0 is the
    # boundary configuration
    cands = []
    for Y in roles:
        _, pY, pZ, cY, cZ, dpr = role_data(Y)
        cyz = div(cY, cZ)
        beta = ops.sqrt(div(mul(mul(cyz, cyz), pY), pZ))
        gamma = ops.sqrt(div(mul(mul(mul(c3, c3), pY), gw),
                             mul(mul(mul(cZ, cZ), pZ), dpr)))
        if beta is not None and gamma is not None:
            cands.append((beta, gamma))
    if not cands:
        raise SqrtUnavailable(
            f"the [1,1,2,1] parameters are not representable in {field}")
    return 6, min(cands), len(roles) == 1, builder(6, roles)


def _h_11111(Ead, tv):
    n = Ead.dim
    S, ops, field = Ead._rows, Ead.field.ops, Ead.field
    Z, one, add, sub, mul, div = (ops.zero, ops.one, ops.add, ops.sub,
                                  ops.mul, ops.div)
    a2, a3, a4 = S[0][1], S[0][2], S[0][3]
    b3, b4 = S[1][2], S[1][3]
    c4 = S[2][3]

    def tower(Ead, s1, f, k3, k4):
        """x1 = s1 e_0, x2 = (x1^2)_1 e_1, y3 = (x2^2)_2 e_2, y4 = y3^2
        and y5 = y4^2, with y3 shifted on s so that x2^2 = y3 + f y4
        holds there, then x2 so that x1^2 = x2 + k3 y3 + k4 y4 does.
        Lemma: shifting a column by a multiple of s (s lies in ann)
        changes no square and no product, only the relations that read
        that column on s; x2's relation reads y3 there, so y3 is shifted
        first."""
        x1 = _placed(ops, n, 0, [s1])
        x1sq = _sq(Ead, x1)
        x2 = _placed(ops, n, 1, [x1sq[1]])
        x2sq = _sq(Ead, x2)
        y3 = _placed(ops, n, 2, [x2sq[2]])
        y4 = _sq(Ead, y3)
        y3 = _shifted(ops, y3, sub(x2sq[4], mul(f, y4[4])))
        x2 = _shifted(ops, x2, sub(x1sq[4], add(mul(k3, y3[4]),
                                                mul(k4, y4[4]))))
        return [x1, x2, y3, y4, _sq(Ead, y4)]

    if b4 != Z:
        eps2s = _roots(ops, div(b4, mul(mul(b3, b3), c4)))  # x2's scalings

        def realized(e):
            return (div(a3, mul(mul(e, a2), b3)),
                    div(a4, mul(mul(mul(mul(_power(ops, e, 3), a2), b3), b3),
                                c4)))

        if eps2s:
            cands = [realized(e) for e in eps2s]
        elif a3 == Z and a4 == Z:
            cands = [(Z, Z)]
        else:
            raise SqrtUnavailable(
                f"the chain-family parameters are not representable "
                f"in {field}")

        def build_v4(Ead, params):
            for e2 in eps2s:
                if realized(e2) == tuple(params):
                    for s1 in _roots(ops, div(e2, a2)):
                        yield tower(Ead, s1, one, *params)
        return 4, min(cands), False, build_v4

    if a3 != Z:
        e12 = div(a3, mul(mul(a2, a2), b3))
        alpha = div(mul(mul(mul(a4, a2), a2), b3), mul(_power(ops, a3, 3), c4))

        def build_v3(Ead, params):
            for s1 in _roots(ops, e12):
                yield tower(Ead, s1, Z, one, alpha)
        return 3, (alpha,), False, build_v3

    if a4 != Z:
        def build_v2(Ead, params):
            e2 = ops.cbrt(div(a4, mul(mul(mul(_power(ops, a2, 4), b3), b3),
                                      c4)))
            for s in () if e2 is None else _roots(ops, e2):
                yield tower(Ead, s, Z, Z, one)
        return 2, (), False, build_v2

    return 1, (), False, _powers(1)


# ---------------------------------------------------------------------------
# ann-dim-2 types, past their splits

def _h_23(Ead, tv):
    """Type [2,3] with no two dependent squares of the top block (else
    ``algebra._natural_split`` splits E): E^2 = ann, and the frame
    (x, z) = (e_0, e_2) gives e_1^2 = al x^2 + be z^2 by Cramer's
    rule."""
    n = Ead.dim
    S, ops = Ead._rows, Ead.field.ops
    sub, mul = ops.sub, ops.mul
    x2, y2, z2 = [[S[k][3], S[k][4]] for k in range(3)]

    def det(u, v):
        return sub(mul(u[0], v[1]), mul(u[1], v[0]))

    def build(Ead, params):
        d = det(x2, z2)
        al, be = ops.div(det(y2, z2), d), ops.div(det(x2, y2), d)
        for fa in _roots(ops, al):
            for fb in _roots(ops, be):
                xn = _placed(ops, n, 0, [fa])
                zn = _placed(ops, n, 2, [fb])
                yield [xn, _unit_row(1, n, ops), zn, _sq(Ead, xn),
                       _sq(Ead, zn)]
    return 1, (), False, build


def _h_221(Ead, tv):
    """Type [2,2,1] whose top square x = e_0^2 = al e_1 + be e_2 + tail
    has al, be != 0 (else ``algebra._natural_split`` splits E).

    L5: e_1^2, e_2^2 span ann (which lies in E^2 = span(x, e_1^2, e_2^2),
    x outside it), so the candidate e_0, al e_1 + tail, be e_2 and their
    squares is invertible and realizes the template: it is the only
    one."""
    n = Ead.dim
    S, ops = Ead._rows, Ead.field.ops
    al, be = S[0][1], S[0][2]

    def build(Ead, params):
        x = _unit_row(0, n, ops)
        an = [ops.zero, al, ops.zero, *Ead._rows[0][3:]]
        bn = _placed(ops, n, 2, [be])
        yield [x, an, bn, _sq(Ead, an), _sq(Ead, bn)]
    return 1, (), False, build


def _h_212(Ead, tv):
    n = Ead.dim
    S, ops = Ead._rows, Ead.field.ops
    cx = S[0][2]
    cy = S[1][2]

    def build(Ead, params):
        an = Ead._rows[0]  # = c_x a + annihilator tail
        un = _sq(Ead, an)
        for s in _roots(ops, ops.div(cx, cy)):
            yn = _placed(ops, n, 1, [s])
            vn = ops.addmul(_sq(Ead, yn), ops.neg(ops.one), an)
            yield [_unit_row(0, n, ops), yn, an, un, vn]
    return 1, (), False, build


_HANDLERS = {
    (1,): _h_powers,
    (1, 1): _h_powers,
    (1, 2): _h_powers,
    (1, 1, 1): _h_powers,
    (1, 3): _h_powers,
    (1, 2, 1): _h_1n1,
    (1, 1, 2): _h_slopes,
    (1, 1, 1, 1): _h_slopes,
    (1, 4): _h_powers,
    (1, 3, 1): _h_1n1,
    (1, 1, 3): _h_slopes,
    (1, 1, 1, 2): _h_slopes,
    (1, 2, 2): _h_122,
    (1, 2, 1, 1): _h_1211,
    (1, 1, 2, 1): _h_1121,
    (1, 1, 1, 1, 1): _h_11111,
    (2, 3): _h_23,
    (2, 2, 1): _h_221,
    (2, 1, 2): _h_212,
}
