"""Evolution algebras and their structural invariants.

An evolution algebra is presented by an n x n structure matrix A over a
field: the natural basis vectors satisfy e_i * e_j = 0 for i != j and
e_i^2 = sum_j A[i][j] e_j.  This module computes products, annihilators,
the upper annihilating series and its type vector, power chains, the
attached weighted digraph, and decomposability verdicts with witness
ideals where the supporting theory provides one.

Several invariants are read off index sets of the natural basis rather
than eliminated for: ann(E) is spanned by the e_i with e_i^2 = 0, every
term of the upper annihilating series is a coordinate subspace (the
series keeps its blocks, and builds ``AnnSeries.chain`` on first read).
The nonzero pattern of the structure rows is one int bitmask per row
(``EvolutionAlgebra._supports``), built once per algebra; the series,
the graph components and the zero squares test it with ``&``.  The
split along an annihilator vector outside E^2 (``_annihilator_split``)
finds its part C inside ann by pivoting on the unit squares, the
squares that are a nonzero multiple of one e_k of ann: each such e_k
lies in ann cap E^2, so when every e_k of ann is such a multiple, ann
lies inside E^2 with no elimination.  Otherwise one elimination of the other
squares, over the other columns, gives the rest of ann cap E^2 and the
test of ann inside E^2, and C's indices come from the last nonzero
columns of that rest.  That test is the only one of ann inside E^2:
``invariant_profile`` reads it as the split finding no C.

The decomposability criteria that split E into ideals spanned by a
natural basis (a disconnected graph, an annihilator vector outside E^2,
dim ann >= dim/2, and the two criteria of dim 5 with dim ann = 2: two
proportional squares in type [2,3], a top square that misses a middle
vector in type [2,2,1]) live in one place, ``_natural_split``, which
returns the split as index groups of E's own basis.  No summand needs a
change of basis, and this module alone maps a split to its summands and
ideals: ``_split_summands`` gives each summand as a selection of E's
rows and columns (a graph component, the quotient by C of the
annihilator split), as the length of a chain that a lemma identifies
(each e_k of C, each pair e_i, e_i^2 of the pairing, the [2,2,1]
summands and one [2,3] summand) or, for the other [2,3] summand, as the
algebra with rows [[0, 0, 1], [0, 0, c], [0, 0, 0]].
``decomposability_check`` spans its witness ideals from the groups
(``_split_ideals``), and ``classify`` runs the same split on E and on
each summand it classifies.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from ._values import Value
from .errors import AmbientMismatch, NotAnIdeal, NotNilpotent, ShapeError
from .fields import FieldDescriptor, FieldElement, _support_mask
from .linalg import Matrix, Subspace, _kernel_rows, _unit_row


class EvolutionAlgebra:
    """A finite-dimensional evolution algebra in a fixed natural basis."""

    def __init__(self, dim: int, structure: Matrix, field: FieldDescriptor):
        if dim < 1:
            raise ShapeError("dimension must be at least 1")
        if structure.nrows != dim or structure.ncols != dim:
            raise ShapeError(
                f"structure must be {dim}x{dim}, got "
                f"{structure.nrows}x{structure.ncols}")
        if structure.field is not field and structure.field != field:
            raise ShapeError("structure entries come from a different field")
        self.dim = dim
        self.field = field
        self.structure = structure
        # payload rows of the structure matrix, for the exact core
        self._rows = structure._payloads()
        self._masks = None

    @classmethod
    def _wrap(cls, rows: list[list], field: FieldDescriptor):
        """The algebra with the given payload structure rows, which are
        trusted and kept; the structure matrix wraps them on first use."""
        E = cls.__new__(cls)
        E.dim = len(rows)
        E.field = field
        E._rows = rows
        E._masks = None
        return E

    @cached_property
    def structure(self) -> Matrix:
        return Matrix._wrap(self._rows, self.field, self.dim)

    def _supports(self) -> list[int]:
        """The nonzero pattern of the structure rows, as one int per row
        whose bit j is set when the row's entry j is nonzero
        (``fields._support_mask``), built on first use and kept: one pass
        serves the series, the graph components and the zero squares."""
        masks = self._masks
        if masks is None:
            Z = self.field.ops.zero
            masks = self._masks = [_support_mask(row, Z)
                                   for row in self._rows]
        return masks

    @classmethod
    def from_ints(cls, rows: list[list[int]], field: FieldDescriptor):
        return cls(len(rows), Matrix.from_ints(rows, field), field)

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra)
                and self.dim == other.dim and self.field == other.field
                and self._rows == other._rows)

    def __repr__(self):
        return f"EvolutionAlgebra(dim {self.dim} over {self.field})"

    def basis_vector(self, i: int) -> list[FieldElement]:
        if not (isinstance(i, int) and 0 <= i < self.dim):
            raise ShapeError(f"basis index must be an int in "
                             f"0..{self.dim - 1}")
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def square_of_basis(self, i: int) -> list[FieldElement]:
        return self.structure.row(i)

    def multiply(self, x: list[FieldElement], y: list[FieldElement]):
        """Product of two coordinate vectors: sum_i x_i y_i e_i^2."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("vector length mismatch")
        field = self.field
        prod = field.ops.product(self._rows, field.payloads(x),
                                 field.payloads(y))
        return [FieldElement(field, v) for v in prod]

    def annihilator(self) -> Subspace:
        """Span of the natural basis vectors with zero square."""
        return Subspace.coordinate(_zero_rows(self), self.dim, self.field)


def _zero_rows(E: EvolutionAlgebra) -> list[int]:
    """Indices of the natural basis vectors with zero square."""
    return [i for i, s in enumerate(E._supports()) if not s]


def quotient_by_block(E: EvolutionAlgebra, keep) -> EvolutionAlgebra:
    """Quotient by the span of the discarded basis vectors.

    The discarded span must be an ideal, which for a coordinate span
    means every discarded vector's square is supported on discarded
    coordinates.  The images of the kept basis vectors are then a natural
    basis of the quotient, and the square of each is its square in E with
    the discarded coordinates dropped: the quotient is the selection of
    E's kept rows and columns.
    """
    keep = sorted(_checked_indices(keep, E.dim))
    if not keep:
        raise ShapeError("dimension must be at least 1")
    kept = sum(1 << j for j in keep)
    for i, m in enumerate(E._supports()):
        if m & kept and not kept >> i & 1:
            raise NotAnIdeal(
                f"square of basis vector {i} leaves the discarded span")
    return _subalgebra(E._rows, keep, E.field)


class AnnSeries(Value):
    """The upper annihilating series of an evolution algebra.

    chain[i] is ann^{i+1}; blocks[i] lists the basis indices entering the
    series at step i+1; type_vector[i] = len(blocks[i]).  When the chain
    stabilizes short of the full space the algebra is not nilpotent.
    ``upper_series`` leaves the chain of coordinate subspaces to be built
    from the blocks on first read.
    """

    __slots__ = ("_chain", "_ambient", "blocks", "type_vector", "nilpotent")
    _fields = ("chain", "blocks", "type_vector", "nilpotent")

    def __init__(self, chain=None, blocks=None, type_vector=None,
                 nilpotent: bool = False):
        self._chain = [] if chain is None else chain
        self.blocks = [] if blocks is None else blocks
        self.type_vector = [] if type_vector is None else type_vector
        self.nilpotent = nilpotent

    @classmethod
    def _lazy(cls, blocks, nilpotent: bool, dim: int, field):
        """The series with these blocks in F^dim, chain not yet built."""
        s = cls.__new__(cls)
        s._ambient = (dim, field)
        s.blocks = blocks
        s.type_vector = [len(b) for b in blocks]
        s.nilpotent = nilpotent
        return s

    @property
    def chain(self) -> list:
        try:
            return self._chain
        except AttributeError:
            # a lazy series: every term is a coordinate span
            dim, field = self._ambient
            placed: list[int] = []
            chain = self._chain = []
            for blk in self.blocks:
                placed += blk
                chain.append(Subspace.coordinate(placed, dim, field))
            return chain

    @property
    def r(self) -> int:
        return len(self.blocks)


def upper_series(E: EvolutionAlgebra) -> AnnSeries:
    """Compute ann^1 <= ann^2 <= ... and the type vector.

    Every term is the span of the natural basis vectors placed so far, so
    e_i^2 lies in it exactly when the support of e_i^2 does: membership
    is read off the support masks of the structure rows, which the
    algebra keeps: a mask with no bit outside the placed ones.  Only the
    blocks are computed here; the chain is built when first read.
    """
    supports = E._supports()
    pending = range(E.dim)
    placed = 0
    blocks: list[list[int]] = []
    while pending:
        new, rest = [], []
        for i in pending:
            if supports[i] & ~placed:
                rest.append(i)
            else:
                new.append(i)
        if not new:
            break
        for i in new:
            placed |= 1 << i
        pending = rest
        blocks.append(new)
    return AnnSeries._lazy(blocks, not pending, E.dim, E.field)


def _require_subspaces(E: EvolutionAlgebra, *subspaces: Subspace):
    """Raise AmbientMismatch or MixedFields unless each subspace lies in
    E's coordinate space over E's field."""
    if any(s.ambient_dim != E.dim for s in subspaces):
        raise AmbientMismatch("subspace ambient must equal algebra dim")
    for s in subspaces:
        E.field.require(s.field)


def product_subspace(E: EvolutionAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of all products of basis vectors of s with basis vectors of t."""
    _require_subspaces(E, s, t)
    ops = E.field.ops
    return Subspace._span([ops.product(E._rows, x, y)
                           for x in s._rows for y in t._rows],
                          E.dim, E.field)


def square_subspace(E: EvolutionAlgebra) -> Subspace:
    """E^2 = span of the squares of the natural basis vectors."""
    return Subspace._span(list(E._rows), E.dim, E.field)


RIGHT = "Right"
PLENARY = "Plenary"


def power_subspaces(E: EvolutionAlgebra, kind: str, max_k: int):
    """The chain E^{<k>} (Right) or E^k (Plenary), k = 1..max_k,
    truncated once it stabilizes."""
    if not (isinstance(max_k, int) and max_k >= 1):
        raise ShapeError("max_k must be an int of at least 1")
    full = Subspace.full(E.dim, E.field)
    chain = [full]
    if kind == RIGHT:
        while len(chain) < max_k:
            nxt = product_subspace(E, chain[-1], full)
            if nxt == chain[-1]:
                break
            chain.append(nxt)
    elif kind == PLENARY:
        # the plenary chain is decreasing but may pause before dropping
        # further, so only the zero subspace is a safe early stop
        while len(chain) < max_k and not chain[-1].is_zero():
            # if A * A^k = A^k the chain is constant from here on
            if product_subspace(E, full, chain[-1]) == chain[-1]:
                break
            k = len(chain)
            acc = Subspace.zero(E.dim, E.field)
            for i in range(k):
                acc = acc + product_subspace(E, chain[i], chain[k - 1 - i])
            chain.append(acc)
    else:
        raise ShapeError(f"unknown power kind {kind!r}")
    return chain


def power_nilpotency(E: EvolutionAlgebra, kind: str) -> bool:
    """Whether the chosen power chain reaches zero.

    For the right chain, n+1 steps always suffice; for the plenary chain
    a product of 2^(k-1) factors lies in the k-th right power, so 2^n
    steps bound the nilpotency index.  An unknown kind raises
    ShapeError, as in ``power_subspaces``.
    """
    steps = E.dim + 1 if kind == RIGHT else 2 ** E.dim
    return power_subspaces(E, kind, steps)[-1].is_zero()


def relative_annihilator(E: EvolutionAlgebra, inside: Subspace,
                         against: Subspace) -> Subspace:
    """{x in inside : x * against = 0}."""
    _require_subspaces(E, inside, against)
    gens = inside._rows
    if not gens:
        return Subspace.zero(E.dim, E.field)
    ops = E.field.ops
    constraints = []
    for t in against._rows:
        prods = [ops.product(E._rows, g, t) for g in gens]
        for j in range(E.dim):
            constraints.append([p[j] for p in prods])
    if not constraints:
        return inside
    coefs, _ = _kernel_rows(constraints, len(gens), ops)
    return Subspace._span([ops.combine(c, gens, E.dim) for c in coefs],
                          E.dim, E.field)


class WeightedGraph(Value):
    """Directed weighted graph of an evolution algebra: an edge (i, j, w)
    for each nonzero structure entry A[i][j] = w."""

    __slots__ = _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: list):
        self.vertex_count = vertex_count
        self.edges = edges


def graph_of(E: EvolutionAlgebra) -> WeightedGraph:
    edges = [(i, j, E.structure[i, j])
             for i in range(E.dim) for j in range(E.dim)
             if not E.structure[i, j].is_zero()]
    return WeightedGraph(E.dim, edges)


def component_index_sets(E: EvolutionAlgebra) -> list[list[int]]:
    """Weakly connected components of the attached graph, as sorted index
    lists ordered by smallest member.  Each e_i and the support of e_i^2
    are connected, so one pass over the support masks merges each such
    star with the disjoint masks of the components it meets."""
    comps: list[int] = []
    for i, m in enumerate(E._supports()):
        m |= 1 << i
        apart = []
        for c in comps:
            if c & m:
                m |= c
            else:
                apart.append(c)
        apart.append(m)
        comps = apart
    if len(comps) == 1:
        return [list(range(E.dim))]
    comps.sort(key=lambda c: c & -c)  # by the lowest set bit
    return [[i for i in range(E.dim) if c >> i & 1] for c in comps]


def restrict_to_indices(E: EvolutionAlgebra, idx: list[int]) -> EvolutionAlgebra:
    if not idx:
        raise ShapeError("dimension must be at least 1")
    return _subalgebra(E._rows, _checked_indices(idx, E.dim), E.field)


def _checked_indices(idx, n: int) -> list[int]:
    """idx as a list, when it names distinct basis indices of F^n."""
    message = f"indices must be distinct ints in 0..{n - 1}"
    try:
        idx = list(idx)
    except TypeError:
        raise ShapeError(message) from None
    if not all(isinstance(i, int) and 0 <= i < n for i in idx) or \
            len(set(idx)) != len(idx):
        raise ShapeError(message)
    return idx


def _subalgebra(rows: list[list], idx, field) -> EvolutionAlgebra:
    """The algebra on the basis vectors idx of the payload structure
    rows, by row and column selection."""
    return EvolutionAlgebra._wrap([[rows[i][j] for j in idx] for i in idx],
                                  field)


def split_components(E: EvolutionAlgebra) -> list[EvolutionAlgebra]:
    """The induced subalgebras on the weakly connected graph components."""
    return [_subalgebra(E._rows, idx, E.field)
            for idx in component_index_sets(E)]


def is_ideal(E: EvolutionAlgebra, s: Subspace) -> bool:
    return s.contains(product_subspace(E, Subspace.full(E.dim, E.field), s))


DECOMPOSABLE = "Decomposable"
INDECOMPOSABLE = "Indecomposable"
UNKNOWN = "Unknown"


class DecompVerdict(Value):
    __slots__ = _fields = ("status", "reason", "witness")

    def __init__(self, status: str, reason: str,
                 witness: tuple | None = None):
        self.status = status
        self.reason = reason
        self.witness = witness  # pair of complementary ideal Subspaces


def _last_columns(rows: list[list], n: int, ops) -> set[int]:
    """The columns k at which some vector of span(rows) has its last
    nonzero entry: the pivots of one elimination over reversed columns.
    Walking e_0, e_1, ... and keeping each e_k outside span(rows) plus
    the e_j already walked keeps exactly the k not in this set."""
    rev = [r[::-1] for r in rows]
    return {n - 1 - p for p in ops.rref(rev, n)}


def _annihilator_split(E: EvolutionAlgebra, zero: list[int]):
    """The indices of C in the split along an annihilator vector outside
    E^2, or None when ann lies inside E^2; zero lists the e_k with
    e_k^2 = 0, which span ann.  C is spanned by the e_k, k in zero, that
    the greedy walk keeps outside ann cap E^2, so ann = (ann cap E^2) + C.

    It pivots on unit squares first.  Let U hold the k in zero for which
    some square is a nonzero multiple of e_k (its support mask is
    1 << k).  Then W = span{e_k : k in U} lies in ann cap E^2, so

    - (ann cap E^2)/W = ann/W cap E^2/W: modulo W, the squares supported
      inside U vanish, and ann/W is spanned by the e_k, k in zero outside
      U.  One elimination of the other squares, with those zero columns
      last, finds it: the reduced rows with a pivot among those columns
      vanish on every other column and span the projection of
      ann cap E^2 off U, and ann lies inside E^2 exactly when there are
      as many of them as columns.  When U is all of zero, ann = W lies
      inside E^2 with no elimination at all.
    - The last columns of ann cap E^2 are U together with the last
      columns of its projection off U, since W lies inside it; so no
      unit column is ever in C, and the walk keeps the zero columns
      outside U that are not pivots of the projection over reversed
      columns (``_last_columns``).

    The split is a quotient.  C lies inside ann, so it is an ideal, and
    it meets E^2 only in 0; so every complement I of C that contains E^2
    is an ideal, E = I + C, and I is isomorphic to E/C.  The images of
    the e_j, j not in C, form a natural basis of E/C, and the square of
    each is e_j^2 with its C coordinates dropped: the summand is the
    selection of E's rows and columns outside C, and each e_k of C is a
    one-dimensional zero algebra."""
    masks = E._supports()
    units = sum(1 << k for k in zero if 1 << k in masks)
    rest = [k for k in zero if not units >> k & 1]
    if not rest:
        return None
    ops = E.field.ops
    zset = set(zero)
    live = [j for j in range(E.dim) if j not in zset]
    cols = live + rest
    head = len(live)
    rows = [[E._rows[i][j] for j in cols] for i in live
            if masks[i] & ~units]
    pivots = ops.rref(rows, len(cols))
    ann_rows = [r[head:] for r, p in zip(rows, pivots) if p >= head]
    if len(ann_rows) == len(rest):
        return None
    taken = _last_columns(ann_rows, len(rest), ops) if ann_rows else set()
    return [k for t, k in enumerate(rest) if t not in taken]


_DISCONNECTED = "attached graph is disconnected"
_ANN_OUTSIDE_SQUARE = "annihilator is not contained in E^2"
_LARGE_ANN = "annihilator has dimension at least dim/2"
_PROPORTIONAL_TOP = "type [2,3] with two proportional squares"
_MIDDLE_MISSED = "type [2,2,1] whose top square misses a middle vector"


def _natural_split(E: EvolutionAlgebra, series: AnnSeries):
    """The first split of E into ideals spanned by a natural basis that
    the decomposability criteria find, as (reason, groups), or None.
    groups holds index lists of E's own basis, one per summand; series
    is E's upper series.  The criteria, in order:

    - the attached graph is disconnected: the components;
    - an annihilator vector lies outside E^2 (``_annihilator_split``):
      E = I + C with C spanned by some e_k inside ann; the indices
      outside C, for I = E/C, then each index of C alone;
    - dim ann >= dim / 2 with ann inside E^2 (``_pairing``): one [i] per
      nonzero square, for the pair e_i, e_i^2;
    - a nilpotent E of dim 5 with dim ann = 2 and ann inside E^2, of type
      [2,3] or [2,2,1], read off its series (``_two_block_split``): [i, j]
      and [k] when e_j^2 = c e_i^2 ([2,3]), [t] and [d] when the square
      of the top vector e_t has no e_d component ([2,2,1]).

    Past the first two criteria each group names the vectors that
    generate its ideal: the ideal is spanned by them and their successive
    squares (``_split_ideals``), and ``_split_summands`` reads each
    summand off E.

    The chain lemma: a nilpotent A of dimension n <= 3 whose series has
    n blocks of one index each, type [1,...,1], is the n-element chain,
    so ``classify`` takes the chain's label for such a summand from its
    series alone.  In the basis adapted to the series, e_k^2 has a
    nonzero entry on the next block down, or e_k would sit a block lower.
    So x = e_0, x^2 and (x^2)^2 (as far as n reaches) form a triangular
    basis with a nonzero diagonal, natural since their cross products
    vanish: x^2 and (x^2)^2 have no e_0 component, and (x^2)^2
    lies in ann.  That basis realizes the chain's rows over every field,
    with no root taken.  The lemma stops at n = 3: type [1,1,1,1] has
    two variants.

    The one-dimensional annihilator lemma: a nilpotent E with
    dim ann(E) = 1 has no split, so ``classify`` does not search it for
    one.  Every nonzero nilpotent summand has a nonzero annihilator of its
    own, and the annihilators of the summands of a direct sum lie in
    ann(E), so each criterion needs dim ann(E) >= 2: a disconnected graph
    gives each component a zero square; an annihilator split adds C to
    ann(I) != 0 (I has dim >= 1 since the split needs dim E >= 2); the
    pairing needs dim ann >= n/2 and at least two nonzero squares,
    so n >= 3 and dim ann >= 2; and the last criterion asks for
    dim ann = 2.  The same argument, for any two ideals, makes such an E
    of dim >= 2 indecomposable (criterion (e) of
    ``decomposability_check``).
    """
    comps = component_index_sets(E)
    if len(comps) > 1:
        return _DISCONNECTED, comps
    zero = _zero_rows(E)
    c_idx = _annihilator_split(E, zero) if E.dim >= 2 and zero else None
    if c_idx is not None:
        keep = [j for j in range(E.dim) if j not in c_idx]
        return _ANN_OUTSIDE_SQUARE, [keep] + [[k] for k in c_idx]
    if E.dim == 5 and len(zero) == 2:  # too small an ann for the pairing
        return _two_block_split(E, series)
    return _pairing(E, zero)


def _pairing(E: EvolutionAlgebra, zero: list[int]):
    """The split of an E with ann inside E^2 into the pairs e_i, e_i^2,
    when dim ann >= dim / 2 and there are at least two pairs; zero lists
    the e_k with e_k^2 = 0.  Then dim ann <= dim E^2 <= n - dim ann forces
    n = 2 dim ann, E^2 = ann and independent nonzero squares, so each
    pair spans an ideal, in which e_i^2 squares to 0: the two-element
    chain."""
    n = E.dim
    if 2 * len(zero) < n or n - len(zero) < 2:
        return None
    return _LARGE_ANN, [[i] for i in range(n) if i not in zero]


def _two_block_split(E: EvolutionAlgebra, series: AnnSeries):
    """The split of a connected E of dim 5 with dim ann = 2 and ann inside
    E^2, when E is nilpotent of type [2,3] or [2,2,1] and the criterion
    of its type holds; None otherwise.

    - [2,3]: the squares of the top block lie in ann, so E^2 = ann.  If
      e_j^2 = c e_i^2 (i before j), then e_i^2 and e_k^2 (k the third top
      index) are a basis of ann, and the natural basis e_i, e_j, e_i^2,
      e_k, e_k^2 splits E into the ideals with rows [[0, 0, 1],
      [0, 0, c], [0, 0, 0]] and the two-element chain: groups [i, j], [k].
    - [2,2,1]: x = e_t^2 for the top vector e_t lies in E^2 outside ann,
      so ann = span(e_1^2, e_2^2) for the middle vectors e_1, e_2.  If x
      has no e_d component (d the first such), x^2 is a nonzero multiple
      of the other middle square, and the natural basis e_t, x, x^2, e_d,
      e_d^2 splits E into the three-element and the two-element chain:
      groups [t], [d].  Past this split both components of x are nonzero,
      which ``classify._h_221`` relies on.

    Both types sum to dim E, so E is nilpotent when its series has
    either."""
    S, mul = E._rows, E.field.ops.mul
    if series.type_vector == [2, 3]:
        (a, b), top = series.blocks
        for i, j in combinations(top, 2):
            if mul(S[i][a], S[j][b]) == mul(S[i][b], S[j][a]):
                return _PROPORTIONAL_TOP, [[i, j], [k for k in top
                                                    if k not in (i, j)]]
    elif series.type_vector == [2, 2, 1]:
        [t] = series.blocks[2]
        for d in series.blocks[1]:
            if S[t][d] == E.field.ops.zero:
                return _MIDDLE_MISSED, [[t], [d]]
    return None


def _split_summands(E: EvolutionAlgebra, reason: str, groups) -> list:
    """The summands of the split (reason, groups) of a nilpotent E, each
    as one of:

    - a selection of E's rows and columns (an ``EvolutionAlgebra``): a
      graph component, or the quotient I = E/C of an annihilator split;
    - the length n of the n-element chain, for a summand that a lemma of
      ``_natural_split`` proves is one: each one-index group of those two
      splits (one-dimensional and nilpotent, so the zero algebra, n = 1),
      each pair of the pairing, both summands of a [2,2,1] split and the
      [k] summand of a [2,3] split;
    - the algebra with rows [[0, 0, 1], [0, 0, c], [0, 0, 0]], for the
      [i, j] summand of a [2,3] split, e_j^2 = c e_i^2."""
    if reason == _LARGE_ANN:
        return [2] * len(groups)
    if reason == _MIDDLE_MISSED:
        return [3, 2]
    if reason == _PROPORTIONAL_TOP:
        (i, j), _ = groups
        ops = E.field.ops
        Z = ops.zero
        t = next(t for t, x in enumerate(E._rows[i]) if x != Z)
        c = ops.div(E._rows[j][t], E._rows[i][t])
        return [EvolutionAlgebra._wrap([[Z, Z, ops.one], [Z, Z, c],
                                        [Z, Z, Z]], E.field), 2]
    return [1 if len(g) == 1 else _subalgebra(E._rows, g, E.field)
            for g in groups]


def _split_ideals(E: EvolutionAlgebra, reason: str, groups):
    """The ideals of the split (reason, groups) of ``_natural_split``, as
    the first summand and the sum of the others: coordinate spans for the
    graph components and for C; I = E^2 plus the e_k whose k is not a
    last column of E^2 + C, the complement that the greedy walk of
    ``_annihilator_split`` keeps (one elimination over reversed columns);
    and for the other splits, which only a nilpotent E has, the ideal
    each group generates: its vectors and their successive squares, up to
    the first zero square."""
    n, field = E.dim, E.field
    ops = field.ops
    if reason not in (_DISCONNECTED, _ANN_OUTSIDE_SQUARE):
        spans = [[] for _ in groups]
        for span, g in zip(spans, groups):
            for i in g:
                v = _unit_row(i, n, ops)
                while any(x != ops.zero for x in v):
                    span.append(v)
                    v = ops.product(E._rows, v, v)
        return (Subspace._span(spans[0], n, field),
                Subspace._span([v for s in spans[1:] for v in s], n, field))
    rest = Subspace.coordinate([i for g in groups[1:] for i in g], n, field)
    if reason == _DISCONNECTED:
        return Subspace.coordinate(groups[0], n, field), rest
    last = _last_columns(E._rows + rest._rows, n, ops)
    return (Subspace._span(E._rows + [_unit_row(k, n, ops) for k in range(n)
                                      if k not in last], n, field),
            rest)


def decomposability_check(E: EvolutionAlgebra) -> DecompVerdict:
    """Apply the sufficient decomposability/indecomposability criteria in
    a fixed order; Unknown when none of them applies:

    - decomposable, by the criteria of ``_natural_split``: (a) the
      attached graph is disconnected, (b) an annihilator vector lies
      outside E^2, (c) dim ann >= dim/2, and for a nilpotent E of dim 5
      with dim ann = 2, (c1) type [2,3] with two proportional squares and
      (c2) type [2,2,1] whose top square misses a middle vector;
    - indecomposable, for a nilpotent E: (d0) dim 2, (d) type [n,1,m]
      with ann inside E^2, (e) a one-dimensional annihilator.

    A decomposable verdict carries the natural split's first summand and
    the sum of the others as its witness (``_split_ideals``)."""
    series = upper_series(E)
    split = _natural_split(E, series)
    if split is not None:
        reason, groups = split
        return DecompVerdict(DECOMPOSABLE, reason,
                             _split_ideals(E, reason, groups))

    # past the split criteria E is connected, and ann lies inside E^2
    # whenever n >= 2
    n = E.dim
    if series.nilpotent:
        tv = series.type_vector
        # (d0) a connected nilpotent dim-2 algebra has a nonzero square,
        # so it is the two-element chain: any 1-dim nilpotent ideal
        # squares to zero, so a direct sum of two of them would force
        # E^2 = 0
        if n == 2:
            return DecompVerdict(
                INDECOMPOSABLE, "nilpotent dim 2 with nonzero product")
        # (d) type [n,1,m] with ann inside E^2 is indecomposable
        if len(tv) == 3 and tv[1] == 1:
            return DecompVerdict(
                INDECOMPOSABLE,
                "type [n,1,m] with annihilator inside E^2")
        # (e) if E = I + J with nonzero ideals I and J, both are nilpotent
        # and have nonzero annihilators, which lie in ann(E) (I J = 0), so
        # dim ann(E) >= 2
        if n >= 2 and tv[0] == 1:
            return DecompVerdict(
                INDECOMPOSABLE, "nilpotent with one-dimensional annihilator")

    return DecompVerdict(UNKNOWN, "no applicable criterion")


class InvariantProfile(Value):
    """Dimension/containment data distinguishing canonical classes."""

    __slots__ = _fields = ("type_vector", "dim_sq", "dim_block_sq",
                           "dim_u3_sq_sq", "u4_sq_in_u3", "ann_in_sq",
                           "dim_sq_cap_u3")

    def __init__(self, type_vector: list, dim_sq: int, dim_block_sq: dict,
                 dim_u3_sq_sq: int | None, u4_sq_in_u3: bool | None,
                 ann_in_sq: bool, dim_sq_cap_u3: int | None):
        self.type_vector = type_vector
        self.dim_sq = dim_sq
        self.dim_block_sq = dim_block_sq    # i -> dim (U_i + U_1)^2, i >= 2
        self.dim_u3_sq_sq = dim_u3_sq_sq    # dim ((U_3 + U_1)^2)^2
        self.u4_sq_in_u3 = u4_sq_in_u3      # (U_4 + U_1)^2 in U_3 + U_1
        self.ann_in_sq = ann_in_sq
        self.dim_sq_cap_u3 = dim_sq_cap_u3  # dim (E^2 cap (U_3 + U_1))


def block_subspace(E: EvolutionAlgebra, series: AnnSeries, i: int) -> Subspace:
    """U_i as a coordinate subspace (1-based block index)."""
    if not (isinstance(i, int) and 1 <= i <= series.r):
        raise ShapeError(f"block index must be an int in 1..{series.r}")
    return Subspace.coordinate(series.blocks[i - 1], E.dim, E.field)


def invariant_profile(E: EvolutionAlgebra) -> InvariantProfile:
    series = upper_series(E)
    if not series.nilpotent:
        raise NotNilpotent("invariant profile requires a nilpotent algebra")
    r = series.r
    u1 = block_subspace(E, series, 1)
    sq = square_subspace(E)
    dim_block_sq = {}
    for i in range(2, r + 1):
        ui = block_subspace(E, series, i) + u1
        dim_block_sq[i] = product_subspace(E, ui, ui).dim
    dim_u3_sq_sq = None
    u4_in = None
    dim_cap = None
    if r >= 3:
        u3 = block_subspace(E, series, 3) + u1
        p = product_subspace(E, u3, u3)
        dim_u3_sq_sq = product_subspace(E, p, p).dim
        dim_cap = sq.intersect(u3).dim
    if r >= 4:
        u4 = block_subspace(E, series, 4) + u1
        u3 = block_subspace(E, series, 3) + u1
        u4_in = u3.contains(product_subspace(E, u4, u4))
    return InvariantProfile(
        type_vector=list(series.type_vector),
        dim_sq=sq.dim,
        dim_block_sq=dim_block_sq,
        dim_u3_sq_sq=dim_u3_sq_sq,
        u4_sq_in_u3=u4_in,
        ann_in_sq=_annihilator_split(E, _zero_rows(E)) is None,
        dim_sq_cap_u3=dim_cap,
    )
