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
series keeps its blocks, and builds ``AnnSeries.chain`` on first read),
and ann lies in E^2 exactly when E^2's reduced basis holds the unit row
of each such e_i.  The nonzero pattern of the structure rows is one int
bitmask per row (``EvolutionAlgebra._supports``), built once per
algebra; the series, the graph components and the zero squares test it
with ``&``.  The split along an annihilator vector outside E^2
(``_annihilator_split``) builds its natural basis from three
eliminations: ann cap E^2 and the test of ann inside E^2 from one, its
unit complement C from the last nonzero columns of another, and each
e_k's component in C from the C columns that ride along the third.

The decomposability criteria that split E into ideals spanned by a
natural basis (a disconnected graph, an annihilator vector outside E^2,
dim ann >= dim/2) live in one place, ``_natural_split``, which returns
the split's natural basis and its index groups: ``decomposability_check``
spans its witness ideals from them and ``classify`` carves its summands
from them.  Its stages can also run alone, for a summand whose split
already proved the others cannot fire: a graph component, which is
connected and inherits its series (``_component_series``), needs only
``_connected_split``; the I summand of an annihilator split and each
pair of the pairing, whose annihilator lies inside its square, need only
``_split_inside_square``.
"""

from __future__ import annotations

from functools import cached_property

from ._values import Value
from .errors import NotAnIdeal, NotNilpotent, ShapeError
from .fields import FieldDescriptor, FieldElement
from . import linalg
from .linalg import (Matrix, Subspace, _combine, _identity_rows,
                     _kernel_rows, _unit_row)


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
        """The support masks of the structure rows (``_support_masks``),
        built on first use and kept."""
        masks = self._masks
        if masks is None:
            masks = self._masks = _support_masks(self._rows,
                                                 self.field.ops.zero)
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
        prod = _product(self._rows, field.payloads(x), field.payloads(y),
                        field.ops)
        return [FieldElement(field, v) for v in prod]

    def annihilator(self) -> Subspace:
        """Span of the natural basis vectors with zero square."""
        return Subspace.coordinate(_zero_rows(self), self.dim, self.field)


def _product(rows: list[list], x: list, y: list, ops) -> list:
    """Payload product sum_i x_i y_i e_i^2, where rows[i] holds e_i^2
    (``FieldOps.product``)."""
    return ops.product(rows, x, y)


def _support_masks(rows: list[list], Z) -> list[int]:
    """The nonzero pattern of the payload rows, as one int per row whose
    bit j is set when the row's entry j is not Z.  For the structure rows
    (``EvolutionAlgebra._supports``) one pass serves the series, the graph
    components, the zero squares and the naturality checks."""
    masks = []
    for row in rows:
        m, bit = 0, 1
        for x in row:
            if x != Z:
                m |= bit
            bit <<= 1
        masks.append(m)
    return masks


def _live_mask(masks: list[int]) -> int:
    """The mask whose bit k is set when masks[k] is nonzero: for the
    structure rows, the e_k with e_k^2 != 0, the only rows a product
    sum_k x_k y_k e_k^2 reads."""
    live = 0
    for k, m in enumerate(masks):
        if m:
            live |= 1 << k
    return live


def _zero_rows(E: EvolutionAlgebra) -> list[int]:
    """Indices of the natural basis vectors with zero square."""
    return [i for i, s in enumerate(E._supports()) if not s]


def quotient_by_block(E: EvolutionAlgebra, keep) -> EvolutionAlgebra:
    """Quotient by the span of the discarded basis vectors.

    The discarded span must be an ideal, which for a coordinate span
    means every discarded vector's square is supported on discarded
    coordinates.
    """
    keep = sorted(_checked_indices(keep, E.dim))
    discard = [i for i in range(E.dim) if i not in keep]
    for i in discard:
        for j in keep:
            if not E.structure[i, j].is_zero():
                raise NotAnIdeal(
                    f"square of basis vector {i} leaves the discarded span")
    rows = [[E.structure[i, j] for j in keep] for i in keep]
    return EvolutionAlgebra(len(keep),
                            Matrix(rows, E.field, len(keep)), E.field)


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

    @chain.setter
    def chain(self, value):
        self._chain = value

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


def _component_series(series: AnnSeries, comp: list[int],
                      field) -> AnnSeries:
    """The series of the summand on the graph component comp (sorted),
    read off the series of the whole algebra.  A component is closed
    under supports, so each term of its series is the matching term of
    the whole series restricted to it, renumbered, until the component
    is full; the blocks after that restrict to nothing and are dropped."""
    at = {i: k for k, i in enumerate(comp)}
    blocks = []
    for blk in series.blocks:
        mine = [at[i] for i in blk if i in at]
        if not mine:
            break
        blocks.append(mine)
    return AnnSeries._lazy(blocks, series.nilpotent, len(comp), field)


def product_subspace(E: EvolutionAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of all products of basis vectors of s with basis vectors of t."""
    E.field.require(s.field)
    E.field.require(t.field)
    ops = E.field.ops
    return Subspace._span([_product(E._rows, x, y, ops)
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
    if max_k < 1:
        raise ShapeError("max_k must be at least 1")
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
    steps bound the nilpotency index.
    """
    if kind == RIGHT:
        chain = power_subspaces(E, RIGHT, E.dim + 1)
    else:
        chain = power_subspaces(E, PLENARY, 2 ** E.dim)
    return chain[-1].is_zero()


def relative_annihilator(E: EvolutionAlgebra, inside: Subspace,
                         against: Subspace) -> Subspace:
    """{x in inside : x * against = 0}."""
    if inside.ambient_dim != E.dim or against.ambient_dim != E.dim:
        from .errors import AmbientMismatch
        raise AmbientMismatch("subspace ambient must equal algebra dim")
    E.field.require(inside.field)
    E.field.require(against.field)
    gens = inside._rows
    if not gens:
        return Subspace.zero(E.dim, E.field)
    ops = E.field.ops
    constraints = []
    for t in against._rows:
        prods = [_product(E._rows, g, t, ops) for g in gens]
        for j in range(E.dim):
            constraints.append([p[j] for p in prods])
    if not constraints:
        return inside
    coefs, _ = _kernel_rows(constraints, len(gens), ops)
    return Subspace._span([_combine(c, gens, E.dim, ops) for c in coefs],
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
    idx = list(idx)
    if len(set(idx)) != len(idx) or not all(0 <= i < n for i in idx):
        raise ShapeError(f"indices must be distinct and in 0..{n - 1}")
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


def _holds_units(s: Subspace, indices) -> bool:
    """Whether s contains e_k for every k in indices.  The coordinates of
    e_k at the pivots of s's reduced basis pick the one combination that
    could equal it, so e_k lies in s exactly when that basis holds the
    unit row e_k."""
    Z, n = s.field.ops.zero, s.ambient_dim
    units = {piv for row, piv in zip(s._rows, s._pivots)
             if row.count(Z) == n - 1}
    return all(k in units for k in indices)


def _last_columns(rows: list[list], n: int, ops) -> set[int]:
    """The columns k at which some vector of span(rows) has its last
    nonzero entry: the pivots of one elimination over reversed columns.
    Walking e_0, e_1, ... and keeping each e_k outside span(rows) plus
    the e_j already walked keeps exactly the k not in this set."""
    rev = [r[::-1] for r in rows]
    return {n - 1 - p for p in linalg._rref_rows(rev, n, ops)}


def _annihilator_split(E: EvolutionAlgebra, zero: list[int]):
    """The natural basis of the split along an annihilator vector outside
    E^2, as (basis, head), or None when ann lies inside E^2; zero lists
    the e_k with e_k^2 = 0, which span ann.  C is spanned by the e_k, k
    in zero, that the greedy walk keeps outside ann cap E^2, so ann =
    (ann cap E^2) + C; I is E^2 plus the e_k the walk keeps outside
    E^2 + C, so E = I + C.  basis holds, in this order, e_k minus its
    C-component for each k outside zero, the reduced basis of ann cap
    E^2 and the unit rows of C; its first head rows span I.

    Three eliminations build it:

    - the nonzero squares with the zero columns last: the reduced rows
      with a pivot among those columns vanish on every other column and
      span exactly ann cap E^2, and ann lies inside E^2 when there are
      len(zero) of them;
    - ann cap E^2 over reversed columns, for the walk that picks C;
    - E^2 over the columns outside C in reversed order, the C columns
      riding along.  Its pivots and C's columns are the last columns of
      E^2 + C.  Let s be the reduced row with pivot t: s without its C
      entries lies in E^2 + C and differs from e_t only at columns that
      are not last columns, whose e_j the walk keeps in I.  So the
      C-component of e_t is minus the C entries of s, and an e_k that
      is no pivot lies in I already."""
    n, ops = E.dim, E.field.ops
    Z = ops.zero
    zset = set(zero)
    live = [j for j in range(n) if j not in zset]
    order = live + zero
    head = len(live)
    rows = [[E._rows[i][j] for j in order] for i in live]
    pivots = linalg._rref_rows(rows, n, ops)
    if sum(p >= head for p in pivots) == len(zero):
        return None
    sq_rows, ann_rows = [], []
    for r, p in zip(rows, pivots):
        v = [Z] * n
        for j, x in zip(order, r):
            v[j] = x
        sq_rows.append(v)
        if p >= head:
            ann_rows.append(v)
    taken = _last_columns(ann_rows, n, ops) if ann_rows else set()
    c_idx = [k for k in zero if k not in taken]
    cset = set(c_idx)
    rest = [j for j in reversed(range(n)) if j not in cset]
    rows = [[r[j] for j in rest] + [r[j] for j in c_idx] for r in sq_rows]
    tail = {}
    for r, p in zip(rows, linalg._rref_rows(rows, len(rest), ops)):
        tail[rest[p]] = r[len(rest):]
    basis = []
    for k in live:
        v = _unit_row(k, n, ops)
        if k in tail:
            for j, x in zip(c_idx, tail[k]):
                v[j] = x
        basis.append(v)
    basis += ann_rows
    return basis + [_unit_row(k, n, ops) for k in c_idx], len(basis)


def _natural_split(E: EvolutionAlgebra):
    """The first split of E into ideals spanned by a natural basis that
    the decomposability criteria find, as (reason, basis, groups), or
    None.  basis holds the payload rows of that natural basis, or is None
    for E's own basis, and groups lists for each summand the indices of
    the basis rows that span it.  The criteria, in order:

    - the attached graph is disconnected: the components
      (``_component_split``);
    - an annihilator vector lies outside E^2: E = I + C with I an ideal
      containing E^2 and C inside ann (``_annihilator_split``); each
      e_k with e_k^2 != 0 moves into I by dropping its C-component, and
      C's unit rows are one-dimensional summands;
    - dim ann >= dim / 2 with ann inside E^2 (``_pairing``).

    A split proves facts about its summands, and ``classify`` hands them
    down instead of testing again.  A component is connected, and its
    series is E's series restricted to it, since a component is closed
    under supports; so its split stage is ``_connected_split``.  The I
    summand of an annihilator split and each pair of the pairing have
    their annihilator inside their square, so their split stage skips
    the annihilator split (``_split_inside_square``).  For I: E = I + C with
    C inside ann(E) and ann(E) = (ann(E) cap E^2) + C, so ann(I) contains
    ann(E) cap E^2, and the two have the same dimension, dim ann(E) -
    dim C; hence ann(I) = ann(E) cap E^2, which lies in E^2 = I^2.  For a
    pair, ann = E^2.
    """
    return _component_split(E) or _connected_split(E)


def _component_split(E: EvolutionAlgebra):
    """The split into graph components, or None when E is connected."""
    comps = component_index_sets(E)
    if len(comps) > 1:
        return "attached graph is disconnected", None, comps
    return None


def _connected_split(E: EvolutionAlgebra):
    """``_natural_split`` of a connected E: the annihilator split, else
    the pairing."""
    zero = _zero_rows(E)
    split = _annihilator_split(E, zero) if E.dim >= 2 and zero else None
    if split is not None:
        basis, head = split
        return ("annihilator is not contained in E^2", basis,
                [list(range(head))] + [[j] for j in range(head, E.dim)])
    return _pairing(E, zero)


def _split_inside_square(E: EvolutionAlgebra):
    """``_natural_split`` of an E whose annihilator lies inside E^2, where
    no annihilator split exists: the components, else the pairing."""
    return _component_split(E) or _pairing(E, _zero_rows(E))


def _pairing(E: EvolutionAlgebra, zero: list[int]):
    """The split of an E with ann inside E^2 into the pairs e_i, e_i^2,
    when dim ann >= dim / 2 and there are at least two pairs; zero lists
    the e_k with e_k^2 = 0.  Then dim ann <= dim E^2 <= n - dim ann forces
    n = 2 dim ann, E^2 = ann and independent nonzero squares, so each
    pair spans an ideal."""
    n, ops = E.dim, E.field.ops
    pairs = n - len(zero)
    if 2 * len(zero) < n or pairs < 2:
        return None
    zset = set(zero)
    basis = []
    for i in range(n):
        if i not in zset:
            basis += [_unit_row(i, n, ops), E._rows[i]]
    return ("annihilator has dimension at least dim/2", basis,
            [[2 * k, 2 * k + 1] for k in range(pairs)])


def decomposability_check(E: EvolutionAlgebra) -> DecompVerdict:
    """Apply the sufficient decomposability/indecomposability criteria in
    a fixed order; Unknown when none of them applies.  A decomposable
    verdict carries the natural split's first summand and the sum of the
    others as its witness."""
    n, field = E.dim, E.field
    split = _natural_split(E)
    if split is not None:
        reason, basis, groups = split
        rows = _identity_rows(n, field.ops) if basis is None else basis
        head = Subspace._span([rows[i] for i in groups[0]], n, field)
        tail = Subspace._span([rows[i] for g in groups[1:] for i in g],
                              n, field)
        return DecompVerdict(DECOMPOSABLE, reason, (head, tail))

    # past the split criteria E is connected, and ann lies inside E^2
    # whenever n >= 2
    series = upper_series(E)
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
        ann_in_sq=_holds_units(sq, _zero_rows(E)),
        dim_sq_cap_u3=dim_cap,
    )
