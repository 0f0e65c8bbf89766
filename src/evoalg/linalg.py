"""Dense exact linear algebra over a coefficient field.

Matrices are stored as lists of row lists of FieldElement.  Subspaces are
kept in reduced row echelon form, so two equal subspaces are structurally
equal and can be compared entrywise.  Everything here is small (at most a
handful of rows/columns), so plain Gaussian elimination is all we need.

The kernels compute on raw payload rows through the field's ``ops``
table (see ``fields.FieldOps``): a public operation unwraps its entries
once and wraps its result once.  Elimination and linear combination are
the table's own kernels (``ops.rref``, ``ops.combine``), which callers
call directly, so each field runs its own.
"""

from __future__ import annotations

from functools import cached_property

from .errors import AmbientMismatch, ShapeError, Singular
from .fields import FieldDescriptor, FieldElement


class Matrix:
    """A dense matrix with exact entries sharing one field."""

    def __init__(self, rows: list[list[FieldElement]], field: FieldDescriptor,
                 cols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        if self.rows:
            width = len(self.rows[0])
            if cols is not None and cols != width:
                raise ShapeError(f"rows have {width} columns, not {cols!r}")
            cols = width
        elif cols is None:
            cols = 0
        else:
            _check_size(cols, "column count")
        self.nrows = len(self.rows)
        self.ncols = cols
        for r in self.rows:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            for x in r:
                if not isinstance(x, FieldElement):
                    raise ShapeError(f"entry {x!r} is not a field element")
                if x.field is not field and x.field != field:
                    raise ShapeError("entry from a different field")

    @classmethod
    def _wrap(cls, prows: list[list], field: FieldDescriptor,
              ncols: int) -> "Matrix":
        """A matrix over ``field`` from payload rows, which are trusted."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = [[FieldElement(field, x) for x in r] for r in prows]
        m.nrows = len(prows)
        m.ncols = ncols
        return m

    def _payloads(self) -> list[list]:
        return [[x.value for x in r] for r in self.rows]

    @classmethod
    def from_ints(cls, rows: list[list[int]], field: FieldDescriptor,
                  cols: int | None = None):
        return cls([[field.from_int(x) for x in r] for r in rows], field, cols)

    @classmethod
    def identity(cls, n: int, field: FieldDescriptor):
        _check_size(n, "size")
        return cls._wrap(_identity_rows(n, field.ops), field, n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.rows)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i) -> list[FieldElement]:
        return list(self.rows[i])

    def col(self, j) -> list[FieldElement]:
        return [r[j] for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.field, self.nrows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"{self.nrows}x{self.ncols} * "
                             f"{other.nrows}x{other.ncols}")
        self.field.require(other.field)
        dot = self.field.ops.dot
        b = other._payloads()
        cols = [[r[j] for r in b] for j in range(other.ncols)]
        out = [[dot(r, c) for c in cols] for r in self._payloads()]
        return Matrix._wrap(out, self.field, other.ncols)

    def apply(self, v: list[FieldElement]) -> list[FieldElement]:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        field = self.field
        dot = field.ops.dot
        w = field.payloads(v)
        return [FieldElement(field, dot(r, w)) for r in self._payloads()]

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return _rank(self._payloads(), self.ncols, self.field.ops) == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices invert")
        return Matrix._wrap(_inverse_rows(self._payloads(), self.field.ops),
                            self.field, self.nrows)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _check_size(n, what: str):
    """Raise ShapeError unless n is an int (not a bool) of at least 0."""
    if not (type(n) is int and n >= 0):
        raise ShapeError(f"{what} must be an int of at least 0, got {n!r}")


# ---------------------------------------------------------------------------
# payload kernels: lists of payload rows, arithmetic through a FieldOps

def _unit_row(i, n, ops) -> list:
    """The payload unit row e_i of length n."""
    v = [ops.zero] * n
    v[i] = ops.one
    return v


def _identity_rows(n, ops) -> list[list]:
    return [[ops.one if i == j else ops.zero for j in range(n)]
            for i in range(n)]


def _inverse_rows(rows: list[list], ops) -> list[list]:
    """The inverse of a square matrix given by payload rows, by one
    elimination of [A | I]; raises Singular."""
    n = len(rows)
    aug = [r + e for r, e in zip(rows, _identity_rows(n, ops))]
    if ops.rref(aug, n) != list(range(n)):
        raise Singular("matrix is not invertible")
    return [r[n:] for r in aug]


def _rank(rows: list[list], ncols: int, ops) -> int:
    """Rank of payload rows in their first ``ncols`` columns, by one
    elimination of a copy; the rows are left untouched."""
    return len(ops.rref(list(rows), ncols))


def _kernel_rows(rows: list[list], ncols: int, ops):
    """The reduced basis of {x : rows . x = 0} as payload rows, and its
    pivot columns."""
    red = list(rows)
    pivots = ops.rref(red, ncols)
    neg = ops.neg
    vecs = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [ops.zero] * ncols
        v[j] = ops.one
        for r, piv in enumerate(pivots):
            v[piv] = neg(red[r][j])
        vecs.append(v)
    return vecs, ops.rref(vecs, ncols)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    rows = m._payloads()
    rank = len(m.field.ops.rref(rows, m.ncols))
    return Matrix._wrap(rows, m.field, m.ncols), rank


class Subspace:
    """A subspace of F^n held as an RREF basis (zero rows dropped)."""

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.ncols != ambient_dim:
            raise AmbientMismatch(
                f"basis has {basis.ncols} columns, ambient is {ambient_dim}")
        self._init(basis._payloads(), ambient_dim, basis.field)

    def _init(self, rows, ambient_dim, field, pivots=None):
        if pivots is None:
            pivots = field.ops.rref(rows, ambient_dim)
            del rows[len(pivots):]
        self.ambient_dim = ambient_dim
        self.field = field
        self._rows = rows
        self._pivots = pivots

    @classmethod
    def _span(cls, rows: list[list], ambient_dim: int, field: FieldDescriptor,
              pivots: list[int] | None = None) -> "Subspace":
        """The span of payload rows, which the subspace takes over; pass
        their ``pivots`` when they already are an RREF basis."""
        s = cls.__new__(cls)
        s._init(rows, ambient_dim, field, pivots)
        return s

    @classmethod
    def from_vectors(cls, vectors: list[list[FieldElement]],
                     ambient_dim: int, field: FieldDescriptor):
        return cls(ambient_dim, Matrix(vectors, field, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int, field: FieldDescriptor):
        return cls._span([], ambient_dim, field, [])

    @classmethod
    def full(cls, ambient_dim: int, field: FieldDescriptor):
        return cls._span(_identity_rows(ambient_dim, field.ops), ambient_dim,
                         field, list(range(ambient_dim)))

    @classmethod
    def coordinate(cls, indices, ambient_dim: int, field: FieldDescriptor):
        """Span of the coordinate vectors with the given indices; the unit
        rows in increasing order already are its RREF basis."""
        if not all(isinstance(i, int) and 0 <= i < ambient_dim
                   for i in indices):
            raise AmbientMismatch(
                f"coordinate indices must be ints in 0..{ambient_dim - 1}")
        pivots = sorted(set(indices))
        return cls._span([_unit_row(i, ambient_dim, field.ops)
                          for i in pivots], ambient_dim, field, pivots)

    @cached_property
    def basis(self) -> Matrix:
        return Matrix._wrap(self._rows, self.field, self.ambient_dim)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def vectors(self) -> list[list[FieldElement]]:
        return [list(r) for r in self.basis.rows]

    def _contains_row(self, w: list) -> bool:
        ops = self.field.ops
        Z, neg, addmul = ops.zero, ops.neg, ops.addmul
        for row, piv in zip(self._rows, self._pivots):
            c = w[piv]
            if c != Z:
                w = addmul(w, neg(c), row)
        return all(x == Z for x in w)

    def contains_vector(self, v: list[FieldElement]) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        return self._contains_row(self.field.payloads(v))

    def _require_like(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        self.field.require(other.field)

    def contains(self, other: "Subspace") -> bool:
        self._require_like(other)
        return all(self._contains_row(r) for r in other._rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._require_like(other)
        return Subspace._span(self._rows + other._rows, self.ambient_dim,
                              self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._require_like(other)
        n, field = self.ambient_dim, self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n, field)
        ops = field.ops
        # x = c . self_rows lies in other iff every row y of the kernel of
        # other's basis has y . x = 0, a linear system in c
        constraints, _ = _kernel_rows(other._rows, n, ops)
        if not constraints:
            return self
        system = [[ops.dot(y, s) for s in self._rows] for y in constraints]
        coefs, _ = _kernel_rows(system, self.dim, ops)
        return Subspace._span([ops.combine(c, self._rows, n) for c in coefs],
                              n, field)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"


def kernel(m: Matrix) -> Subspace:
    """The right kernel {x : m x = 0} as a Subspace of F^ncols."""
    rows, pivots = _kernel_rows(m._payloads(), m.ncols, m.field.ops)
    return Subspace._span(rows, m.ncols, m.field, pivots)
