"""Dense exact linear algebra over a coefficient field.

Matrices are stored as lists of row lists of FieldElement.  Subspaces are
kept in reduced row echelon form, so two equal subspaces are structurally
equal and can be compared entrywise.  Everything here is small (at most a
handful of rows/columns), so plain Gaussian elimination is all we need.
"""

from __future__ import annotations

from .errors import AmbientMismatch, ShapeError, Singular
from .fields import FieldDescriptor, FieldElement


class Matrix:
    """A dense matrix with exact entries sharing one field."""

    def __init__(self, rows: list[list[FieldElement]], field: FieldDescriptor,
                 cols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        self.nrows = len(self.rows)
        self.ncols = cols
        for r in self.rows:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            for x in r:
                if x.field != field:
                    raise ShapeError("entry from a different field")

    @classmethod
    def from_ints(cls, rows: list[list[int]], field: FieldDescriptor,
                  cols: int | None = None):
        return cls([[field.from_int(x) for x in r] for r in rows], field, cols)

    @classmethod
    def identity(cls, n: int, field: FieldDescriptor):
        z, o = field.zero(), field.one()
        return cls([[o if i == j else z for j in range(n)] for i in range(n)],
                   field, n)

    @classmethod
    def zero(cls, nrows: int, ncols: int, field: FieldDescriptor):
        z = field.zero()
        return cls([[z] * ncols for _ in range(nrows)], field, ncols)

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
        z = self.field.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out, self.field, other.ncols)

    def apply(self, v: list[FieldElement]) -> list[FieldElement]:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        z = self.field.zero()
        out = []
        for i in range(self.nrows):
            acc = z
            for k in range(self.ncols):
                acc = acc + self.rows[i][k] * v[k]
            out.append(acc)
        return out

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            return False
        _, rank = rref(self)
        return rank == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices invert")
        n = self.nrows
        aug = Matrix([self.rows[i] + Matrix.identity(n, self.field).rows[i]
                      for i in range(n)], self.field, 2 * n)
        red, rank = rref(aug)
        if rank < n or any(red.rows[i][i].is_zero() for i in range(n)):
            raise Singular("matrix is not invertible")
        return Matrix([red.rows[i][n:] for i in range(n)], self.field, n)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, nrows):
            if not rows[r][col].is_zero():
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(rows, m.field, ncols), pivot_row


class Subspace:
    """A subspace of F^n held as an RREF basis (zero rows dropped)."""

    def __init__(self, ambient_dim: int, basis: Matrix):
        self.ambient_dim = ambient_dim
        self.field = basis.field
        if basis.ncols != ambient_dim:
            raise AmbientMismatch(
                f"basis has {basis.ncols} columns, ambient is {ambient_dim}")
        red, rank = rref(basis)
        self.basis = Matrix(red.rows[:rank], basis.field, ambient_dim)

    @classmethod
    def from_vectors(cls, vectors: list[list[FieldElement]],
                     ambient_dim: int, field: FieldDescriptor):
        return cls(ambient_dim, Matrix(vectors, field, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int, field: FieldDescriptor):
        return cls(ambient_dim, Matrix.zero(0, ambient_dim, field))

    @classmethod
    def full(cls, ambient_dim: int, field: FieldDescriptor):
        return cls(ambient_dim, Matrix.identity(ambient_dim, field))

    @classmethod
    def coordinate(cls, indices, ambient_dim: int, field: FieldDescriptor):
        """Span of the coordinate vectors with the given indices."""
        vecs = []
        for i in sorted(indices):
            v = [field.zero()] * ambient_dim
            v[i] = field.one()
            vecs.append(v)
        return cls.from_vectors(vecs, ambient_dim, field)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def vectors(self) -> list[list[FieldElement]]:
        return [list(r) for r in self.basis.rows]

    def contains_vector(self, v: list[FieldElement]) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        v = list(v)
        for row in self.basis.rows:
            piv = next(j for j, x in enumerate(row) if not x.is_zero())
            if not v[piv].is_zero():
                c = v[piv]
                v = [a - c * b for a, b in zip(v, row)]
        return all(x.is_zero() for x in v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.vectors())

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace.from_vectors(self.vectors() + other.vectors(),
                                     self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        # Zassenhaus-free route: x in S cap T  iff  x = c.S_basis and
        # x is killed by a matrix whose kernel is T.
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.field)
        constraints = _annihilating_matrix(other)
        # rows of self.basis, combined with coefficient vector c
        prod = Matrix(self.basis.rows, self.field,
                      self.ambient_dim).transpose()
        system = constraints * prod  # (k x n)(n x d) -> k x d
        ker = kernel(system)
        vecs = []
        for coef in ker.vectors():
            v = [self.field.zero()] * self.ambient_dim
            for c, row in zip(coef, self.basis.rows):
                v = [a + c * b for a, b in zip(v, row)]
            vecs.append(v)
        return Subspace.from_vectors(vecs, self.ambient_dim, self.field)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"


def _annihilating_matrix(s: Subspace) -> Matrix:
    """A matrix whose kernel is exactly s (rows = basis of the kernel of
    s's basis viewed column-wise, i.e. the orthogonal complement)."""
    comp = kernel(Matrix(s.basis.rows, s.field, s.ambient_dim))
    if comp.dim == 0:
        return Matrix.zero(1, s.ambient_dim, s.field)
    return Matrix(comp.basis.rows, s.field, s.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """The right kernel {x : m x = 0} as a Subspace of F^ncols."""
    red, rank = rref(m)
    field = m.field
    n = m.ncols
    pivots = []
    for r in range(rank):
        piv = next(j for j, x in enumerate(red.rows[r]) if not x.is_zero())
        pivots.append(piv)
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for j in free:
        v = [field.zero()] * n
        v[j] = field.one()
        for r, piv in enumerate(pivots):
            v[piv] = -red.rows[r][j]
        vecs.append(v)
    return Subspace.from_vectors(vecs, n, field)
