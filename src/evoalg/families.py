"""The four parametric families of nilpotent evolution algebras.

Each family is specified by diagonal data: the Gram diagonal of a
nondegenerate symmetric form b on an n-dimensional space U in an
orthogonal basis of common eigenvectors, plus eigenvalue lists for the
symmetric endomorphisms f and g where the family uses them, or the
coordinates of a distinguished vector u.  The builders emit the natural
basis presentations:

  Ub    (u_1..u_n, s):        u_i^2 = b_i s                       type [1,n]
  Ubg   (u_1..u_n, w, s):     u_i^2 = b_i w + b_i g_i s, w^2 = s  type [1,1,n]
  Ubfg  (u_1..u_n, w, t, s):  u_i^2 = b_i (w + f_i t + g_i s),
                              w^2 = t, t^2 = s                    type [1,1,1,n]
  Ubu   (a, u_1..u_n, s):     a^2 = sum u_i' u_i, u_i^2 = b_i s   type [1,n,1]
"""

from __future__ import annotations

from ._values import Frozen, set_fields
from .errors import KindMismatch, SpecMismatch, UnsupportedField
from .fields import FieldDescriptor, FieldElement, order_key
from .linalg import Matrix
from .algebra import EvolutionAlgebra
from .oracle import verify_hom

UB = "Ub"
UBG = "Ubg"
UBFG = "Ubfg"
UBU = "Ubu"


class FamilySpec(Frozen):
    __slots__ = _fields = ("kind", "n", "b_diag", "f_eigs", "g_eigs",
                           "u_coords")

    def __init__(self, kind: str, n: int, b_diag: tuple,
                 f_eigs: tuple | None = None, g_eigs: tuple | None = None,
                 u_coords: tuple | None = None):
        set_fields(self, kind, n, b_diag, f_eigs, g_eigs, u_coords)
        self._validate()

    def _validate(self):
        if self.kind not in (UB, UBG, UBFG, UBU):
            raise SpecMismatch(f"unknown family kind {self.kind!r}")
        if self.n < 1 or len(self.b_diag) != self.n:
            raise SpecMismatch("b_diag must have length n >= 1")
        entries = [x for lst in (self.b_diag, self.f_eigs, self.g_eigs,
                                 self.u_coords) if lst for x in lst]
        if not all(isinstance(x, FieldElement) for x in entries):
            raise SpecMismatch("spec entries must be field elements")
        for x in entries:
            self.field.require(x.field)
        if any(x.is_zero() for x in self.b_diag):
            raise SpecMismatch("b must be nondegenerate (no zero diagonal)")
        need_f = self.kind == UBFG
        need_g = self.kind in (UBG, UBFG)
        need_u = self.kind == UBU
        if need_f != (self.f_eigs is not None):
            raise SpecMismatch("f_eigs required exactly for kind Ubfg")
        if need_g != (self.g_eigs is not None):
            raise SpecMismatch("g_eigs required exactly for kinds Ubg/Ubfg")
        if need_u != (self.u_coords is not None):
            raise SpecMismatch("u_coords required exactly for kind Ubu")
        for lst in (self.f_eigs, self.g_eigs, self.u_coords):
            if lst is not None and len(lst) != self.n:
                raise SpecMismatch("eigenvalue/coordinate list length != n")
        if need_u and all(x.is_zero() for x in self.u_coords):
            raise SpecMismatch("u must be nonzero")

    @property
    def field(self) -> FieldDescriptor:
        return self.b_diag[0].field


def _tower_rows(ops, b, eigs) -> list[list]:
    """Payload rows of u_i^2 = b_i (w + f_i t + g_i s) cut to the
    eigenvalue lists eigs (none, g, or f and g), each list adding one
    vector to the chain w -> t -> s; b holds the payloads b_i."""
    n = len(b)
    dim = n + 1 + len(eigs)
    rows = [[ops.zero] * dim for _ in range(dim)]
    for i, bi in enumerate(b):
        rows[i][n:] = [bi] + [ops.mul(bi, e[i]) for e in eigs]
    for j in range(n, dim - 1):
        rows[j][j + 1] = ops.one
    return rows


def _ubu_rows(ops, b, u) -> list[list]:
    """Payload rows of a^2 = sum u_i' u_i, u_i^2 = b_i s; u holds the
    payloads of the coordinates u_i'."""
    n = len(b)
    rows = [[ops.zero] * (n + 2) for _ in range(n + 2)]
    rows[0][1:n + 1] = u
    for i, bi in enumerate(b):
        rows[1 + i][n + 1] = bi
    return rows


def _tower(spec: FamilySpec, kind: str, eigs: tuple) -> EvolutionAlgebra:
    if spec.kind != kind:
        raise SpecMismatch(f"build_{kind} needs kind {kind}")
    field = spec.field
    rows = _tower_rows(field.ops, field.payloads(spec.b_diag),
                       [field.payloads(e) for e in eigs])
    return EvolutionAlgebra._wrap(rows, field)


def build_Ub(spec: FamilySpec) -> EvolutionAlgebra:
    return _tower(spec, UB, ())


def build_Ubg(spec: FamilySpec) -> EvolutionAlgebra:
    return _tower(spec, UBG, (spec.g_eigs,))


def build_Ubfg(spec: FamilySpec) -> EvolutionAlgebra:
    return _tower(spec, UBFG, (spec.f_eigs, spec.g_eigs))


def build_Ubu(spec: FamilySpec) -> EvolutionAlgebra:
    if spec.kind != UBU:
        raise SpecMismatch("build_Ubu needs kind Ubu")
    field = spec.field
    rows = _ubu_rows(field.ops, field.payloads(spec.b_diag),
                     field.payloads(spec.u_coords))
    return EvolutionAlgebra._wrap(rows, field)


def build(spec: FamilySpec) -> EvolutionAlgebra:
    return {UB: build_Ub, UBG: build_Ubg,
            UBFG: build_Ubfg, UBU: build_Ubu}[spec.kind](spec)


def scaled_spec(spec: FamilySpec, alpha: FieldElement,
                beta: FieldElement) -> FamilySpec:
    """The target data (alpha b, alpha f, alpha^3 g + beta id) of the
    scaling isomorphism."""
    if spec.kind != UBFG:
        raise SpecMismatch("scaled_spec applies to kind Ubfg")
    a3 = alpha * alpha * alpha
    return FamilySpec(
        UBFG, spec.n,
        tuple(alpha * x for x in spec.b_diag),
        tuple(alpha * x for x in spec.f_eigs),
        tuple(a3 * x + beta for x in spec.g_eigs))


def scaling_isomorphism(spec: FamilySpec, alpha: FieldElement,
                        beta: FieldElement) -> Matrix:
    """An explicit isomorphism E(U,b,f,g) -> E(U, alpha b, alpha f,
    alpha^3 g + beta id) for nonzero alpha.

    With the eigenbasis fixed pointwise the map sends w to
    alpha w' + alpha beta s', t to alpha^2 t' and s to alpha^4 s';
    no square roots are needed.
    """
    if spec.kind != UBFG:
        raise SpecMismatch("scaling isomorphism applies to kind Ubfg")
    if alpha.is_zero():
        raise SpecMismatch("alpha must be nonzero")
    field = spec.field
    n = spec.n
    dim = n + 3
    m = Matrix.identity(dim, field).rows
    m = [list(r) for r in m]
    m[n][n] = alpha
    m[n + 2][n] = alpha * beta
    m[n + 1][n + 1] = alpha * alpha
    m[n + 2][n + 2] = alpha ** 4
    witness = Matrix(m, field, dim)
    src = build_Ubfg(spec)
    dst = build_Ubfg(scaled_spec(spec, alpha, beta))
    if not verify_hom(src, dst, witness):
        raise SpecMismatch("internal check failed for scaling isomorphism")
    return witness


# ---------------------------------------------------------------------------
# isomorphism tests (algebraically-closed-field semantics)

def _multiset(values) -> list:
    return sorted(values, key=order_key)


def _affine_match(g1, g2) -> bool:
    """Is there mu != 0, nu with multiset(mu*g1 + nu) == multiset(g2)?"""
    s1, s2 = _multiset(g1), _multiset(g2)
    distinct1 = sorted(set(s1), key=order_key)
    if len(distinct1) == 1:
        return len(set(s2)) == 1
    a, b = distinct1[0], distinct1[1]
    for ap in s2:
        for bp in s2:
            if ap == bp:
                continue
            mu = (bp - ap) / (b - a)
            nu = ap - mu * a
            if _multiset([mu * x + nu for x in g1]) == s2:
                return True
    return False


def _pair_multiset(fs, gs) -> list:
    return sorted(zip(fs, gs), key=lambda p: (order_key(p[0]), order_key(p[1])))


def _fg_match(f1, g1, f2, g2) -> bool:
    """Is there mu != 0, nu with pair-multiset (mu f1, mu^3 g1 + nu)
    equal to (f2, g2)?  Over a closed field mu ranges over all nonzero
    scalars (any norm is attainable)."""
    if all(x.is_zero() for x in f1):
        if not all(x.is_zero() for x in f2):
            return False
        # mu^3 is then an arbitrary nonzero scalar over a closed field
        return _affine_match(g1, g2)
    if all(x.is_zero() for x in f2):
        return False
    fi = next(x for x in f1 if not x.is_zero())
    idx = f1.index(fi)
    gi = g1[idx]
    target = _pair_multiset(f2, g2)
    for fj, gj in zip(f2, g2):
        if fj.is_zero():
            continue
        mu = fj / fi
        nu = gj - mu * mu * mu * gi
        mapped = _pair_multiset([mu * x for x in f1],
                                [mu ** 3 * x + nu for x in g1])
        if mapped == target:
            return True
    return False


def _isotropic(spec: FamilySpec) -> bool:
    acc = spec.field.zero()
    for bi, ui in zip(spec.b_diag, spec.u_coords):
        acc = acc + bi * ui * ui
    return acc.is_zero()


def family_iso_test(s1: FamilySpec, s2: FamilySpec,
                    assume_closed: bool = False) -> bool:
    """Decide isomorphism of two family algebras using the eigen-data
    orbit conditions valid over algebraically closed fields.

    The caller must assert closed-field semantics; the reductions are
    not valid verbatim over Q or a prime field.  Raises MixedFields when
    the two specs' fields differ.
    """
    s1.field.require(s2.field)
    if s1.kind != s2.kind or s1.n != s2.n:
        raise KindMismatch("family specs differ in kind or dimension")
    if not assume_closed:
        raise UnsupportedField(
            "family_iso_test uses algebraically-closed-field semantics; "
            "pass assume_closed=True to assert them")
    if s1.kind == UB:
        return True
    if s1.kind == UBG:
        return _affine_match(list(s1.g_eigs), list(s2.g_eigs))
    if s1.kind == UBFG:
        return _fg_match(list(s1.f_eigs), list(s1.g_eigs),
                         list(s2.f_eigs), list(s2.g_eigs))
    return _isotropic(s1) == _isotropic(s2)
