"""The canonical table of indecomposable nilpotent evolution algebras of
dimension at most 5.

Basis convention for every template: blocks of the upper annihilating
series in descending order (the top block first, the annihilator last).
Parameters follow the graphs as drawn; a "dashed" parameter may be zero,
while solid parameter edges are nonzero.  Each entry carries the finite
isomorphism orbit of its parameter tuple, valid over algebraically
closed fields.

The family-type templates are members of the paper's families with b = 1,
built by their row builders (``_tower``: Ub, Ubg, Ubfg; ``_ubu``: Ubu).
"""

from __future__ import annotations

from ._values import Frozen, set_fields
from .errors import DomainError, FieldLacksI, UnsupportedDim
from .fields import FieldDescriptor, FieldElement, order_key
from .algebra import EvolutionAlgebra
from .families import _tower_rows, _ubu_rows


class ClassEntry(Frozen):
    """One canonical class.  ``build(params, field)`` gives the payload
    structure rows of the template from payload params, ``orbit(params,
    field)`` the parameter tuples naming the same class, and
    ``param_ok(params)`` says whether params lie in the domain."""

    __slots__ = _fields = ("dim", "type_vector", "variant", "param_arity",
                           "build", "orbit", "param_ok", "needs_i")

    def __init__(self, dim: int, type_vector: tuple, variant: int,
                 param_arity: int, build, orbit, param_ok,
                 needs_i: bool = False):
        set_fields(self, dim, type_vector, variant, param_arity, build,
                   orbit, param_ok, needs_i)

    def template(self, params, field: FieldDescriptor) -> EvolutionAlgebra:
        return EvolutionAlgebra._wrap(self.template_rows(params, field),
                                      field)

    def template_rows(self, params, field: FieldDescriptor) -> list[list]:
        """The payload structure rows of the template; params are
        elements of field."""
        if len(params) != self.param_arity:
            raise DomainError(
                f"entry {self.key()} takes {self.param_arity} parameters")
        if not self.param_ok(params):
            raise DomainError(
                f"parameters outside the domain of entry {self.key()}")
        if self.needs_i and not field.has_i:
            raise FieldLacksI(f"entry {self.key()} needs a square root of -1")
        return self.build(field.payloads(params), field)

    def param_orbit(self, params, field: FieldDescriptor) -> list:
        return _dedupe(self.orbit(params, field))

    def key(self):
        return (self.dim, self.type_vector, self.variant)


def _dedupe(tuples):
    out = []
    for t in tuples:
        if t not in out:
            out.append(t)
    return out


def _alg(rows_fn, params, field):
    """rows_fn receives the field's ops and the payload params and returns
    rows of ints and payloads; the ints are lifted into the field (over
    GF(p) lifting a payload leaves it as it is)."""
    of_int = field.ops.of_int
    return [[of_int(x) if isinstance(x, int) else x for x in row]
            for row in rows_fn(field.ops, params)]


def _trivial_orbit(params, field):
    return [tuple(params)]


def _sign_orbit(params, field):
    return [tuple(params), tuple(-p for p in params)]


def _nonzero(x: FieldElement) -> bool:
    return not x.is_zero()


def _any_params(params) -> bool:
    return True


# ---------------------------------------------------------------------------
# template row builders

def _tower(m, *lists):
    """The tower on u_1..u_m with b = 1, one chain vector per list (Ub:
    none, Ubg: g, Ubfg: f and g, the n-chain: n - 2 ``_zero``); a list
    maps the ops and the payload params to m eigenvalues, ints or payloads."""
    def build(params, field):
        eigs = _alg(lambda o, p: [lst(o, p) for lst in lists], params, field)
        return _tower_rows(field.ops, [field.ops.one] * m, eigs)
    return build


def _ubu(*u):
    """The Ubu member with b = 1 and coordinates u: ints, or "i"."""
    def build(params, field):
        ops = field.ops
        return _ubu_rows(ops, [ops.one] * len(u),
                         [ops.i if x == "i" else ops.of_int(x) for x in u])
    return build


def _zero(ops, params):
    return (0,)



def _rows_23(ops, params):
    # (x, y, z, u, v): x^2 = u, y^2 = u + v, z^2 = v
    return [[0, 0, 0, 1, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1],
            [0] * 5, [0] * 5]


def _rows_221(ops, params):
    # (x, a, b, u, v): x^2 = a + b, a^2 = u, b^2 = v
    return [[0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
            [0] * 5, [0] * 5]


def _rows_212(ops, params):
    # (x, y, a, u, v): x^2 = a, y^2 = a + v, a^2 = u
    return [[0, 0, 1, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0],
            [0] * 5, [0] * 5]


def _rows_122_v1(ops, params):
    # (x, y, u, v, s): x^2 = u, y^2 = alpha u + v, u^2 = v^2 = s
    (alpha,) = params
    return [[0, 0, 1, 0, 0], [0, 0, alpha, 1, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_122_v2(ops, params):
    return [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_122_v3(ops, params):
    return [[0, 0, 1, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_122_v4(ops, params):
    i = ops.i
    return [[0, 0, 1, i, 0], [0, 0, 1, i, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_122_v5(ops, params):
    i = ops.i
    return [[0, 0, 1, i, 0], [0, 0, 1, i, 1], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_122_v6(ops, params):
    i = ops.i
    return [[0, 0, 1, i, 0], [0, 0, 1, ops.neg(i), 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v1(ops, params):
    # (x, y, u, v, s): x^2 = y, y^2 = u, u^2 = v^2 = s
    return [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v2(ops, params):
    return [[0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v3(ops, params):
    (beta,) = params
    return [[0, 1, 1, beta, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v4(ops, params):
    i = ops.i
    return [[0, 1, 0, 0, 0], [0, 0, 1, i, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v5(ops, params):
    i = ops.i
    return [[0, 1, 1, 0, 0], [0, 0, 1, i, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v6(ops, params):
    i = ops.i
    return [[0, 1, 1, i, 0], [0, 0, 1, i, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1211_v7(ops, params):
    i = ops.i
    return [[0, 1, 1, ops.neg(i), 0], [0, 0, 1, i, 0], [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v1(ops, params):
    # (x, y, z, w, s): x^2 = y, y^2 = w, z^2 = w, w^2 = s
    return [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v2(ops, params):
    return [[0, 1, 0, 1, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v3(ops, params):
    i = ops.i
    return [[0, 1, i, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v4(ops, params):
    i = ops.i
    return [[0, 1, i, 1, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v5(ops, params):
    # x^2 = y + alpha w, y^2 = w, z^2 = w + s, w^2 = s
    (alpha,) = params
    return [[0, 1, 0, alpha, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_1121_v6(ops, params):
    beta, gamma = params
    return [[0, beta, 1, gamma, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_11111_v2(ops, params):
    return [[0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_11111_v3(ops, params):
    (alpha,) = params
    return [[0, 1, 1, alpha, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


def _rows_11111_v4(ops, params):
    alpha, beta = params
    return [[0, 1, alpha, beta, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0] * 5]


# ---------------------------------------------------------------------------
# orbits

def anharmonic_orbit(params, field):
    """{a, 1/a, 1-a, 1-1/a, 1/(1-a), a/(a-1)} for the [1,1,3] family."""
    (a,) = params
    one = field.one()
    vals = [a, a.inverse(), one - a, one - a.inverse(),
            (one - a).inverse(), a / (a - one)]
    return [(v,) for v in vals]


def anharmonic_j(a: FieldElement) -> FieldElement:
    """j(a) = (a^2 - a + 1)^3 / (a^2 (a-1)^2), constant on orbits."""
    one = a.field.one()
    num = (a * a - a + one) ** 3
    den = (a * a) * ((a - one) ** 2)
    return num / den


def _orbit_1112_v4(params, field):
    beta, gamma = params
    binv = beta.inverse()
    return [(beta, gamma), (binv, -(binv ** 3) * gamma)]


def _orbit_1121_v6(params, field):
    beta, gamma = params
    out = [(b, g) for b in (beta, -beta) for g in (gamma, -gamma)]
    if not beta.is_zero() and field.has_i:
        i = field.i()
        binv = beta.inverse()
        for b in (binv, -binv):
            for g in (i * binv * gamma, -(i * binv * gamma)):
                out.append((b, g))
    return out


ENTRIES: list[ClassEntry] = []


def _add(dim, tv, variant, arity, build, orbit=_trivial_orbit,
         param_ok=_any_params, needs_i=False):
    ENTRIES.append(ClassEntry(dim, tuple(tv), variant, arity, build, orbit,
                              param_ok, needs_i))


def _plain(rows_fn):
    return lambda params, field: _alg(rows_fn, params, field)


_add(1, [1], 1, 0, _plain(lambda f, p: [[0]]))
_add(2, [1, 1], 1, 0, _tower(1))
_add(3, [1, 2], 1, 0, _tower(2))
_add(3, [1, 1, 1], 1, 0, _tower(1, _zero))

_add(4, [1, 3], 1, 0, _tower(3))
_add(4, [1, 2, 1], 1, 0, _ubu(1, 0))
_add(4, [1, 2, 1], 2, 0, _ubu(1, "i"), needs_i=True)
_add(4, [1, 1, 2], 1, 0, _tower(2, lambda o, p: (0, 0)))
_add(4, [1, 1, 2], 2, 0, _tower(2, lambda o, p: (0, 1)))
_add(4, [1, 1, 1, 1], 1, 0, _tower(1, _zero, _zero))
_add(4, [1, 1, 1, 1], 2, 0, _tower(1, lambda o, p: (1,), _zero))

_add(5, [2, 3], 1, 0, _plain(_rows_23))
_add(5, [2, 2, 1], 1, 0, _plain(_rows_221))
_add(5, [2, 1, 2], 1, 0, _plain(_rows_212))

_add(5, [1, 4], 1, 0, _tower(4))
_add(5, [1, 3, 1], 1, 0, _ubu(1, 0, 0))
_add(5, [1, 3, 1], 2, 0, _ubu(1, "i", 0), needs_i=True)

_add(5, [1, 1, 3], 1, 0, _tower(3, lambda o, p: (0, 0, 0)))
_add(5, [1, 1, 3], 2, 0, _tower(3, lambda o, p: (0, 0, 1)))
_add(5, [1, 1, 3], 3, 1, _tower(3, lambda o, p: (p[0], 0, 1)),
     orbit=anharmonic_orbit,
     param_ok=lambda p: _nonzero(p[0]) and not (p[0]).is_one())

_add(5, [1, 1, 1, 2], 1, 0,
     _tower(2, lambda o, p: (0, 0), lambda o, p: (0, 0)))
_add(5, [1, 1, 1, 2], 2, 0,
     _tower(2, lambda o, p: (0, 0), lambda o, p: (1, 0)))
_add(5, [1, 1, 1, 2], 3, 1,
     _tower(2, lambda o, p: (1, 0), lambda o, p: (p[0], 0)))
_add(5, [1, 1, 1, 2], 4, 2,
     _tower(2, lambda o, p: (1, p[0]), lambda o, p: (p[1], 0)),
     orbit=_orbit_1112_v4, param_ok=lambda p: _nonzero(p[0]))

_add(5, [1, 2, 2], 1, 1, _plain(_rows_122_v1), orbit=_sign_orbit)
_add(5, [1, 2, 2], 2, 0, _plain(_rows_122_v2))
_add(5, [1, 2, 2], 3, 0, _plain(_rows_122_v3))
_add(5, [1, 2, 2], 4, 0, _plain(_rows_122_v4), needs_i=True)
_add(5, [1, 2, 2], 5, 0, _plain(_rows_122_v5), needs_i=True)
_add(5, [1, 2, 2], 6, 0, _plain(_rows_122_v6), needs_i=True)

_add(5, [1, 2, 1, 1], 1, 0, _plain(_rows_1211_v1))
_add(5, [1, 2, 1, 1], 2, 0, _plain(_rows_1211_v2))
_add(5, [1, 2, 1, 1], 3, 1, _plain(_rows_1211_v3), orbit=_sign_orbit)
_add(5, [1, 2, 1, 1], 4, 0, _plain(_rows_1211_v4), needs_i=True)
_add(5, [1, 2, 1, 1], 5, 0, _plain(_rows_1211_v5), needs_i=True)
_add(5, [1, 2, 1, 1], 6, 0, _plain(_rows_1211_v6), needs_i=True)
_add(5, [1, 2, 1, 1], 7, 0, _plain(_rows_1211_v7), needs_i=True)

_add(5, [1, 1, 2, 1], 1, 0, _plain(_rows_1121_v1))
_add(5, [1, 1, 2, 1], 2, 0, _plain(_rows_1121_v2))
_add(5, [1, 1, 2, 1], 3, 0, _plain(_rows_1121_v3), needs_i=True)
_add(5, [1, 1, 2, 1], 4, 0, _plain(_rows_1121_v4), needs_i=True)
_add(5, [1, 1, 2, 1], 5, 1, _plain(_rows_1121_v5), orbit=_sign_orbit)
_add(5, [1, 1, 2, 1], 6, 2, _plain(_rows_1121_v6), orbit=_orbit_1121_v6,
     needs_i=True)

_add(5, [1, 1, 1, 1, 1], 1, 0, _tower(1, _zero, _zero, _zero))
_add(5, [1, 1, 1, 1, 1], 2, 0, _plain(_rows_11111_v2))
_add(5, [1, 1, 1, 1, 1], 3, 1, _plain(_rows_11111_v3))
_add(5, [1, 1, 1, 1, 1], 4, 2, _plain(_rows_11111_v4), orbit=_sign_orbit)


def canonical_table(dim: int, field: FieldDescriptor) -> list[ClassEntry]:
    """All indecomposable nilpotent classes of the given dimension."""
    if not 1 <= dim <= 5:
        raise UnsupportedDim(f"the table covers dimensions 1..5, not {dim}")
    entries = [e for e in ENTRIES if e.dim == dim]
    if dim >= 4 and not field.has_i:
        raise FieldLacksI(
            "several canonical entries in dimension >= 4 carry weight i; "
            "use a field containing a square root of -1")
    return entries


_BY_KEY = {e.key(): e for e in ENTRIES}


def find_entry(dim, type_vector, variant) -> ClassEntry:
    key = (dim, tuple(type_vector), variant)
    try:
        return _BY_KEY[key]
    except (KeyError, TypeError):   # TypeError: an unhashable key part
        raise DomainError(
            f"no table entry ({dim}, {type_vector}, v{variant})") from None


def orbit_min(entry: ClassEntry, params, field) -> tuple:
    """The orbit representative minimal in lexicographic element order."""
    orb = entry.param_orbit(tuple(params), field)
    return min(orb, key=lambda t: tuple(order_key(x) for x in t))
