"""The canonical table of indecomposable nilpotent evolution algebras of
dimension at most 5.

Basis convention for every template: blocks of the upper annihilating
series in descending order (the top block first, the annihilator last).
Parameters follow the graphs as drawn; a "dashed" parameter may be zero,
while solid parameter edges are nonzero.  Each entry carries the finite
isomorphism orbit of its parameter tuple, valid over algebraically
closed fields.

Every template is written as data (see ``_add``): a tail, which is a
member of the paper's families with b = 1 built by their row builders
(``_tower``: Ub, Ubg, Ubfg and the chains; ``_ubu``: Ubu) or fixed int
rows, under at most three top vectors whose squares are coordinates on
the tail's basis.  An entry's parameter count and its need for a square
root of -1 are read off that data.
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


def _trivial_orbit(params, field):
    return [tuple(params)]


def _sign_orbit(params, field):
    return [tuple(params), tuple(-p for p in params)]


def _nonzero(x: FieldElement) -> bool:
    return not x.is_zero()


def _any_params(params) -> bool:
    return True


# ---------------------------------------------------------------------------
# template data: an entry is an int, "i" or "-i", or "a"/"b" for the
# first and second parameter

_PARAMS = ("a", "b")
_I = ("i", "-i")


def _payload(x, ops, params):
    """The payload of the name x ("i", "-i", "a" or "b") over ops, params
    the payload params."""
    if x == "i":
        return ops.i
    if x == "-i":
        return ops.neg(ops.i)
    return params[_PARAMS.index(x)]


def _tower(m, *eigs):
    """The tower on u_1..u_m with b = 1 under one chain vector per
    eigenvalue list (Ub: none, Ubg: g, Ubfg: f and g; the n-chain: n - 2
    lists (0,)): the lists and the rows built from their payloads."""
    return eigs, lambda ops, lists: _tower_rows(ops, [ops.one] * m, lists)


def _ubu(*u):
    """The Ubu member with b = 1 and coordinates u."""
    return (u,), lambda ops, lists: _ubu_rows(ops, [ops.one] * len(u),
                                              lists[0])


def _fixed(ops, rows):
    return rows


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


def _add(dim, tv, variant, tail, *tops, orbit=_trivial_orbit,
         param_ok=_any_params):
    """Add the template tail (``_tower``, ``_ubu`` or int rows) under
    tops; its arity and need for i are read off the data."""
    lists, tail_rows = (tail, _fixed) if isinstance(tail, list) else tail
    data = [x for lst in (*lists, *tops) for x in lst]
    arity = max((_PARAMS.index(x) + 1 for x in data if x in _PARAMS),
                default=0)

    def build(params, field):
        ops = field.ops

        def payloads(lst):
            return [ops.of_int(x) if type(x) is int
                    else _payload(x, ops, params) for x in lst]
        rows = tail_rows(ops, [payloads(lst) for lst in lists])
        zeros = [ops.zero] * len(tops)
        for row in rows:
            row[:0] = zeros
        return [zeros + payloads(top) for top in tops] + rows

    ENTRIES.append(ClassEntry(dim, tuple(tv), variant, arity, build, orbit,
                              param_ok, any(x in _I for x in data)))


_add(1, [1], 1, [[0]])
_add(2, [1, 1], 1, _tower(1))
_add(3, [1, 2], 1, _tower(2))
_add(3, [1, 1, 1], 1, _tower(1, (0,)))

_add(4, [1, 3], 1, _tower(3))
_add(4, [1, 2, 1], 1, _ubu(1, 0))
_add(4, [1, 2, 1], 2, _ubu(1, "i"))
_add(4, [1, 1, 2], 1, _tower(2, (0, 0)))
_add(4, [1, 1, 2], 2, _tower(2, (0, 1)))
_add(4, [1, 1, 1, 1], 1, _tower(1, (0,), (0,)))
_add(4, [1, 1, 1, 1], 2, _tower(1, (1,), (0,)))

# (x, y, z | u, v): x^2 = u, y^2 = u + v, z^2 = v
_add(5, [2, 3], 1, [[0, 0], [0, 0]], (1, 0), (1, 1), (0, 1))
# (x | a, b, u, v): x^2 = a + b, a^2 = u, b^2 = v
_add(5, [2, 2, 1], 1, [[0, 0, 1, 0], [0, 0, 0, 1], [0] * 4, [0] * 4],
     (1, 1, 0, 0))
# (x, y | a, u, v): x^2 = a, y^2 = a + v, a^2 = u
_add(5, [2, 1, 2], 1, [[0, 1, 0], [0] * 3, [0] * 3], (1, 0, 0), (1, 0, 1))

_add(5, [1, 4], 1, _tower(4))
_add(5, [1, 3, 1], 1, _ubu(1, 0, 0))
_add(5, [1, 3, 1], 2, _ubu(1, "i", 0))

_add(5, [1, 1, 3], 1, _tower(3, (0, 0, 0)))
_add(5, [1, 1, 3], 2, _tower(3, (0, 0, 1)))
_add(5, [1, 1, 3], 3, _tower(3, ("a", 0, 1)), orbit=anharmonic_orbit,
     param_ok=lambda p: _nonzero(p[0]) and not (p[0]).is_one())

_add(5, [1, 1, 1, 2], 1, _tower(2, (0, 0), (0, 0)))
_add(5, [1, 1, 1, 2], 2, _tower(2, (0, 0), (1, 0)))
_add(5, [1, 1, 1, 2], 3, _tower(2, (1, 0), ("a", 0)))
_add(5, [1, 1, 1, 2], 4, _tower(2, (1, "a"), ("b", 0)),
     orbit=_orbit_1112_v4, param_ok=lambda p: _nonzero(p[0]))

# (x, y | u_1, u_2, s) over Ub: x^2 = u_1, y^2 = alpha u_1 + u_2 (v1)
_add(5, [1, 2, 2], 1, _tower(2), (1, 0, 0), ("a", 1, 0), orbit=_sign_orbit)
_add(5, [1, 2, 2], 2, _tower(2), (1, 0, 0), (1, 0, 0))
_add(5, [1, 2, 2], 3, _tower(2), (1, 0, 0), (1, 0, 1))
_add(5, [1, 2, 2], 4, _tower(2), (1, "i", 0), (1, "i", 0))
_add(5, [1, 2, 2], 5, _tower(2), (1, "i", 0), (1, "i", 1))
_add(5, [1, 2, 2], 6, _tower(2), (1, "i", 0), (1, "-i", 0))

# (x | y, u_1, u_2, s) over Ubu with y = a: x^2 = y, y^2 = u_1 (v1)
_add(5, [1, 2, 1, 1], 1, _ubu(1, 0), (1, 0, 0, 0))
_add(5, [1, 2, 1, 1], 2, _ubu(1, 0), (1, 0, 1, 0))
_add(5, [1, 2, 1, 1], 3, _ubu(1, 0), (1, 1, "a", 0), orbit=_sign_orbit)
_add(5, [1, 2, 1, 1], 4, _ubu(1, "i"), (1, 0, 0, 0))
_add(5, [1, 2, 1, 1], 5, _ubu(1, "i"), (1, 1, 0, 0))
_add(5, [1, 2, 1, 1], 6, _ubu(1, "i"), (1, 1, "i", 0))
_add(5, [1, 2, 1, 1], 7, _ubu(1, "i"), (1, 1, "-i", 0))

# (x | y, z, w, s) over Ubg: x^2 = y, y^2 = z^2 = w, w^2 = s (v1)
_add(5, [1, 1, 2, 1], 1, _tower(2, (0, 0)), (1, 0, 0, 0))
_add(5, [1, 1, 2, 1], 2, _tower(2, (0, 0)), (1, 0, 1, 0))
_add(5, [1, 1, 2, 1], 3, _tower(2, (0, 0)), (1, "i", 0, 0))
_add(5, [1, 1, 2, 1], 4, _tower(2, (0, 0)), (1, "i", 1, 0))
_add(5, [1, 1, 2, 1], 5, _tower(2, (0, 1)), (1, 0, "a", 0),
     orbit=_sign_orbit)
_add(5, [1, 1, 2, 1], 6, _tower(2, (0, 1)), ("a", 1, "b", 0),
     orbit=_orbit_1121_v6)

# (x | y, z, w, s) over the 4-chain or Ubfg: x^2 = y + w, y^2 = z (v2)
_add(5, [1, 1, 1, 1, 1], 1, _tower(1, (0,), (0,), (0,)))
_add(5, [1, 1, 1, 1, 1], 2, _tower(1, (0,), (0,)), (1, 0, 1, 0))
_add(5, [1, 1, 1, 1, 1], 3, _tower(1, (0,), (0,)), (1, 1, "a", 0))
_add(5, [1, 1, 1, 1, 1], 4, _tower(1, (1,), (0,)), (1, "a", "b", 0),
     orbit=_sign_orbit)


def canonical_table(dim: int, field: FieldDescriptor) -> list[ClassEntry]:
    """All indecomposable nilpotent classes of the given dimension."""
    if not isinstance(dim, int):
        raise DomainError(f"expected an integer dimension, got {dim!r}")
    if not 1 <= dim <= 5:
        raise UnsupportedDim(f"the table covers dimensions 1..5, not {dim}")
    entries = [e for e in ENTRIES if e.dim == dim]
    if not field.has_i and any(e.needs_i for e in entries):
        raise FieldLacksI(
            f"several canonical entries in dimension {dim} carry weight i; "
            "use a field containing a square root of -1")
    return entries


_BY_KEY = {e.key(): e for e in ENTRIES}


def find_entry(dim, type_vector, variant) -> ClassEntry:
    try:
        return _BY_KEY[dim, tuple(type_vector), variant]
    except (KeyError, TypeError):   # TypeError: a key part not hashable,
        # or a type vector not iterable
        raise DomainError(
            f"no table entry ({dim}, {type_vector}, v{variant})") from None


def orbit_min(entry: ClassEntry, params, field) -> tuple:
    """The orbit representative minimal in lexicographic element order."""
    orb = entry.param_orbit(tuple(params), field)
    return min(orb, key=lambda t: tuple(order_key(x) for x in t))
