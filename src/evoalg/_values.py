"""The base of the package's small value classes.

A value class is a plain ``__slots__`` class that names its fields in
``_fields`` and sets them in a plain ``__init__``.  ``Value`` gives it
what an ``eq=True`` dataclass would: equality by field tuple between
instances of the same class, a ``Name(field=value, ...)`` repr, and
pickling and copying through ``__reduce__``, which calls the class again
with the field values.  Mutable values are unhashable.  ``Frozen`` values
hash by their field tuple and refuse assignment and deletion with
``dataclasses.FrozenInstanceError``.

The package does not import ``dataclasses`` (and with it ``inspect`` and
``ast``) at import time, which keeps ``import evoalg`` and every CLI start
cheap; the exception class is imported only when it is raised.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self._astuple()


class Frozen(Value):
    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        frozen_error("assign to", name)

    def __delattr__(self, name):
        frozen_error("delete", name)


def set_fields(obj: Value, *values):
    """Set obj's fields in order; frozen classes call this in __init__."""
    for name, value in zip(obj._fields, values):
        object.__setattr__(obj, name, value)


def frozen_error(verb: str, name: str):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")
