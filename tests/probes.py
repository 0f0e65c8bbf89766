"""Call counts for the white-box tests.

The tests that pin a shortcut classify takes (the one-dimensional
annihilator lemma, the chain lemma, L5's one [2,2,1] candidate, at most
two eliminations per annihilator split, ...) count the calls of the
stages and kernels it runs.  A ``Probe`` keeps those counts in one
``Counter`` and sets every wrapper through the test's pytest
``monkeypatch``, which undoes it after the test:

- ``count(owner, name)`` counts the calls of ``owner.name``, with an
  optional hook that sees each call's arguments first;
- ``kernel(name)`` counts the calls of an op-table kernel (``rref``,
  ``realizes``) over every field kind;
- ``window(owner, name)`` counts a stage's calls and records, for each,
  what the counts gained inside it;
- ``candidates(handlers)`` counts the candidates that the builders of
  the normalizers in ``classify._HANDLERS`` yield.

A stage or kernel that is renamed is re-pointed here, not in each test.
"""

import collections

from evoalg.fields import GF, QI, QQ

# one call of a windowed function: its arguments, its result (None when
# it raised) and what the probe's counts gained inside it
Call = collections.namedtuple("Call", "args out delta")


class Probe:
    """Call counts in ``counts``, keyed by the wrapped attribute's name."""

    def __init__(self, monkeypatch):
        self.counts = collections.Counter()
        self._patch = monkeypatch

    def _set(self, owner, name, wrapper):
        # on an instance (a module, an op table) the wrapper goes into its
        # own __dict__, and the undo restores that dict: monkeypatch's
        # setattr would leave a bound copy of a class's method there,
        # which shadows a later class patch on a shared op table, Q's
        if isinstance(owner, type):
            self._patch.setattr(owner, name, wrapper)
        else:
            self._patch.setitem(vars(owner), name, wrapper)

    def count(self, owner, name, hook=None):
        """Count the calls of ``owner.name``; ``hook``, when given, is
        called with each call's arguments before the call runs."""
        fn, counts = getattr(owner, name), self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if hook is not None:
                hook(*args, **kwargs)
            return fn(*args, **kwargs)
        self._set(owner, name, wrapper)

    def kernel(self, name, hook=None):
        """Count the calls of the op-table kernel ``name`` on every field
        kind; the hook's first argument is the op table.  Each class that
        defines the kernel in its own ``__dict__``, among those of the op
        tables of GF(p), Q and Q(i), is patched once: every op table in
        use is covered, and each call is counted once."""
        tables = []
        for field in (GF(3), QQ(), QI()):
            for cls in type(field.ops).__mro__:
                if name in vars(cls) and cls not in tables:
                    tables.append(cls)
                    self.count(cls, name, hook)

    def _windowed(self, fn, name, calls):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            before, out = counts.copy(), None
            try:
                out = fn(*args)
                return out
            finally:
                calls.append(Call(args, out, counts - before))
        return wrapper

    def window(self, owner, name):
        """Count the calls of ``owner.name``; returns the list that gets
        one ``Call`` per call, in the order the calls end."""
        calls = []
        self._set(owner, name,
                  self._windowed(getattr(owner, name), name, calls))
        return calls

    def candidates(self, handlers):
        """Wrap every normalizer of ``handlers`` (``classify._HANDLERS``):
        its calls count under "handler", and each candidate its builder
        yields under "candidates".  Returns the list of the normalizers'
        ``Call``s and the list of what the counts gained in each step of
        a builder (the last, which ends the builder, included)."""
        handled, steps, counts = [], [], self.counts

        def counted(builder):
            def build(Ead, params):
                it = builder(Ead, params)
                while True:
                    before = counts.copy()
                    try:
                        cols = next(it)
                    except StopIteration:
                        return
                    finally:
                        steps.append(counts - before)
                    counts["candidates"] += 1
                    yield cols
            return build

        for tv, handler in list(handlers.items()):
            def normalizer(Ead, tv, handler=self._windowed(handler, "handler",
                                                           handled)):
                variant, params, boundary, builder = handler(Ead, tv)
                return variant, params, boundary, counted(builder)
            self._patch.setitem(handlers, tv, normalizer)
        return handled, steps
