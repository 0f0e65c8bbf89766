"""A fixed pure-Python kernel that measures how fast the machine is now.

The benchmark runs ``calibrate()`` at even points of its timed loop and
scales every reported time by ``NOMINAL_S`` ÷ the mean kernel time of
the run.  On a shared host the speed of one process swings by a third or
more over tens of seconds; the kernel slows with it, so the scaled times
follow the program rather than the host.  The kernel does the kind of
work the package does -- small objects with arithmetic dunder methods,
Gaussian elimination mod 13, tuple hashing -- but uses no evoalg code, so
a change to the package cannot move it.
"""

from __future__ import annotations

import random
import time

# the scaled times are those of a machine on which one kernel call
# takes this long
NOMINAL_S = 0.010
_P = 13


class _Mod:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % _P

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __sub__(self, other):
        return _Mod(self.v - other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)

    def inverse(self):
        return _Mod(pow(self.v, _P - 2, _P))


def _rref(rows):
    m = [list(r) for r in rows]
    n, r = len(m), 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, n) if m[i][c].v), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c].v:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(x.v for x in row) for row in m)


_rng = random.Random(0)
_MATRICES = [[[_Mod(_rng.randrange(_P)) for _ in range(6)] for _ in range(6)]
             for _ in range(40)]


def calibrate() -> float:
    """Seconds one pass of the kernel takes (about 9 ms on one vCPU of a
    2-vCPU Intel Xeon cloud VM under CPython 3.11)."""
    t0 = time.perf_counter()
    seen = {}
    for m in _MATRICES:
        key = _rref(m)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0
