"""Seeded input generators and the benchmark's four workloads.

Every workload is a closed loop with one client: the runner issues one
operation, waits for it to return, checks it, then issues the next.  A
workload yields *rounds*; a round is a short list of operations plus a
check over their outcomes, generated before its operations are timed.

The generators follow the recipes of the test suite (``random_nilpotent``
and ``sample_params``) but live here, so the benchmark does not depend on
test code.  The library only ever receives the generated algebras.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

import evoalg
from evoalg import cli as evo_cli
from evoalg import families, oracle, tables
from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import EvoalgError
from evoalg.fields import GF, PRIME, QI, QQ
from evoalg.linalg import Matrix

# ``evoalg/__init__.py`` rebinds the name ``classify`` to the function, so
# the module is reached through sys.modules.
classify_mod = sys.modules["evoalg.classify"]

F13 = GF(13)
F3 = GF(3)
LARGE_PRIME = 1000033
CENSUS_FIELDS = (F13, QI(), GF(LARGE_PRIME))


# ---------------------------------------------------------------------------
# operations, outcomes and rounds

@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    iso_by_construction: bool = False


@dataclass
class Round:
    ops: list
    # check(outcomes) -> one failure kind, or None, per operation
    check: Callable[[list], list]


# Failure kinds that are wrong answers rather than missing answers; any
# of them (or an exception that is not an EvoalgError) makes a run
# incorrect.
WRONG_ANSWERS = ("label_mismatch", "raise_mismatch", "unverified_matrix",
                 "none_for_isomorphic", "witness_for_distinct",
                 "cli_mismatch")


def failure_name(out: Outcome) -> str | None:
    return None if out.error is None else type(out.error).__name__


_EVOALG_ERRORS = {obj.__name__ for obj in vars(evoalg.errors).values()
                  if isinstance(obj, type) and issubclass(obj, EvoalgError)}


def is_wrong_answer(kind: str) -> bool:
    """True for a wrong answer or an exception outside the package's own
    documented EvoalgError hierarchy; False for a documented error raised
    where an answer was due."""
    return kind in WRONG_ANSWERS or kind not in _EVOALG_ERRORS


# ---------------------------------------------------------------------------
# generators

def random_nilpotent(dim, rng, p=13, density=0.6) -> EvolutionAlgebra:
    """Strictly upper-triangular structure in a hidden order, scrambled by
    a permutation; draws exactly as the test suite's random_nilpotent."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < density:
                rows[i][j] = rng.randrange(p)
    perm = list(range(dim))
    rng.shuffle(perm)
    prows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prows[perm[i]][perm[j]] = rows[i][j]
    return EvolutionAlgebra.from_ints(prows, GF(p))


def _scalar_limit(field) -> int:
    return field.modulus if field.kind == PRIME else 14


def monomial_relabel(E: EvolutionAlgebra, rng):
    """A random natural change of basis f_pi(i) = c_i e_i.

    Returns (E', m) with E'[pi(i)][pi(j)] = c_i^2 E[i][j] / c_j and m the
    matrix of the isomorphism E -> E' (e_i -> c_i^-1 f_pi(i)), so that
    ``verify_hom(E, E', m)`` holds by construction.
    """
    n, fld = E.dim, E.field
    perm = list(range(n))
    rng.shuffle(perm)
    c = [fld.from_int(rng.randrange(1, _scalar_limit(fld))) for _ in range(n)]
    rows = [[fld.zero()] * n for _ in range(n)]
    m = [[fld.zero()] * n for _ in range(n)]
    for i in range(n):
        m[perm[i]][i] = c[i].inverse()
        for j in range(n):
            rows[perm[i]][perm[j]] = c[i] * c[i] * E.structure[i, j] / c[j]
    return (EvolutionAlgebra(n, Matrix(rows, fld, n), fld),
            Matrix(m, fld, n))


def sample_params(entry, fld, rng) -> tuple:
    """Parameters as the acceptance tests sample them."""
    limit = _scalar_limit(fld)
    while True:
        params = tuple(fld.from_int(rng.randrange(2, limit))
                       for _ in range(entry.param_arity))
        if entry.param_ok(params):
            return params


def census_entries():
    """(entry, field) for every canonical entry of dims 1-5 over each
    census field, in table order."""
    return [(entry, fld) for fld in CENSUS_FIELDS for d in range(1, 6)
            for entry in tables.canonical_table(d, fld)]


# ---------------------------------------------------------------------------
# checks

def _classify_pair_check(outs):
    """Both copies get equal labels, or both raise the same EvoalgError."""
    a, b = outs
    if a.error is None and b.error is None:
        if classify_mod.labels_equal(a.value, b.value):
            return [None, None]
        return ["label_mismatch"] * 2
    if type(a.error) is type(b.error) and isinstance(a.error, EvoalgError):
        return [None, None]
    return [failure_name(o) if o.error is not None
            and not isinstance(o.error, EvoalgError) else "raise_mismatch"
            for o in outs]


def _label_check(entry, params):
    want = classify_mod.CanonicalLabel(entry.dim, entry.type_vector,
                                       entry.variant, params)

    def check(out):
        if out.error is not None:
            return failure_name(out)
        return (None if classify_mod.labels_equal(out.value, want)
                else "label_mismatch")
    return check


def _iso_check(E1, E2, isomorphic: bool):
    """A returned matrix must verify; None is allowed only for pairs known
    to be non-isomorphic, and a witness only for isomorphic ones."""
    def check(out):
        if out.error is not None:
            return failure_name(out)
        if out.value is None:
            return "none_for_isomorphic" if isomorphic else None
        try:
            good = oracle.verify_hom(E1, E2, out.value)
        except EvoalgError:
            good = False
        if not good:
            return "unverified_matrix"
        return "witness_for_distinct" if not isomorphic else None
    return check


def _per_op(checks):
    return lambda outs: [c(o) for c, o in zip(checks, outs)]


# ---------------------------------------------------------------------------
# workloads

class ClassifyStream:
    """Random nilpotent dim-5 algebras over GF(13), each paired with a
    monomial relabelling of itself; one operation is one classify call."""

    name = "classify_stream"
    tail_percentile = 99

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def next_round(self) -> Round:
        E = random_nilpotent(5, self.rng)
        G, _ = monomial_relabel(E, self.rng)
        return Round([Op("classify", lambda: classify_mod.classify(E)),
                      Op("classify", lambda: classify_mod.classify(G))],
                     _classify_pair_check)


class TableCensus:
    """Every canonical entry of dims 1-5 over GF(13), Q(i) and
    GF(1000033), with sampled parameters and a monomial relabelling;
    one round is one full pass, one operation one classify call."""

    name = "table_census"
    tail_percentile = 90

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.entries = census_entries()

    def next_round(self) -> Round:
        ops, checks = [], []
        for entry, fld in self.entries:
            params = sample_params(entry, fld, self.rng)
            E, _ = monomial_relabel(entry.template(params, fld), self.rng)
            ops.append(Op(f"classify:{fld}",
                          lambda E=E: classify_mod.classify(E)))
            checks.append(_label_check(entry, params))
        return Round(ops, _per_op(checks))


def gf3_templates():
    """The dim 1-4 templates that exist over GF(3) (it has no sqrt(-1))."""
    return [(entry, entry.template((), F3))
            for d in range(1, 5) for entry in tables.canonical_table(d, F13)
            if not entry.needs_i]


def random_ubfg_spec(rng):
    n = rng.randrange(1, 3)

    def nz():
        return tuple(F13.from_int(rng.randrange(1, 13)) for _ in range(n))
    return families.FamilySpec(families.UBFG, n, nz(), f_eigs=nz(),
                               g_eigs=nz())


class IsoPairs:
    """Isomorphism queries, interleaving three parts: witness_isomorphism
    on classify-stream pairs in their natural mix, exhaustive_iso on
    every pair of dim 1-4 templates over GF(3), and scaling_isomorphism
    on random Ubfg specs.  One operation is one query."""

    name = "iso_pairs"
    tail_percentile = 75

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stream_rng = random.Random(f"{self.name}:stream:{seed}")
        temps = gf3_templates()
        self.gf3_pairs = itertools.cycle(
            [(temps[i], temps[j]) for i in range(len(temps))
             for j in range(i, len(temps))])

    def next_round(self) -> Round:
        rng = self.rng
        E = random_nilpotent(5, self.stream_rng)
        G, _ = monomial_relabel(E, self.stream_rng)
        (e1, T1), (e2, T2) = next(self.gf3_pairs)
        T2, _ = monomial_relabel(T2, rng)
        spec = random_ubfg_spec(rng)
        alpha = F13.from_int(rng.randrange(1, 13))
        beta = F13.from_int(rng.randrange(13))
        S1 = families.build_Ubfg(spec)
        S2 = families.build_Ubfg(families.scaled_spec(spec, alpha, beta))
        ops = [
            Op("witness_isomorphism",
               lambda: classify_mod.witness_isomorphism(E, G), True),
            Op("exhaustive_iso", lambda: oracle.exhaustive_iso(T1, T2),
               e1 is e2),
            Op("scaling_isomorphism",
               lambda: families.scaling_isomorphism(spec, alpha, beta), True),
        ]
        checks = [_iso_check(E, G, True), _iso_check(T1, T2, e1 is e2),
                  _iso_check(S1, S2, True)]
        return Round(ops, _per_op(checks))


# -- the CLI from a cold start -------------------------------------------

CLI_FILE_COMMANDS = ("type", "series", "classify", "decompose", "dot")
CLI_FIELDS = (QQ(), QI(), F13)
# Enough files that a seed's mix of templates is typical.  ``iso`` runs on
# the first few twin pairs of each field only: over GF 13 about one pair
# in twelve takes the 4-9 s randomized witness fallback, and a pair per
# file would let those calls fill most of a run.
CLI_FILES_PER_FIELD = 8
CLI_ISO_PAIRS_PER_FIELD = 3


def cli_inputs(seed: int, directory: str):
    """Write a seeded set of algebra files (relabelled canonical templates
    of dims 3-5 in Q, Qi and GF 13 syntax, each with a relabelled twin)
    and return the list of CLI argument vectors that exercise them."""
    rng = random.Random(f"cli_cold:{seed}")
    os.makedirs(directory, exist_ok=True)
    entries = [e for d in (3, 4, 5) for e in tables.canonical_table(d, F13)]
    invocations = []
    for fld in CLI_FIELDS:
        usable = [e for e in entries if fld.has_i or not e.needs_i]
        for k in range(CLI_FILES_PER_FIELD):
            entry = rng.choice(usable)
            T = entry.template(sample_params(entry, fld, rng), fld)
            E, _ = monomial_relabel(T, rng)
            E2, _ = monomial_relabel(T, rng)
            paths = []
            for tag, alg in (("a", E), ("b", E2)):
                path = os.path.join(directory, f"{fld.kind}{k}{tag}.alg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(evo_cli.write_algebra_text(alg))
                paths.append(path)
            invocations += [[cmd, paths[0]] for cmd in CLI_FILE_COMMANDS]
            if k < CLI_ISO_PAIRS_PER_FIELD:
                invocations.append(["iso"] + paths)
    for _ in range(2):
        spec = random_ubfg_spec(rng)
        invocations.append(
            ["family", "--kind", "ubfg", "--field", "GF 13",
             "--b", ",".join(str(x) for x in spec.b_diag),
             "--f", ",".join(str(x) for x in spec.f_eigs),
             "--g", ",".join(str(x) for x in spec.g_eigs)])
    return invocations


def library_answer(argv) -> tuple[int, str]:
    """Exit code and stdout of the same subcommand run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = evo_cli.dispatch(list(argv))
    return code, out.getvalue()


class CliCold:
    """One fresh ``python -m evoalg.cli`` process per operation, over a
    fixed seeded set of algebra files; the process runner is supplied by
    the caller (it owns interpreter, environment and tracing)."""

    name = "cli_cold"
    # p90 would keep ten samples beyond it too, but it moved by up to 40%
    # when the shared host slowed for a minute (spread 0.21 across ten
    # seeds, against 0.13 for p75)
    tail_percentile = 75

    def __init__(self, seed: int, directory: str, run_process):
        self.rng = random.Random(f"{self.name}:order:{seed}")
        self.invocations = cli_inputs(seed, directory)
        self.expected = {}
        self.run_process = run_process
        self.order = []

    def next_round(self) -> Round:
        if not self.order:
            self.order = list(self.invocations)
            self.rng.shuffle(self.order)
        argv = tuple(self.order.pop())
        if argv not in self.expected:
            self.expected[argv] = library_answer(argv)
        want = self.expected[argv]

        def check(out):
            if out.error is not None:
                return failure_name(out)
            return None if tuple(out.value) == want else "cli_mismatch"
        return Round([Op(f"cli:{argv[0]}", lambda: self.run_process(argv),
                         argv[0] == "iso")], _per_op([check]))


WORKLOADS = {w.name: w for w in (ClassifyStream, TableCensus, IsoPairs,
                                 CliCold)}
