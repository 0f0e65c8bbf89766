"""Command-line surface: algebra files, reports, and DOT graphs.

Algebra file grammar (one algebra per file, ``#`` starts a comment):

    field Q | Qi | GF <p>
    dim <n>
    row <e1> <e2> ... <en>      (n times, entries in the element grammar)

The subcommands that read one algebra file (``type``, ``series``,
``classify``, ``dot``, ``decompose``) are the table ``FILE_REPORTS`` of
name -> (help, report): one runner parses the file and writes
``report(E)``.  ``iso`` and ``family`` have handlers of their own.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import AlgebraSyntaxError, DomainError, EvoalgError
from .fields import _INT, GF, QI, QQ, FieldDescriptor, _int, parse_element
from .linalg import Matrix
from .algebra import (EvolutionAlgebra, WeightedGraph, decomposability_check,
                      graph_of, upper_series)
from .classify import _compose, classify, labels_equal, normal_form
from .families import (UB, UBFG, UBG, UBU, FamilySpec, build)
from .oracle import SearchBudget, exhaustive_iso, randomized_iso


# ---------------------------------------------------------------------------
# algebra files

def _parse_field_decl(tokens, lineno) -> FieldDescriptor:
    if tokens[:1] == ["field"]:
        field = _named_field(tokens[1:], lineno, len("field ") + 1)
        if field is not None:
            return field
    raise AlgebraSyntaxError("expected 'field Q|Qi|GF <p>'", lineno, 1)


def _named_field(words, lineno=None, column=1):
    """The field that words name, Q, Qi or GF <p>, or None; a bad prime
    is a syntax error at lineno, for words starting at column."""
    if words == ["Q"]:
        return QQ()
    if words == ["Qi"]:
        return QI()
    if len(words) == 2 and words[0] == "GF":
        return GF(_int_token(words[1], "prime", lineno, column + len("GF ")))
    return None


def _int_token(token, what, lineno, column) -> int:
    """The int that token spells in the grammar's ASCII digits."""
    if not re.fullmatch(_INT, token):
        raise AlgebraSyntaxError(f"bad {what} {token!r}", lineno, column)
    try:
        return _int(token)
    except AlgebraSyntaxError as exc:
        raise AlgebraSyntaxError(f"{what}: {exc}", lineno, column) from None


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_algebra_text(text: str) -> EvolutionAlgebra:
    lines = list(_logical_lines(text))
    if not lines:
        raise AlgebraSyntaxError("empty algebra file", 1, 1)
    it = iter(lines)
    lineno, tokens = next(it)
    field = _parse_field_decl(tokens, lineno)
    try:
        lineno, tokens = next(it)
    except StopIteration:
        raise AlgebraSyntaxError("missing 'dim <n>' line", lineno + 1, 1)
    if len(tokens) != 2 or tokens[0] != "dim":
        raise AlgebraSyntaxError("expected 'dim <n>'", lineno, 1)
    dim = _int_token(tokens[1], "dimension", lineno, 5)
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    rows = []
    for _ in range(dim):
        try:
            lineno, tokens = next(it)
        except StopIteration:
            raise AlgebraSyntaxError(
                f"expected {dim} 'row' lines, found {len(rows)}",
                lineno + 1, 1)
        if tokens[0] != "row" or len(tokens) != dim + 1:
            raise AlgebraSyntaxError(
                f"expected 'row' with {dim} entries", lineno, 1)
        row = []
        col = len("row ") + 1
        for entry in tokens[1:]:
            try:
                row.append(parse_element(entry, field))
            except AlgebraSyntaxError as exc:
                raise AlgebraSyntaxError(str(exc), lineno, col)
            col += len(entry) + 1
        rows.append(row)
    extra = next(it, None)
    if extra is not None:
        raise AlgebraSyntaxError("trailing content after last row",
                                 extra[0], 1)
    return EvolutionAlgebra(dim, Matrix(rows, field, dim), field)


def parse_algebra_file(path) -> EvolutionAlgebra:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AlgebraSyntaxError("the file is not UTF-8 text",
                                 data.count(b"\n", 0, exc.start) + 1)
    return parse_algebra_text(text)


def write_algebra_text(E: EvolutionAlgebra) -> str:
    modulus = "" if E.field.modulus is None else f" {E.field.modulus}"
    lines = [f"field {E.field.kind}{modulus}", f"dim {E.dim}"]
    for i in range(E.dim):
        lines.append("row " + " ".join(
            str(E.structure[i, j]) for j in range(E.dim)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT output

def emit_dot(g: WeightedGraph) -> str:
    """Byte-deterministic DOT rendering: nodes by index, edges sorted by
    (i, j), weight label omitted when the weight is 1."""
    out = ["digraph evolution {"]
    for v in range(1, g.vertex_count + 1):
        out.append(f"  {v};")
    for i, j, w in sorted(g.edges, key=lambda e: (e[0], e[1])):
        if w.is_one():
            out.append(f"  {i + 1} -> {j + 1};")
        else:
            out.append(f'  {i + 1} -> {j + 1} [label="{w}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _vectors_line(name: str, sub) -> str:
    """A subspace as ``name: dim d  (v1) (v2) ...``."""
    return f"{name}: dim {sub.dim}  " + " ".join(
        "(" + " ".join(str(x) for x in v) + ")" for v in sub.vectors())


def _report_type(E) -> str:
    series = upper_series(E)
    if not series.nilpotent:
        return "NOT NILPOTENT\n"
    return "[" + ",".join(str(k) for k in series.type_vector) + "]\n"


def _report_series(E) -> str:
    series = upper_series(E)
    return _lines(
        [_vectors_line(f"ann^{i}", sub)
         for i, sub in enumerate(series.chain, start=1)]
        + [f"U_{i}: indices " + " ".join(str(k + 1) for k in blk)
           for i, blk in enumerate(series.blocks, start=1)]
        + ([] if series.nilpotent else ["NOT NILPOTENT"]))


def _report_decompose(E) -> str:
    verdict = decomposability_check(E)
    return _lines(
        [verdict.status, verdict.reason]
        + [_vectors_line(name, sub) for name, sub in
           zip(("ideal I", "ideal J"), verdict.witness or ())])


# name -> (help, report); report(E) is the text printed for the algebra E
FILE_REPORTS = {
    "type": ("print the type vector", _report_type),
    "series": ("print the annihilating series", _report_series),
    "classify": ("print the canonical label",
                 lambda E: classify(E).serialize() + "\n"),
    "dot": ("emit the attached graph as DOT",
            lambda E: emit_dot(graph_of(E))),
    "decompose": ("decomposability verdict", _report_decompose),
}


def _run_report(args) -> int:
    sys.stdout.write(args.report(parse_algebra_file(args.file)))
    return 0


def _cmd_iso(args) -> int:
    E1 = parse_algebra_file(args.file1)
    E2 = parse_algebra_file(args.file2)
    if args.oracle is not None:
        if args.oracle == "exhaustive":
            m = exhaustive_iso(E1, E2)
        else:
            m = randomized_iso(E1, E2, SearchBudget(
                100000 if args.trials is None else args.trials,
                0 if args.seed is None else args.seed))
        if m is None:
            print("no witness found")
        else:
            print("witness:")
            print(m)
        return 0
    E1.field.require(E2.field)
    c1, c2 = normal_form(E1), normal_form(E2)
    if not labels_equal(c1.label, c2.label):
        print("labels differ")
        print(f"  {c1.label.serialize()}")
        print(f"  {c2.label.serialize()}")
        return 0
    print(f"labels equal: {c1.label.serialize()}")
    m = _compose(E1, E2, c1, c2)
    print("witness:")
    print(m)
    return 0


def _field_option(text) -> FieldDescriptor:
    """The field that ``family --field`` names, Q, Qi or 'GF <p>'; its
    errors name the option, as the text has no place in a file."""
    try:
        field = _named_field(text.split())
    except EvoalgError as exc:
        raise type(exc)(f"--field: {exc}") from None
    if field is None:
        raise AlgebraSyntaxError(
            f"--field: expected Q, Qi or 'GF <p>', got {text!r}")
    return field


def _cmd_family(args) -> int:
    field = _field_option(args.field)

    def elems(text):
        return tuple(parse_element(t, field) for t in text.split(","))

    kind = {"ub": UB, "ubg": UBG, "ubfg": UBFG, "ubu": UBU}[args.kind]
    b = elems(args.b)
    spec = FamilySpec(
        kind, len(b), b,
        f_eigs=elems(args.f) if args.f else None,
        g_eigs=elems(args.g) if args.g else None,
        u_coords=elems(args.u) if args.u else None)
    sys.stdout.write(write_algebra_text(build(spec)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="evoalg",
        description="Exact computations with nilpotent evolution algebras")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, report) in FILE_REPORTS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("file")
        sp.set_defaults(run=_run_report, report=report)

    sp = sub.add_parser("iso", help="compare labels / search a witness")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--oracle", choices=("exhaustive", "randomized"))
    sp.add_argument("--trials", type=int,
                    help="randomized search only (default 100000)")
    sp.add_argument("--seed", type=int,
                    help="randomized search only (default 0)")
    sp.set_defaults(run=_cmd_iso, parser=sp)

    sp = sub.add_parser("family", help="emit a family algebra file")
    sp.add_argument("--kind", required=True,
                    choices=("ub", "ubg", "ubfg", "ubu"))
    sp.add_argument("--field", required=True,
                    help="Q, Qi, or 'GF <p>'")
    sp.add_argument("--b", required=True, help="comma-separated diagonal")
    sp.add_argument("--f", help="comma-separated f eigenvalues")
    sp.add_argument("--g", help="comma-separated g eigenvalues")
    sp.add_argument("--u", help="comma-separated u coordinates")
    sp.set_defaults(run=_cmd_family)
    return p


def dispatch(argv) -> int:
    """Run one subcommand; exit code 0 on success, 1 on domain errors,
    2 on usage errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.run is _cmd_iso and args.oracle != "randomized" and (
                args.trials is not None or args.seed is not None):
            args.parser.error("--trials and --seed apply only to "
                              "--oracle randomized")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (EvoalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
