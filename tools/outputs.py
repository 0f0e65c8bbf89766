#!/usr/bin/env python3
"""Record what evoalg answers on a fixed corpus, and compare two records.

    python3 tools/outputs.py --tree PATH --out FILE
    python3 tools/outputs.py --diff A B
    python3 tools/outputs.py --check FILE

``--tree`` imports evoalg from ``PATH/src`` and writes one JSON line per
input to FILE.  The inputs are drawn from fixed seeds over GF(3), GF(5),
GF(13), GF(1000033), Q and Q(i), in seven kinds:

- ``random``: random nilpotent algebras of dims 1-5;
- ``relabel``: a monomial relabelling of each random algebra;
- ``block``: a random block-patterned natural change of basis of a
  random algebra, which mixes each annihilating-series block with itself
  and adds annihilator components;
- ``template``: every table template, with three samples of its
  parameters if it has any, and a monomial relabelling of each;
- ``arbitrary``: algebras of dims 1-6 that need not be nilpotent: random
  structures, structures with a large annihilator, and structures whose
  squares lie in the span of the zero squares, so that the split
  witnesses of ``decomposability_check`` are compared beyond nilpotent
  inputs too;
- ``family``: the paper's four families, built by ``families.build``
  from random data: Ub of dims 2-5 (types [1,1] to [1,4]), Ubu of dims
  4 and 5 (types [1,2,1] and [1,3,1]) with u isotropic (b(u,u) = 0) in
  about half of them, and Ubg and Ubfg of dims 4 and 5 (types [1,1,2],
  [1,1,3], [1,1,1,1] and [1,1,1,2]) with f and g entries often zero or
  repeated.  Each comes with a monomial relabelling, and for Ubfg the
  same two of a ``scaled_spec`` image, so that the slope builder's
  variants get witnesses beyond their templates;
- ``cli``: the first 20 random algebras of each field, written by
  ``write_algebra_text`` to a file in a temporary directory, and each of
  the file subcommands ``type``, ``series``, ``classify``, ``dot`` and
  ``decompose`` run on that file through ``evoalg.dispatch``.

Each record has an id that names its input: ``KIND:FIELD:K`` for the
K-th input of its kind over FIELD (``family:FIELD:K:J`` for the J-th
algebra drawn from the K-th family spec), and
``template:FIELD:dD:[TYPE]:vV:K`` for the K-th sample of an entry's
template, with ``:relabel`` appended for its relabelling, and
``cli:FIELD:K:CMD`` for subcommand CMD on the K-th random algebra.  The
random, block, arbitrary and family inputs of a field are drawn from one
generator, in that order; each table entry draws its parameters and
relabellings from its own, seeded by the field and the entry's key, so
an entry that builds on one side and raises on the other shifts no other
input.

Each record holds the input's structure rows, ``repr`` of the label (so
``boundary``, ``no_witness`` and the parameters count, which
``serialize()`` drops in part), the rows of the witness basis, and the
``decomposability_check`` verdict with the rows of its witness ideals;
an ``EvoalgError`` is recorded by its type name.  A ``relabel`` record
whose label and its random algebra's both carry a witness also holds
``labels_equal`` of the two labels and the rows that
``witness_isomorphism`` returns for the pair (or the type name of the
``EvoalgError`` it raises); both witnesses exist, so only the path that
composes them runs, never the oracle search.  A ``cli`` record holds the
input's rows, the subcommand's exit code and its stdout.  The inputs are
built through the tree's public API, so a change to that API shows up as
differing inputs.

``--diff`` compares two such files record by record, matching records
by id.  It prints nothing and exits 0 when they agree; otherwise it
prints, for each kind, the number of differing records and the first
few of them, then every id present in one file only, and exits 1.

``--check`` reads one such file and counts the relabel pairs, a
``random`` record and the ``relabel`` record of the same field and
number, or a ``template`` record and its ``:relabel``, whose label
reprs agree except for ``no_witness``.  A relabelling is an isomorphism
over the field, so each such pair is a witness that a builder missed.
It prints the count, then the count per type and variant of the first
(summand) label whose flag differs.  Its last line is the count of
records whose label is ``Decomposed`` but whose
``decomposability_check`` verdict is not ``Decomposable``: the two
share one split stage, so it is 0 unless they disagree.  It exits 0.

Both stop quietly, with the same exit status, when the reader closes
stdout early (``--diff A B | head -2``).

Compare a change with its parent, from the root of the change:

    git archive PARENT | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python3 tools/outputs.py --tree /tmp/parent --out /tmp/parent.jsonl
    python3 tools/outputs.py --tree . --out /tmp/change.jsonl
    python3 tools/outputs.py --diff /tmp/parent.jsonl /tmp/change.jsonl

The tool reads the tree through evoalg's public names only, and the
witness through ``normal_form``.  A parent older than ``normal_form``
lacks it, so record such a parent with the parent's own copy of the
tool: ``python3 /tmp/parent/tools/outputs.py --tree /tmp/parent ...``.

Uses the standard library only; one run takes well under a minute.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile

FIELDS = (("GF", 3), ("GF", 5), ("GF", 13), ("GF", 1000033), ("Q", None),
          ("Qi", None))
RANDOM_PER_FIELD = 2000
BLOCK_PER_FIELD = 300
ARBITRARY_PER_FIELD = 600
TEMPLATE_SAMPLES = 3
FAMILY_PER_FIELD = 500
CLI_PER_FIELD = 20
CLI_COMMANDS = ("type", "series", "classify", "dot", "decompose")
FAMILY_SHAPES = (("Ub", 1), ("Ub", 2), ("Ub", 3), ("Ub", 4), ("Ubu", 2),
                 ("Ubu", 3), ("Ubg", 2), ("Ubg", 3), ("Ubfg", 1),
                 ("Ubfg", 2))
BLOCK_ATTEMPTS = 60
SHOWN_PER_KIND = 3


def _load(tree: str):
    """The evoalg package of the checkout at tree."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import evoalg
    return evoalg


class Corpus:
    """The inputs of one field, built through the public API."""

    def __init__(self, evoalg, field, rng):
        self.ev, self.field, self.rng = evoalg, field, rng
        self.limit = field.modulus if field.modulus else 14
        self.i = evoalg.sqrt_if_square(field.from_int(-1)) \
            if field.kind == "Qi" else None

    def scalar(self, low=0):
        x = self.field.from_int(self.rng.randrange(low, self.limit))
        if self.i is not None and self.rng.random() < 0.3:
            x = x + self.field.from_int(self.rng.randrange(1, 4)) * self.i
        return x

    def algebra(self, rows):
        n = len(rows)
        return self.ev.EvolutionAlgebra(
            n, self.ev.Matrix(rows, self.field, n), self.field)

    def random_nilpotent(self, dim):
        """Strictly upper-triangular structure in a hidden order."""
        rng, zero = self.rng, self.field.zero()
        density = rng.choice([0.3, 0.6, 0.9])
        rows = [[self.scalar() if j > i and rng.random() < density
                 else zero for j in range(dim)] for i in range(dim)]
        perm = list(range(dim))
        rng.shuffle(perm)
        out = [[zero] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                out[perm[i]][perm[j]] = rows[i][j]
        return self.algebra(out)

    def relabel(self, E):
        """E in the natural basis f_pi(i) = c_i e_i."""
        n = E.dim
        perm = list(range(n))
        self.rng.shuffle(perm)
        c = []
        while len(c) < n:
            x = self.scalar(1)
            if not x.is_zero():
                c.append(x)
        rows = [[self.field.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[perm[i]][perm[j]] = c[i] * c[i] * E.structure[i, j] / c[j]
        return self.algebra(rows)

    def block_change(self, E):
        """E in a random natural basis that mixes each series block with
        itself and adds annihilator components, or None."""
        ev, n, zero = self.ev, E.dim, self.field.zero()
        blocks = ev.upper_series(E).blocks
        for _ in range(BLOCK_ATTEMPTS):
            m = [[zero] * n for _ in range(n)]
            for k, blk in enumerate(blocks):
                for c in blk:
                    for r in blk + (blocks[0] if k else []):
                        m[r][c] = self.scalar()
            cols = [[m[r][c] for r in range(n)] for c in range(n)]
            if any(not x.is_zero() for i in range(n)
                   for j in range(i + 1, n)
                   for x in E.multiply(cols[i], cols[j])):
                continue
            mat = ev.Matrix(m, self.field, n)
            if not mat.is_invertible():
                continue
            inv = mat.inverse()
            return self.algebra([inv.apply(E.multiply(c, c)) for c in cols])
        return None

    def arbitrary(self, dim):
        """A random structure, one whose zero squares number at least
        half the dimension (a large annihilator), or one whose squares
        all lie in the span of about half the basis vectors, whose own
        squares are zero."""
        rng, zero = self.rng, self.field.zero()
        shape = rng.choice(["random", "large ann", "into ann"])
        density = rng.choice([0.3, 0.6, 0.9])
        if shape == "random":
            ann = set()
        elif shape == "large ann":
            ann = set(rng.sample(range(dim), rng.randrange((dim + 1) // 2,
                                                          dim + 1)))
        else:
            ann = set(rng.sample(range(dim), rng.choice([dim // 2,
                                                         (dim + 1) // 2])))
        return self.algebra([
            [self.scalar() if i not in ann and rng.random() < density
             and (shape != "into ann" or j in ann) else zero
             for j in range(dim)] for i in range(dim)])

    def family(self, k):
        """A family algebra of the k-th shape and its monomial
        relabelling, then for Ubfg the same two of a scaled_spec image;
        a quarter of the f and g entries are zero, and a quarter repeat
        an earlier entry."""
        ev, rng = self.ev, self.rng
        kind, n = FAMILY_SHAPES[k % len(FAMILY_SHAPES)]

        def eigs():
            out = []
            for _ in range(n):
                r = rng.random()
                out.append(self.field.zero() if r < 0.25 else
                           rng.choice(out) if out and r < 0.5 else
                           self.scalar())
            return tuple(out)
        if kind == "Ubu":
            b, u = self.ubu_data(n)
            spec = ev.FamilySpec(kind, n, b, u_coords=u)
        else:
            g = eigs() if kind != "Ub" else None
            spec = ev.FamilySpec(
                kind, n, tuple(self.scalar(1) for _ in range(n)),
                eigs() if kind == "Ubfg" else None, g)
        specs = [spec]
        if kind == "Ubfg":
            specs.append(ev.scaled_spec(spec, self.scalar(1), self.scalar()))
        for s in specs:
            E = ev.build(s)
            yield E
            yield self.relabel(E)

    def ubu_data(self, n):
        """b and u of a Ubu spec; u is isotropic (sum b_i u_i^2 = 0) in
        about half of the draws and anisotropic in the rest."""
        isotropic = self.rng.random() < 0.5
        while True:
            b = [self.scalar(1) for _ in range(n)]
            u = [self.scalar() for _ in range(n)]
            q = [bi * ui * ui for bi, ui in zip(b, u)]
            rest = sum(q[:-1], self.field.zero())
            if not isotropic and not (rest + q[-1]).is_zero():
                return tuple(b), tuple(u)
            if isotropic and not (rest.is_zero() or u[-1].is_zero()):
                b[-1] = -rest / (u[-1] * u[-1])
                return tuple(b), tuple(u)

    def template_params(self, entry):
        while True:
            params = tuple(self.scalar(2) for _ in range(entry.param_arity))
            if entry.param_ok(params):
                return params


def _rows(vectors) -> list:
    return [[str(x) for x in v] for v in vectors]


def _record(evoalg, E) -> dict:
    out = {"input": _rows(E.structure.rows)}
    try:
        res = evoalg.normal_form(E)
        out["label"] = repr(res.label)
        out["witness"] = (None if res.witness is None
                          else _rows(res.witness.rows))
    except evoalg.EvoalgError as exc:
        out["label"] = "raises " + type(exc).__name__
    try:
        v = evoalg.decomposability_check(E)
        out["decomp"] = [v.status, v.reason, None if v.witness is None else
                         [_rows(s.vectors()) for s in v.witness]]
    except evoalg.EvoalgError as exc:
        out["decomp"] = "raises " + type(exc).__name__
    return out


def _cli(evoalg, directory, cmd, E) -> dict:
    """The exit code and stdout of ``evoalg CMD FILE``, FILE holding E as
    ``write_algebra_text`` writes it."""
    path = os.path.join(directory, "input.alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(evoalg.write_algebra_text(E))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = evoalg.dispatch([cmd, path])
    return {"input": _rows(E.structure.rows), "exit": code,
            "stdout": out.getvalue()}


def _pair(evoalg, source, E) -> dict:
    """labels_equal of the labels of source and E, and the rows of
    witness_isomorphism(source, E)."""
    out = {"labels_equal": evoalg.labels_equal(
        evoalg.classify(source), evoalg.classify(E))}
    try:
        m = evoalg.witness_isomorphism(source, E)
        out["iso"] = None if m is None else _rows(m.rows)
    except evoalg.EvoalgError as exc:
        out["iso"] = "raises " + type(exc).__name__
    return out


def _entry_text(entry) -> str:
    dim, tv, variant = entry.key()
    return f"d{dim}:[{','.join(map(str, tv))}]:v{variant}"


def _inputs(evoalg):
    """(record id, kind, algebra or exception type name) in a fixed
    order, with (subcommand, algebra) in place of the algebra for a cli
    input; each relabel input follows the random algebra it relabels."""
    for seed, (kind, p) in enumerate(FIELDS):
        field = evoalg.GF(p) if kind == "GF" else \
            evoalg.QQ() if kind == "Q" else evoalg.QI()
        name = str(field)
        corpus = Corpus(evoalg, field, random.Random(f"outputs:{seed}"))
        for k in range(RANDOM_PER_FIELD):
            E = corpus.random_nilpotent(k % 5 + 1)
            yield f"random:{name}:{k}", "random", E
            yield f"relabel:{name}:{k}", "relabel", corpus.relabel(E)
            if k < CLI_PER_FIELD:
                for cmd in CLI_COMMANDS:
                    yield f"cli:{name}:{k}:{cmd}", "cli", (cmd, E)
        for k in range(BLOCK_PER_FIELD):
            yield f"block:{name}:{k}", "block", corpus.block_change(
                corpus.random_nilpotent(k % 4 + 2))
        for k in range(ARBITRARY_PER_FIELD):
            yield f"arbitrary:{name}:{k}", "arbitrary", \
                corpus.arbitrary(k % 6 + 1)
        for entry in evoalg.tables.ENTRIES:
            drawn = Corpus(evoalg, field, random.Random(
                f"outputs:{seed}:template:{entry.key()}"))
            for k in range(TEMPLATE_SAMPLES if entry.param_arity else 1):
                rid = f"template:{name}:{_entry_text(entry)}:{k}"
                try:
                    T = entry.template(drawn.template_params(entry), field)
                except evoalg.EvoalgError as exc:
                    yield rid, "template", "raises " + type(exc).__name__
                    continue
                yield rid, "template", T
                yield rid + ":relabel", "template", drawn.relabel(T)
        for k in range(FAMILY_PER_FIELD):
            for j, E in enumerate(corpus.family(k)):
                yield f"family:{name}:{k}:{j}", "family", E


def write(tree: str, out_path: str) -> int:
    evoalg = _load(tree)
    count = 0
    last = None  # the latest random algebra and its record
    with open(out_path, "w") as out, tempfile.TemporaryDirectory() as tmp:
        for rid, kind, E in _inputs(evoalg):
            rec = {"id": rid, "kind": kind}
            if kind == "cli":
                rec.update(_cli(evoalg, tmp, *E))
            elif E is None or isinstance(E, str):
                rec["input"] = E
            else:
                rec.update(_record(evoalg, E))
            if kind == "random":
                last = E, rec
            elif kind == "relabel" and rec.get("witness") is not None \
                    and last[1].get("witness") is not None:
                rec.update(_pair(evoalg, last[0], E))
            out.write(json.dumps(rec, sort_keys=True) + "\n")
            count += 1
    return count


def _by_id(path: str) -> dict:
    with open(path) as f:
        return {rec["id"]: rec for rec in map(json.loads, f)}


def diff(path_a: str, path_b: str) -> int:
    """Print the first differing records of each kind and every id
    present in one file only; the number of such records."""
    a, b = _by_id(path_a), _by_id(path_b)
    by_kind: dict[str, list] = {}
    for rid, ra in a.items():
        rb = b.get(rid)
        if rb is not None and ra != rb:
            by_kind.setdefault(ra["kind"], []).append((ra, rb))
    for kind, pairs in by_kind.items():
        print(f"{kind}: {len(pairs)} records differ")
        for ra, rb in pairs[:SHOWN_PER_KIND]:
            print(f"  {ra['id']}")
            for key in sorted(set(ra) | set(rb)):
                if ra.get(key) != rb.get(key):
                    print(f"    {key}: {ra.get(key)!r}")
                    print(f"    {' ' * len(key)}  {rb.get(key)!r}")
    lone = 0
    for side, here, there in (("A", a, b), ("B", b, a)):
        ids = [rid for rid in here if rid not in there]
        lone += len(ids)
        if ids:
            print(f"only in {side}: {len(ids)} records")
            for rid in ids:
                print(f"  {rid}")
    return sum(len(p) for p in by_kind.values()) + lone


_NO_WITNESS = re.compile(r"no_witness=(?:True|False)")
_LABEL = re.compile(r"CanonicalLabel\(dim=\d+, type_vector=\(([^)]*)\), "
                    r"variant=(\d+), .*?no_witness=(True|False)\)")


def _relabelled(rid: str) -> str | None:
    """The id of the input that the record rid relabels, if any."""
    kind, _, rest = rid.partition(":")
    if kind == "relabel":
        return "random:" + rest
    if kind == "template" and rid.endswith(":relabel"):
        return rid[:-len(":relabel")]
    return None


def check(path: str) -> collections.Counter:
    """The relabel pairs of the record file whose label reprs agree
    except for no_witness, counted by the type and variant of the first
    label whose flag differs."""
    records = _by_id(path)
    counts = collections.Counter()
    for rid, rec in records.items():
        source = records.get(_relabelled(rid))
        if source is None:
            continue
        la, lb = source.get("label"), rec.get("label")
        if la is None or lb is None or la == lb \
                or _NO_WITNESS.sub("", la) != _NO_WITNESS.sub("", lb):
            continue
        tv, variant, _ = next(a for a, b in zip(_LABEL.findall(la),
                                                _LABEL.findall(lb))
                              if a != b)
        counts[f"[{tv.replace(' ', '').rstrip(',')}] v{variant}"] += 1
    return counts


def split_disagreements(path: str) -> int:
    """The records of the record file labelled Decomposed whose verdict
    is not Decomposable."""
    with open(path) as f:
        return sum(rec.get("label", "").startswith("Decomposed(")
                   and isinstance(rec.get("decomp"), list)
                   and rec["decomp"][0] != "Decomposable"
                   for rec in map(json.loads, f))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", help="checkout whose src/ to import")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"),
                      help="two record files to compare")
    mode.add_argument("--check", metavar="FILE",
                      help="count the relabel pairs of a record file that "
                      "differ only in no_witness")
    ap.add_argument("--out", help="record file that --tree writes")
    args = ap.parse_args(argv)
    if args.tree is not None:
        if args.out is None:
            ap.error("--tree needs --out")
        count = write(args.tree, args.out)
        print(f"{count} records written to {args.out}", file=sys.stderr)
        return 0
    try:
        if args.check is not None:
            counts = check(args.check)
            print(f"{sum(counts.values())} relabel pairs differ only in "
                  "no_witness")
            for key, k in sorted(counts.items(),
                                 key=lambda kv: (-kv[1], kv[0])):
                print(f"  {key}: {k}")
            print(f"{split_disagreements(args.check)} Decomposed labels "
                  "whose verdict is not Decomposable")
            status = 0
        else:
            status = 1 if diff(*args.diff) else 0
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): stop quietly, with
        # stdout on devnull so that the exit flush does not fail again.
        # --diff prints only when the records differ, so its status is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0 if args.check is not None else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
