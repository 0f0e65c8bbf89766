"""Command-line interface: file format, subcommands, exit codes."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import evoalg

from evoalg.algebra import EvolutionAlgebra, graph_of
from evoalg.classify import classify
from evoalg.cli import (dispatch, emit_dot, parse_algebra_file,
                        parse_algebra_text, write_algebra_text)
from evoalg.errors import AlgebraSyntaxError, DomainError
from evoalg.fields import GF, QI, QQ
from evoalg.linalg import Matrix

CHAIN4 = "field Q\ndim 4\nrow 0 1 0 0\nrow 0 0 1 0\nrow 0 0 0 1\nrow 0 0 0 0\n"


def algfile(tmp_path, text, name="a.alg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_round_trip():
    E = parse_algebra_text(CHAIN4)
    assert E.dim == 4 and E.field == QQ()
    assert write_algebra_text(E) == CHAIN4


@pytest.mark.parametrize("field", [QQ(), QI(), GF(13)])
def test_written_algebras_parse_back(field):
    rng = random.Random(f"round trip:{field}")

    def entry():
        x = field.from_int(rng.randrange(-20, 20)) \
            / field.from_int(rng.randrange(1, 9))
        if field.has_i and rng.random() < 0.5:
            x += field.from_int(rng.randrange(-5, 5)) * field.i()
        return x
    for dim in range(1, 6):
        rows = [[entry() if rng.random() < 0.6 else field.zero()
                 for _ in range(dim)] for _ in range(dim)]
        E = EvolutionAlgebra(dim, Matrix(rows, field, dim), field)
        text = write_algebra_text(E)
        assert text.startswith(f"field {field.kind}")
        assert parse_algebra_text(text) == E


def test_parse_comments_and_fields():
    text = "# demo\nfield GF 13  # the field\ndim 1\nrow 5\n"
    E = parse_algebra_text(text)
    assert E.field == GF(13)
    assert E.structure[0, 0] == GF(13).from_int(5)
    E2 = parse_algebra_text("field Qi\ndim 1\nrow 1/2+3i\n")
    Qi = QI()
    assert E2.structure[0, 0] == Qi.one() / Qi.from_int(2) \
        + Qi.from_int(3) * Qi.i()


def test_parse_errors_carry_position():
    with pytest.raises(AlgebraSyntaxError) as exc:
        parse_algebra_text("field Q\ndim 2\nrow 0 x\nrow 0 0\n")
    assert exc.value.line == 3
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_text("")
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_text("field Q\ndim 2\nrow 0 1\n")      # missing row
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_text(CHAIN4 + "row 0 0 0 0\n")         # extra row
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_text("field GF 13\ndim 1\nrow i\n")    # i over GF


@pytest.mark.parametrize("text, message", [
    ("# no field line\ndim 1\nrow 0\n",
     "line 2, col 1: expected 'field Q|Qi|GF <p>'"),
    ("field GF x\ndim 1\nrow 0\n", "line 1, col 10: bad prime 'x'"),
    ("\n\nfield R\ndim 1\nrow 0\n",
     "line 3, col 1: expected 'field Q|Qi|GF <p>'"),
    ("field Q  # then nothing\n", "line 2, col 1: missing 'dim <n>' line"),
    ("field Q\nrow 0\n", "line 2, col 1: expected 'dim <n>'"),
    ("field Q\ndim two\nrow 0\n", "line 2, col 5: bad dimension 'two'"),
    ("field Q\ndim 0\n", "dimension must be at least 1"),
    ("field Q\ndim 2\nrow 0 1\n\nrow 0\n",
     "line 5, col 1: expected 'row' with 2 entries"),
])
def test_malformed_files_exit_1_with_their_position(tmp_path, capsys, text,
                                                    message):
    assert dispatch(["classify", algfile(tmp_path, text)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    p = tmp_path / "bytes.alg"
    p.write_bytes(b"field GF 13\ndim 1\nrow \xff\n")
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_file(str(p))
    assert dispatch(["type", str(p)]) == 1
    assert capsys.readouterr().err == \
        "error: line 3: the file is not UTF-8 text\n"


def test_the_dimension_takes_only_ascii_digits():
    # int() reads the Arabic-Indic digit three as 3
    with pytest.raises(AlgebraSyntaxError,
                       match="line 2, col 5: bad dimension '\u0663'"):
        parse_algebra_text("field Q\ndim \u0663\n")
    with pytest.raises(DomainError, match="at least 1"):
        parse_algebra_text("field Q\ndim -2\n")


def test_the_prime_takes_only_ascii_digits():
    # int() reads '1_3' as 13
    with pytest.raises(AlgebraSyntaxError,
                       match="line 1, col 10: bad prime '1_3'"):
        parse_algebra_text("field GF 1_3\ndim 1\nrow 0\n")
    with pytest.raises(DomainError, match="odd prime"):
        parse_algebra_text("field GF -13\ndim 1\nrow 0\n")


# int() refuses strings of more digits than this, 0 when it has no limit
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(
    _INT_DIGITS == 0, reason="the interpreter converts ints of any length")


@needs_int_limit
@pytest.mark.parametrize("text, where", [
    ("field Q\ndim 1\nrow {n}\n", "line 3, col 5: "),
    ("field Q\ndim 1\nrow 1/{n}\n", "line 3, col 5: "),
    ("field Qi\ndim 1\nrow 1+{n}i\n", "line 3, col 5: "),
    ("field GF 13\ndim 1\nrow {n}\n", "line 3, col 5: "),
    ("field Q\ndim {n}\n", "line 2, col 5: dimension: "),
    ("field GF {n}\ndim 1\nrow 0\n", "line 1, col 10: prime: "),
], ids=["Q", "Q-denominator", "Qi", "GF", "dim", "prime"])
def test_an_integer_past_the_int_string_limit_is_a_syntax_error(
        tmp_path, capsys, text, where):
    # int() raised a bare ValueError, and the CLI printed a traceback
    f = algfile(tmp_path, text.format(n="7" * (_INT_DIGITS + 1)))
    assert dispatch(["type", f]) == 1
    assert capsys.readouterr().err == (
        f"error: {where}integer literal of {_INT_DIGITS + 1} characters "
        "is longer than this interpreter converts\n")


@needs_int_limit
def test_a_family_value_past_the_int_string_limit_is_an_error(capsys):
    assert dispatch(["family", "--kind", "ub", "--field", "Q",
                     "--b", "1," + "7" * (_INT_DIGITS + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: integer literal of ")


def _int_of(digits: str) -> int:
    """The int that digits spell, read 1,000 digits at a time, so that no
    one conversion meets the interpreter's int-string limit."""
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k:k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_a_label_parameter_past_the_int_string_limit_prints(
        tmp_path, capsys):
    # the parameter's denominator has more digits than str() converts;
    # printing it raised a bare ValueError, and the CLI printed a traceback
    n = "7" * 2500
    f = algfile(tmp_path, f"field Q\ndim 5\nrow 0 1 {n} {n} 0\n"
                          "row 0 0 1 0 0\nrow 0 0 0 1 0\nrow 0 0 0 0 1\n"
                          "row 0 0 0 0 0\n")
    assert dispatch(["classify", f]) == 0
    out, err = capsys.readouterr()
    label = classify(parse_algebra_file(f))
    assert err == "" and out == label.serialize() + "\n"
    head, param = out.rstrip("\n").split("(")
    num, den = param.rstrip(")").split("/")
    assert head == "d5:[1,1,1,1,1]:v3" and len(den) > 4300
    assert Fraction(_int_of(num), _int_of(den)) == label.params[0].value


def test_dot_golden_bytes():
    E = parse_algebra_text("field Qi\ndim 3\nrow 0 1 0\nrow 0 0 i\nrow 0 0 0\n")
    assert emit_dot(graph_of(E)) == (
        "digraph evolution {\n"
        "  1;\n  2;\n  3;\n"
        "  1 -> 2;\n"
        '  2 -> 3 [label="i"];\n'
        "}\n")


def test_cmd_type_and_classify(tmp_path, capsys):
    f = algfile(tmp_path, CHAIN4)
    assert dispatch(["type", f]) == 0
    assert capsys.readouterr().out == "[1,1,1,1]\n"
    assert dispatch(["classify", f]) == 0
    assert capsys.readouterr().out == "d4:[1,1,1,1]:v1\n"


def test_cmd_series(tmp_path, capsys):
    f = algfile(tmp_path, "field Q\ndim 2\nrow 0 1\nrow 0 0\n")
    assert dispatch(["series", f]) == 0
    out = capsys.readouterr().out
    assert "ann^1: dim 1" in out and "ann^2: dim 2" in out
    assert "U_1: indices 2" in out and "U_2: indices 1" in out


def test_cmd_iso_equal_and_differ(tmp_path, capsys):
    f1 = algfile(tmp_path, CHAIN4, "a.alg")
    # rescaled copy of the chain
    f2 = algfile(tmp_path,
                 "field Q\ndim 4\nrow 0 4 0 0\nrow 0 0 9 0\n"
                 "row 0 0 0 1\nrow 0 0 0 0\n", "b.alg")
    assert dispatch(["iso", f1, f2]) == 0
    out = capsys.readouterr().out
    assert out.startswith("labels equal: d4:[1,1,1,1]:v1\n")
    assert "witness:" in out
    f3 = algfile(tmp_path, "field Q\ndim 4\nrow 0 1 1 0\nrow 0 0 0 1\n"
                 "row 0 0 0 1\nrow 0 0 0 0\n", "c.alg")
    assert dispatch(["iso", f1, f3]) == 0
    assert "labels differ" in capsys.readouterr().out


def test_cmd_iso_oracle(tmp_path, capsys):
    t = "field GF 3\ndim 2\nrow 0 1\nrow 0 0\n"
    f1 = algfile(tmp_path, t, "a.alg")
    f2 = algfile(tmp_path, "field GF 3\ndim 2\nrow 0 2\nrow 0 0\n", "b.alg")
    assert dispatch(["iso", f1, f2, "--oracle", "exhaustive"]) == 0
    assert "witness:" in capsys.readouterr().out


def test_cmd_family_output_round_trips(tmp_path, capsys):
    assert dispatch(["family", "--kind", "ubg", "--field", "GF 13",
                     "--b", "1,2,3", "--g", "0,1,2"]) == 0
    out = capsys.readouterr().out
    E = parse_algebra_text(out)
    assert E.dim == 5 and E.field == GF(13)
    assert dispatch(["type", algfile(tmp_path, out)]) == 0
    assert capsys.readouterr().out == "[1,1,3]\n"


@pytest.mark.parametrize("text, field", [
    ("Q", QQ()), ("Qi", QI()), ("GF 13", GF(13)), (" GF  5 ", GF(5)),
])
def test_cmd_family_takes_the_field_lines_words(capsys, text, field):
    assert dispatch(["family", "--kind", "ub", "--field", text,
                     "--b", "1,1"]) == 0
    assert parse_algebra_text(capsys.readouterr().out).field == field


@pytest.mark.parametrize("text, message", [
    ("GF x", "--field: bad prime 'x'"),
    ("GF ٣", "--field: bad prime '٣'"),
    ("GF 12", "--field: modulus must be an odd prime, got 12"),
    ("R", "--field: expected Q, Qi or 'GF <p>', got 'R'"),
    ("field Q", "--field: expected Q, Qi or 'GF <p>', got 'field Q'"),
    ("", "--field: expected Q, Qi or 'GF <p>', got ''"),
])
def test_a_bad_family_field_is_an_error_of_the_option(capsys, text,
                                                      message):
    # the option's text has no line or column in a file to report
    assert dispatch(["family", "--kind", "ub", "--field", text,
                     "--b", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_cmd_decompose(tmp_path, capsys):
    f = algfile(tmp_path, "field Q\ndim 4\nrow 0 1 0 0\nrow 0 0 0 0\n"
                "row 0 0 0 1\nrow 0 0 0 0\n")
    assert dispatch(["decompose", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Decomposable\n")
    assert "ideal I:" in out and "ideal J:" in out


def test_cmd_decompose_reports_a_two_block_split(tmp_path, capsys):
    # type [2,2,1]: e_0^2 = e_1 + e_4 misses e_2, so E is the 3-chain on
    # e_0 plus the 2-chain on e_2, with these witness ideals
    f = algfile(tmp_path, "field GF 13\ndim 5\nrow 0 1 0 0 1\n"
                "row 0 0 0 1 0\nrow 0 0 0 0 1\nrow 0 0 0 0 0\n"
                "row 0 0 0 0 0\n")
    assert dispatch(["decompose", f]) == 0
    assert capsys.readouterr().out == (
        "Decomposable\n"
        "type [2,2,1] whose top square misses a middle vector\n"
        "ideal I: dim 3  (1 0 0 0 0) (0 1 0 0 1) (0 0 0 1 0)\n"
        "ideal J: dim 2  (0 0 1 0 0) (0 0 0 0 1)\n")


def test_cmd_dot(tmp_path, capsys):
    f = algfile(tmp_path, "field Q\ndim 2\nrow 0 1\nrow 0 0\n")
    assert dispatch(["dot", f]) == 0
    assert capsys.readouterr().out == \
        "digraph evolution {\n  1;\n  2;\n  1 -> 2;\n}\n"


def test_exit_codes(tmp_path, capsys):
    bad = algfile(tmp_path, "field Q\ndim 2\nrow 0 x\nrow 0 0\n")
    assert dispatch(["type", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err
    assert dispatch(["type", str(tmp_path / "missing.alg")]) == 1
    capsys.readouterr()
    assert dispatch(["nosuchcommand"]) == 2
    assert dispatch([]) == 2
    capsys.readouterr()
    # classify of a non-nilpotent algebra is a domain error
    f = algfile(tmp_path, "field Q\ndim 1\nrow 1\n", "d.alg")
    assert dispatch(["classify", f]) == 1


def test_oracle_budget_flags_need_the_randomized_oracle(tmp_path, capsys):
    f1 = algfile(tmp_path, "field GF 3\ndim 2\nrow 0 1\nrow 0 0\n", "a.alg")
    f2 = algfile(tmp_path, "field GF 3\ndim 2\nrow 0 2\nrow 0 0\n", "b.alg")
    for extra in (["--trials", "5"], ["--seed", "1"]):
        for oracle in (["--oracle", "exhaustive"], []):
            assert dispatch(["iso", f1, f2, *oracle, *extra]) == 2
            err = capsys.readouterr().err
            assert "apply only to --oracle randomized" in err
    assert dispatch(["iso", f1, f2, "--oracle", "randomized",
                     "--trials", "500", "--seed", "1"]) == 0
    assert "witness:" in capsys.readouterr().out


def test_randomized_oracle_refuses_a_negative_trial_count(tmp_path, capsys):
    f1 = algfile(tmp_path, "field GF 3\ndim 2\nrow 0 1\nrow 0 0\n", "a.alg")
    f2 = algfile(tmp_path, "field GF 3\ndim 2\nrow 0 2\nrow 0 0\n", "b.alg")
    assert dispatch(["iso", f1, f2, "--oracle", "randomized",
                     "--trials", "-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: max_trials")


def run_python(*args):
    """A fresh interpreter that finds this checkout's evoalg first."""
    src = os.path.dirname(os.path.dirname(evoalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_module_run_is_quiet_and_cli_names_stay_public(tmp_path):
    f = algfile(tmp_path, CHAIN4)
    done = run_python("-m", "evoalg.cli", "type", f)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[1,1,1,1]\n",
                                                          "")
    done = run_python("-W", "error", "-c", (
        "from evoalg import dispatch, emit_dot\n"
        "import evoalg, evoalg.cli\n"
        "assert dispatch is evoalg.cli.dispatch\n"
        "ns = {}\n"
        "exec('from evoalg import *', ns)\n"
        "names = ('dispatch', 'emit_dot', 'parse_algebra_file',\n"
        "         'write_algebra_text', 'classify', 'GF')\n"
        "assert all(n in evoalg.__all__ and n in ns for n in names)\n"
        "assert ns['parse_algebra_file'] is evoalg.cli.parse_algebra_file\n"))
    assert (done.returncode, done.stderr) == (0, "")


def test_import_adds_no_heavy_modules():
    # measured against the bare interpreter's own modules, which site
    # hooks make differ from one installation to the next
    done = run_python("-c", (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import evoalg\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"))
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "evoalg.classify" in added
    for heavy in ("dataclasses", "inspect", "typing", "argparse",
                  "evoalg.cli"):
        assert heavy not in added
