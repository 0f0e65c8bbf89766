"""The record tool ``tools/outputs.py`` under a reader that stops early.

Each run writes far more than a pipe holds, so the tool is still
writing when the reader closes stdout after the first line, as
``| head -1`` does: it must stop quietly, with no traceback on stderr,
and keep its documented exit status.
"""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "outputs.py")
RECORDS = 20000  # 20,000 printed lines: far more than a 64 KiB pipe


def _label(k, no_witness):
    return (f"CanonicalLabel(dim=2, type_vector=(1, {k}), variant=1, "
            f"params=(), boundary=False, no_witness={no_witness})")


def _write(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return str(path)


def _first_line_then_close(args):
    """The first stdout line, the stderr text and the exit status of the
    tool run with args, its stdout closed after that line."""
    proc = subprocess.Popen([sys.executable, TOOL, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first.decode(), err.decode(), proc.wait(timeout=60)


def test_diff_stops_quietly_on_a_closed_stdout(tmp_path):
    # every id of A is missing from B, so --diff names each of them
    a = _write(tmp_path / "a.jsonl",
               ({"id": f"random:GF(13):{k}", "kind": "random"}
                for k in range(RECORDS)))
    b = _write(tmp_path / "b.jsonl", [])
    first, err, status = _first_line_then_close(["--diff", a, b])
    assert first == f"only in A: {RECORDS} records\n"
    assert err == ""
    assert status == 1


def test_check_stops_quietly_on_a_closed_stdout(tmp_path):
    # each relabel pair differs only in no_witness, under its own type
    # vector, so --check prints one count line per pair
    records = []
    for k in range(RECORDS):
        records.append({"id": f"random:GF(13):{k}", "kind": "random",
                        "label": _label(k, False)})
        records.append({"id": f"relabel:GF(13):{k}", "kind": "relabel",
                        "label": _label(k, True)})
    path = _write(tmp_path / "records.jsonl", records)
    first, err, status = _first_line_then_close(["--check", path])
    assert first == f"{RECORDS} relabel pairs differ only in no_witness\n"
    assert err == ""
    assert status == 0
