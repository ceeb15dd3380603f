"""Golden records: each exact CLI command prints the bytes on file.

tests/data/cli_exact_records.json holds the exit code and stdout of every
command below.  Approximate records are left out, so numeric improvements
stay possible.  When a record change is intended, rewrite the file with
``PYTHONPATH=src python tests/test_cli_records.py``.
"""

import contextlib
import functools
import io
import json
import pathlib

import pytest

from lfmoments.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "cli_exact_records.json"


def _commands():
    cmds = []
    for sym in ("U", "O", "Sp"):
        for k in [*range(11), 25, 60]:
            cmds.append(["gk", sym, str(k)])
            cmds.append(["gk", sym, str(k), "--factor"])
        for p in (2, 3, 5, 7, 101):
            for k in (1, 5, 40, 120):
                cmds.append(["vp", sym, str(p), str(k)])
    for p in (11, 13, 17, 19, 23, 97):
        cmds.append(["window", "U", str(p), "10"])
    for p in (17, 19, 23, 29, 101, 181):
        cmds.append(["window", "O", str(p), "20"])
    cmds += [
        ["window", "Sp", "5", "7"],  # no window for Sp
        ["window", "O", "2", "3"],  # odd primes only
        ["window", "U", "101", "5"],  # p >= B(k)
        ["window", "U", "3", "10"],  # p^2 <= B(k)
    ]
    for p, x in (("5", "3/13"), ("3", "1/2"), ("7", "2/5"), ("2", "1/3"), ("3", "7/4")):
        cmds.append(["cp", p, x])
    # x > p (the negative side) and p | b (stripped before the period walk)
    for p, x in (("3", "7/81"), ("2", "7/1024"), ("7", "100000/3"), ("3", "1e40")):
        cmds.append(["cp", p, x])
    for p, a, b in (("5", "3", "13"), ("3", "1", "2"), ("5", "1", "3"), ("7", "2", "5")):
        cmds.append(["classify", p, a, b])
    cmds.append(["classify", "3", "1", "3"])  # p divides the denominator
    for sym, p, q, theta in (
        ("U", "0,1", "1", "1/2"),
        ("O", "0,1/2,1/2", "1,0,-1", "3/4"),
        ("Sp", "0,1", "1", "4/7"),
    ):
        cmds.append(["mollify", sym, "--P", p, "--Q", q])
        cmds.append(["mollify", sym, "--P", p, "--Q", q, "--theta", theta])
    cmds.append(["mollify", "U", "--P", "1,1", "--Q", "1"])  # P(0) != 0
    for sym in ("U", "O", "Sp"):
        for k in ("1", "2", "3"):
            cmds.append(["poles", sym, k])
    cmds.append(["gk", "U", "4", "--csv"])
    return cmds


COMMANDS = _commands()


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@functools.cache
def _load():
    return json.loads(DATA.read_text())


def test_records_on_file_match_the_commands():
    assert sorted(_load()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_exact_record_is_unchanged(argv):
    expected = _load()[" ".join(argv)]
    assert run(argv) == (expected["exit"], expected["stdout"])


if __name__ == "__main__":
    records = {}
    for argv in COMMANDS:
        code, out = run(argv)
        records[" ".join(argv)] = {"exit": code, "stdout": out}
    DATA.write_text(json.dumps(records, indent=1) + "\n")
