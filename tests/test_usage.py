"""Golden usage texts: the help of every parser level and three usage errors.

Each case runs in-process through `cli.main` at a fixed terminal width and
must match the exit code and the SHA-256 of stdout and stderr recorded in
`golden_usage.json`.  argparse formats the texts, so the fixture holds for
the Python minor version that recorded it; a change that alters them on
purpose, or a new Python, regenerates it with
`PYTHONPATH=src python -B tests/test_usage.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lamcode import cli

FIXTURE = Path(__file__).with_name("golden_usage.json")
COLUMNS = "80"
COMMANDS = {
    "lam": ("enum", "pages", "codec"),
    "scramble": ("solve", "map", "budget"),
    "reconcile": ("run",),
    "t1l": ("codec", "portrait"),
    "echo": ("plan", "census"),
}
ERRORS = ("", "lam", "t1l codec --variant bogus")


def cases() -> list[str]:
    helps = ["--help", "report --help"]
    for group, commands in COMMANDS.items():
        helps += [f"{group} --help"] + [f"{group} {command} --help" for command in commands]
    return helps + list(ERRORS)


def _digest(sink: io.StringIO) -> str:
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


def outcome(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(case.split())
        except SystemExit as exit_:
            code = exit_.code
    return {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {"python": None, "cases": {}}
RECORDED_HERE = GOLDEN["python"] == "{}.{}".format(*sys.version_info)


def test_fixture_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(cases())


def test_commands_follow_the_cli_table():
    # a command added to the CLI's table cannot escape the fixture
    assert list(COMMANDS.items()) == [(group, tuple(commands)) for group, (_, commands) in cli._COMMANDS.items()]


@pytest.mark.skipif(not RECORDED_HERE, reason=f"usage texts recorded under Python {GOLDEN['python']}")
@pytest.mark.parametrize("case", cases())
def test_usage_matches_golden_hash(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert outcome(case) == GOLDEN["cases"][case]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    recorded = {case: outcome(case) for case in cases()}
    payload = {"python": "{}.{}".format(*sys.version_info), "cases": recorded}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {FIXTURE}", file=sys.stderr)
