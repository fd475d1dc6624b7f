"""Golden outputs: the SHA-256 of stdout for every report id and leaf command.

Each case renders in-process through `cli.main` and must hash to the value
recorded in `golden_stdout.json`.  A change that alters output on purpose
regenerates the fixture with `PYTHONPATH=src python -B tests/test_golden.py`
and names the changed hashes in its change log.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from lamcode import cli

FIXTURE = Path(__file__).with_name("golden_stdout.json")
FORMATS = ("text", "csv", "json")
LEAF_COMMANDS = (
    "lam enum",
    "lam pages --letters 16",
    "lam codec --count 1000 --letters 8 --seed 7",
    "scramble solve --r 15",
    "scramble map --bins 18",
    "scramble budget",
    "reconcile run --count 20000 --n-in 256 --n-out 259",
    "t1l codec --words 5000 --variant broadened",
    "t1l portrait --variant reference",
    "echo plan --data 256 --capable 259",
    "echo census --head 8 --tail 8 --dc 8 --transits 2",
)


def cases() -> list[str]:
    commands = [f"report {table}" for table in sorted(cli.REPORTS)] + list(LEAF_COMMANDS)
    return [f"{command} --format {fmt}" for command in commands for fmt in FORMATS]


def stdout_digest(case: str) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(case.split())
    assert code == 0, case
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_stdout_matches_golden_hash(case):
    assert stdout_digest(case) == GOLDEN[case]


if __name__ == "__main__":
    digests = {case: stdout_digest(case) for case in cases()}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} hashes to {FIXTURE}", file=sys.stderr)
