"""No source line of lamcode is wider than its widest line when this check was added.

Each change reports its `src/lamcode/` line delta; a cap on width keeps that
delta from being bought by joining lines.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))
MAX_WIDTH = 124  # the widest line when this check was added, in paging.py


def test_no_source_line_is_wider_than_the_cap():
    assert MODULES
    wide = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in MODULES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_WIDTH
    ]
    assert not wide
