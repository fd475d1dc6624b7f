"""No lamcode module but `paging.py` names a paged codec's tables.

`PagedCodec` keeps one encode and one decode table per state, laid out so
that a symbol costs one lookup. Other modules read the page chain through
`PagedCodec.successors` and code through `encode`/`decode`, so the entry
layout has one owner. This keeps a second reader of it from coming back unseen.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))
TABLES = re.compile(r"\b(?:_?encoders|_decoders)\b")


def test_only_paging_names_the_codec_tables():
    assert len(MODULES) >= 10
    assert TABLES.search((ROOT / "src" / "lamcode" / "paging.py").read_text("utf-8"))  # the owner still matches
    naming = [path.name for path in MODULES if path.name != "paging.py" and TABLES.search(path.read_text("utf-8"))]
    assert not naming
