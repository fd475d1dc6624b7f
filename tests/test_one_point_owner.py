"""No lamcode module but `scrambler.py` splits or builds a code point by hand.

`scrambler.unpack_point` is the one split of a packed value into its root
and affix, and only `scrambler` builds a `CodePoint` unchecked; every other
module packs a value and hands it to `unpack_point`. This keeps a second
copy of the point layout from coming back unseen.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))
LAYOUT = re.compile(r"\bAFFIX_(?:BITS|SPACE)\b|tuple\.__new__\(\s*(?:\w+\.)?CodePoint\b")


def test_only_the_scrambler_splits_a_code_point():
    assert len(MODULES) >= 10
    assert LAYOUT.search((ROOT / "src" / "lamcode" / "scrambler.py").read_text("utf-8"))  # the owner still matches
    naming = [path.name for path in MODULES if path.name != "scrambler.py" and LAYOUT.search(path.read_text("utf-8"))]
    assert not naming
