"""No lamcode module but the package's `__init__.py` names `importlib`.

The package binds its layers lazily in one place, `lamcode.__getattr__`;
a layer reaches a sibling through the package (`from . import <name>`).
This keeps a second loader from coming back unseen.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))


def test_only_the_package_names_importlib():
    assert len(MODULES) >= 10
    naming = [path.name for path in MODULES if path.name != "__init__.py" and "importlib" in path.read_text("utf-8")]
    assert not naming
