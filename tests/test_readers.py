"""Every public function and class in lamcode has a reader outside the unit tests.

A reader is code that stays when the unit tests go: another lamcode module,
the benchmark scripts, the acceptance gate, or another statement of the
defining module itself. A name counts as read where it appears as a loaded
name, an attribute or an imported alias. Private names and plain
assignments are out of scope.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))
READERS = sorted((ROOT / "benchmarks").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node: ast.AST) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name.rpartition(".")[2])
    return names


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def test_readers_are_found():
    # the scan sees a workload's codec call and the acceptance gate's table lookup
    assert len(MODULES) >= 10 and all(path.exists() for path in READERS)
    assert "encode_stream" in _reads(_tree(ROOT / "benchmarks" / "workload_stream.py"))
    assert "delimiter_word" in _reads(_tree(ROOT / "tests" / "test_acceptance.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_public_definition_is_read(module):
    tree = _tree(module)
    outside = set().union(*(_reads(_tree(path)) for path in MODULES + READERS if path != module))
    unread = []
    for definition in _public_definitions(tree):
        # the module's other statements count; the definition's own body does not
        inside = set().union(*(_reads(node) for node in tree.body if node is not definition))
        if definition.name not in outside | inside:
            unread.append(definition.name)
    assert not unread, f"{module.name}: {', '.join(unread)} read only by unit tests, if at all"
