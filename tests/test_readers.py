"""Every public function, class, method, property and instance attribute in lamcode has a reader outside the unit tests.

A reader is code that stays when the unit tests go: another lamcode module,
the benchmark scripts, the acceptance gate, or any other code of the
defining module itself; a definition's own body does not count. A name
counts as read where it appears as a loaded name, an attribute or an
imported alias. A public top-level alias, `Name = <name or attribute>`,
needs a reader too, and so does a public attribute that `__init__` assigns
to `self`; the whole `__init__` is its definition, so reads there do not
count. Private and dunder names and other assignments are out of scope.
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


def _read(node: ast.AST) -> str | None:
    """The name one node reads, if any."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def _reads(node: ast.AST, skip: frozenset[int] = frozenset()) -> set[str]:
    """The names read under a node, apart from the nodes whose ids are in skip."""
    return {_read(child) for child in ast.walk(node) if id(child) not in skip} - {None}


def _public_definitions(tree: ast.Module):
    """Top-level functions, classes and aliases, then the methods and properties of every class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute)):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member
                elif isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    for name in sorted(_self_attributes(member)):
                        yield f"{node.name}.{name}", member


def _self_attributes(init: ast.FunctionDef) -> set[str]:
    """The public attributes an `__init__` assigns to its first argument."""
    this = init.args.args[0].arg
    return {
        target.attr
        for child in ast.walk(init)
        if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (child.targets if isinstance(child, ast.Assign) else [child.target])
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == this
        and not target.attr.startswith("_")
    }


def test_readers_are_found():
    # the scan sees a workload's codec call and the acceptance gate's table lookup
    assert len(MODULES) >= 10 and all(path.exists() for path in READERS)
    assert "encode_stream" in _reads(_tree(ROOT / "benchmarks" / "workload_stream.py"))
    assert "delimiter_word" in _reads(_tree(ROOT / "tests" / "test_acceptance.py"))
    # the scan lists the public methods and properties of class bodies, not the private or dunder ones
    labels = {label for label, _ in _public_definitions(_tree(ROOT / "src" / "lamcode" / "scrambler.py"))}
    assert {"CodePoint.value", "PartitionSolution.delta_x"} <= labels and not any("._" in label for label in labels)
    # and top-level aliases of a name or an attribute, not constants
    assert "pack_point" in labels and "LFSR_WIDTH" not in labels
    # and the public attributes an __init__ assigns to self, not the private ones
    labels = {label for label, _ in _public_definitions(_tree(ROOT / "src" / "lamcode" / "paging.py"))}
    assert {"PagedCodec.successors", "PagedCodec.width"} <= labels
    assert not {"PagedCodec._encoders", "PagedCodec._decoders"} & labels


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_public_definition_is_read(module):
    tree = _tree(module)
    outside = set().union(*(_reads(_tree(path)) for path in MODULES + READERS if path != module))
    unread = []
    for label, definition in _public_definitions(tree):
        # the rest of the module counts; the definition's own body does not
        inside = _reads(tree, frozenset(map(id, ast.walk(definition))))
        if label.rpartition(".")[2] not in outside | inside:
            unread.append(label)
    assert not unread, f"{module.name}: {', '.join(unread)} read only by unit tests, if at all"
