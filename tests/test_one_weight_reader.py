"""No lamcode function but `PagedTernaryDictionary.chain` reads a page entry's `rep_count`.

The word-choice chain pairs each page word with its representation count,
its page's total and its next disparity; the transition matrix, the run
bounds, the portraits and the scrambler-key table all read the weights
through it. This keeps a second reader of the weights from coming back unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lamcode").glob("*.py"))


def _weight_readers(path: Path) -> set[str]:
    """The qualified name of each scope in the module that reads an attribute named rep_count."""
    readers = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rep_count" and isinstance(child.ctx, ast.Load):
                readers.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8")), path.stem)
    return readers


def test_only_the_chain_reads_the_page_weights():
    assert len(MODULES) >= 10
    readers = set().union(*map(_weight_readers, MODULES))
    assert readers == {"ternary.PagedTernaryDictionary.chain"}
