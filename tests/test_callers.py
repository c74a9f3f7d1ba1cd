"""Every top-level function and class of the library, private ones
included, has a caller outside tests."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "regenlab"
CALLER_DIRS = (LIBRARY, ROOT / "perfbench", ROOT / "scripts")
# acceptance criterion 12's routine: only the tests run it
EXEMPT = {"run_embedding_check"}


def _references(tree: ast.AST):
    """(line, name) of every name, attribute and imported name in ``tree``;
    docstrings and comments hold none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rpartition(".")[2]


def test_every_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in CALLER_DIRS
             for path in sorted(folder.rglob("*.py"))
             if "tests" not in path.relative_to(folder).parts}
    callers = {}
    for path, tree in trees.items():
        for line, name in _references(tree):
            callers.setdefault(name, []).append((path, line))
    uncalled = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in EXEMPT):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own
                   for where, line in callers.get(node.name, [])):
                uncalled.append(f"{path.name}::{node.name}")
    assert not uncalled, f"names without a caller: {uncalled}"
