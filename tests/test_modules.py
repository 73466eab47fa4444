"""Module layout: no module reaches into a sibling's private names, and no
module imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyrenorm"


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("polyrenorm")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, "; ".join(offenders)


def test_no_unused_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    offenders.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert not offenders, "; ".join(offenders)
