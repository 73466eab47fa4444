"""Module layout: no module reaches into a sibling's private names."""

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
