"""No module in src/ or tests/ imports a name it never reads (stdlib ast only).

An import counts as used when its bound name appears as a name anywhere in
the module or is listed in the module's __all__.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and "__all__" in [getattr(t, "id", "") for t in node.targets]):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = ("import math\nimport json as j\nfrom os import path, sep\n"
              "__all__ = ['sep']\nj.dumps(path)\n")
    assert unused_imports(source) == [(1, "math")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
