"""Every name a module imports is one it reads.

An import binds a name (`import a.b` binds `a`, and the module path `a.b` is
what it brings in); the module reads it when that name, or for a dotted import
that path, starts an expression it loads. `from __future__` imports switch on
language features and bind nothing to read, so they are the one exemption.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/spdg", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _loaded_paths(tree) -> set[str]:
    """Each dotted path a.b.c the module loads, with its prefixes a and a.b."""
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts = [node.id, *reversed(parts)]
                paths.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return paths


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [(a.asname or a.name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for a in node.names]
    loaded = _loaded_paths(tree)
    return [f"line {line}: {name}" for name, line in imported if name not in loaded]


def test_every_module_reads_every_name_it_imports():
    assert {p.parent.name for p in MODULES} == {"spdg", "tests", "scripts"}
    unused = {str(p.relative_to(ROOT)): unused_imports(p) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_scan_flags_an_unread_name(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                    "from json import dumps as d, loads\nprint(os.path.sep, loads)\n")
    assert unused_imports(path) == ["line 3: sys", "line 4: d"]
