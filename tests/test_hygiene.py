"""Source hygiene: no module in the package or the tests imports a name it
never uses.  A stdlib `ast` scan, so no linter is needed."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _modules():
    for top in (ROOT / "src" / "rtspect", ROOT / "tests"):
        for path in sorted(top.glob("*.py")):
            if path.name != "__init__.py":    # re-exports
                yield path


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules() for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\nimport numpy as np\nfrom math import pi, tau\n"
                   "x = np.linalg.norm(pi)\n")
    assert _unused_imports(src) == [(2, "os"), (4, "tau")]
