import ast
import sys
from pathlib import Path

import protofed as pf

PACKAGE = Path(pf.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in pf.__all__ if not hasattr(pf, name)]
    assert not missing
    assert len(set(pf.__all__)) == len(pf.__all__)


def test_imports_are_numpy_and_stdlib():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign


def test_sources_parse_at_the_python_floor():
    # pyproject.toml's requires-python; this checks syntax, not library APIs.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))
