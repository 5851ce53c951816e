"""Every third-party package that ``netguard`` imports is declared as a
dependency in ``pyproject.toml``, so an install pulls it in."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    undeclared = {}
    for path in sorted((ROOT / "src" / "netguard").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in (m.partition(".")[0] for m in modules):
                if (top not in sys.stdlib_module_names and top != "netguard"
                        and top.lower() not in declared):
                    undeclared.setdefault(top, path.name)
    assert undeclared == {}
