"""Every third-party package that ``netguard`` imports is declared as a
dependency in ``pyproject.toml``, and every one its tests import is
declared there or in the ``test`` extra, so an install pulls it in; every
module-level import of ``netguard`` is used; and the commands that solve no
bound LP start without the optimizer."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from fixtures import WEAK7_PARTITION, weak7_matrix

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _declared(deps) -> set:
    return {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
            for dep in deps}


def _undeclared(paths, declared, local) -> dict:
    """Top-level modules imported by ``paths`` that are neither in the
    standard library, nor ``local``, nor ``declared``: each with the first
    file importing it."""
    undeclared = {}
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in (m.partition(".")[0] for m in modules):
                if (top not in sys.stdlib_module_names and top not in local
                        and top.lower() not in declared):
                    undeclared.setdefault(top, path.name)
    return undeclared


def test_imports_are_declared_dependencies():
    assert _undeclared((ROOT / "src" / "netguard").glob("*.py"),
                       _declared(PROJECT["dependencies"]), {"netguard"}) == {}


def test_test_imports_are_declared_test_dependencies():
    declared = _declared(PROJECT["dependencies"]
                         + PROJECT["optional-dependencies"]["test"])
    assert _undeclared((ROOT / "tests").glob("*.py"), declared,
                       {"netguard", "fixtures", "oracles"}) == {}


def _unused_imports(path) -> list:
    """Names bound by ``path``'s module-level imports that nothing in the
    module reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_module_imports_are_used():
    # the package's __init__ imports only to re-export
    unused = {path.name: _unused_imports(path)
              for path in (ROOT / "src" / "netguard").glob("*.py")
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


# Runs in a fresh interpreter: the CLI calls given as (command, scenario,
# out) triples, then their exit codes and whether scipy.optimize was loaded.
STARTUP = """
import json, sys
import netguard.cli as cli
calls = zip(*[iter(sys.argv[1:])] * 3)
codes = [cli.main([c, "--scenario", s, "--out", o]) for c, s, o in calls]
print(json.dumps([codes, "scipy.optimize" in sys.modules]))
"""


def run_fresh(tmp_path, calls):
    """Run each ``(command, scenario)`` pair through ``cli.main`` in one
    fresh interpreter; return the exit codes and whether the optimizer was
    loaded."""
    argv = []
    for i, (command, scenario) in enumerate(calls):
        path = tmp_path / f"{i}-{command}.json"
        path.write_text(json.dumps(scenario))
        argv += [command, str(path), str(tmp_path / f"{i}-{command}-out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_calibration_never_load_the_optimizer(tmp_path):
    # bidirectional ring of 5 with self-loops: 2-connected, so one agent
    # is identifiable as faulty
    A = [[1 / 3 if (r - c) % 5 in (0, 1, 4) else 0.0 for c in range(5)]
         for r in range(5)]
    attack = [{"agent": 3, "kind": "constant", "value": 1.0}]
    scenarios = {
        "validate": {"matrix": {"rows": A}},
        "simulate": {"matrix": {"rows": A}, "horizon": 10, "attacks": attack},
        "detect": {"matrix": {"rows": A}, "observer": 1, "horizon": 40,
                   "attacks": attack},
        "identify": {"matrix": {"rows": A}, "observer": 1, "k": 1,
                     "horizon": 15, "attacks": attack},
        "analyze": {"matrix": {"rows": A}, "observer": 1, "sets": [[3]]},
        "synthesize": {"matrix": {"rows": A}, "observer": 1, "targets": [3],
                       "decouple": [4]},
    }
    codes, optimizer = run_fresh(tmp_path, scenarios.items())
    assert codes == [0] * len(scenarios)
    assert not optimizer


# Below the crossing, WEAK7 block 1 calibrates on the vertex certificate
# alone, so neither a bound LP nor the crossing search loads the optimizer.
def test_certified_calibration_never_loads_the_optimizer(tmp_path):
    scenario = {"matrix": {"rows": weak7_matrix(0.01).tolist()},
                "partition": [list(b) for b in WEAK7_PARTITION],
                "observer": 1, "block": 1, "k": 1, "horizon": 30,
                "attacks": [{"agent": 2, "kind": "constant", "value": 0.5}]}
    codes, optimizer = run_fresh(tmp_path, [("local-identify", scenario)])
    assert codes == [0]
    assert not optimizer
