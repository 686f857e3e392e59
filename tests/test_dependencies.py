"""The package imports nothing outside itself and the standard library."""

import ast
import sys
from pathlib import Path

import onionkep

SOURCES = sorted(Path(onionkep.__file__).parent.glob("*.py"))


def test_no_runtime_dependencies():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "onionkep" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []
