"""The package's modules share public names only."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import aspectkbl


def test_no_module_imports_a_private_name_of_another():
    # a decision that two modules need has a public name in one of them
    private = []
    for path in sorted(Path(aspectkbl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "aspectkbl"):
                private += [(path.name, node.module, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every akbl run pays for its imports, and these two modules cost
    # about a quarter of them when no bytecode is cached
    code = ("import sys, aspectkbl.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(aspectkbl.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_importing_the_cli_does_not_load_copy():
    # the certifier's domain makes its copies itself
    code = "import sys, aspectkbl.cli; print('copy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(aspectkbl.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
