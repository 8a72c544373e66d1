"""The package's modules share public names only."""
import ast
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
