"""The README's library example stays in step with the package's exports."""

import ast
import re
from pathlib import Path

import gaborface as gf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_uses_only_exported_names():
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                         re.M | re.S)
    names = {node.attr for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "gf"}
    assert len(names) > 10
    assert sorted(name for name in names if not hasattr(gf, name)) == []
