"""The README's library example stays in step with the package's exports,
its CLI synopsis with the parser, its config example with the config
reader, and every public function and class of the package has a use
outside the tests."""

import ast
import re
from pathlib import Path

import pytest

import gaborface as gf
from gaborface.cli import CONFIG_KEYS, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_names():
    """The `gf.` attributes that the README's library example uses."""
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                         re.M | re.S)
    return {node.attr for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "gf"}


def test_library_example_uses_only_exported_names():
    names = library_names()
    assert len(names) > 10
    assert sorted(name for name in names if not hasattr(gf, name)) == []


def test_cli_synopsis_names_the_parser_options(capsys):
    [synopsis] = re.findall(r"^```sh\n(gaborface --config .*?)^```",
                            README.read_text(encoding="utf-8"), re.M | re.S)
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    long_options = re.compile(r"--[a-z][a-z-]*")
    assert sorted(long_options.findall(synopsis)) == sorted(long_options.findall(usage))


def test_config_example_shows_every_top_level_key():
    # a key the config reader accepts cannot go undocumented
    [example] = re.findall(r'^```json\n(\{\n  "image_dir".*?)^```',
                           README.read_text(encoding="utf-8"), re.M | re.S)
    assert sorted(re.findall(r'^  "(\w+)":', example, re.M)) == sorted(CONFIG_KEYS)


def test_every_public_definition_has_a_caller():
    # a reference implementation that only tests call belongs in
    # tests/oracles.py, not in the package
    package = sorted((ROOT / "src" / "gaborface").glob("*.py"))
    used = library_names()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.stem}.{node.name}" for path in package
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []
