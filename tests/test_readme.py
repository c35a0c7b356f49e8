"""The README's library example and prose stay in step with the package's
exports, its CLI synopsis with the parser, its config example with the
config reader, its outputs paragraph and id byte limits with the stage
table, every public function and class of the package has a use outside
the tests, every name a package module imports is used there, and
rank_stats imports no SciPy."""

import ast
import re
from pathlib import Path

import pytest

import gaborface as gf
from gaborface.cli import _STAGES, CONFIG_KEYS, NAME_MAX, main

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
    # and so does the prose, so that a deleted export cannot live on there
    names = library_names()
    assert len(names) > 10
    prose = set(re.findall(r"`gf\.(\w+)", README.read_text(encoding="utf-8")))
    assert "FilterBank" in prose
    assert sorted(name for name in names | prose if not hasattr(gf, name)) == []


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


def test_outputs_paragraph_names_every_stage_directory_and_summary_file():
    # a stage's output directory or a study-level file cannot go undocumented
    [paragraph] = re.findall(r"^Outputs per run: .*?\n\n",
                             README.read_text(encoding="utf-8"), re.M | re.S)
    named = re.findall(r"`([^`]+)`", paragraph)
    directories = {directory for steps in _STAGES.values()
                   for _, _, directory, _ in steps if directory}
    assert {name.split("/")[0] for name in named if "/" in name} == directories
    summaries = {f"summary{name}" for steps in _STAGES.values()
                 for scope, _, _, names in steps if scope == "study"
                 for name in names}
    assert summaries and summaries <= set(named)


def test_id_byte_limits_are_name_max_less_the_longest_stage_file_name():
    # a longer file name in the stage table must move the documented limits
    text = " ".join(README.read_text(encoding="utf-8").split())
    documented = re.findall(r"(\d+) (?:bytes )?for an (image|expresser) id", text)
    limits = [(str(NAME_MAX - max(len(f"{name}.tmp".encode())
                                  for steps in _STAGES.values()
                                  for unit_scope, _, _, names in steps
                                  if unit_scope == scope for name in names)), scope)
              for scope in ("image", "expresser")]
    assert documented == limits


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


def test_every_import_is_used_in_its_module():
    # a deletion leaves no orphaned import behind; __init__.py imports
    # names to re-export them, so it is not scanned
    unused = []
    for path in sorted((ROOT / "src" / "gaborface").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []


def test_rank_stats_imports_no_scipy():
    # StudyOptions' defaults read rank_stats, so it must stay cheap to import
    tree = ast.parse((ROOT / "src" / "gaborface" / "rank_stats.py")
                     .read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert "numpy" in modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []


def test_only_errors_py_catches_key_error():
    # errors.malformed is the one rule for a KeyError in a document walk, so
    # no reader grows its own ladder of excepts
    catchers = []
    for path in sorted((ROOT / "src" / "gaborface").glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        catchers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.ExceptHandler) and node.type
                     and any(isinstance(name, ast.Name) and name.id == "KeyError"
                             for name in ast.walk(node.type))]
    assert catchers == []
