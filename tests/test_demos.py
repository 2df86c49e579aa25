"""The demos and the README only use ttig names, flags and keys that exist.

Nothing runs the demos in the test suite (they train or load checkpoints),
so an API rename would break them silently. This parses each demos/*.py
without running it and checks every ttig module attribute it names, parses
every documented `ttig ...` command line with the real argument parser, and
loads the demo run config with the real schema. It also checks that no
Python file in the tree imports a name it never uses, and that every public
function, method and property in src/ttig has a caller in src, demos or
perfbench.
"""

import ast
import importlib
import re
import shlex
import string
from pathlib import Path

import pytest

from ttig import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _ttig_module(node):
    """The ttig module an ImportFrom reads from, or None; a relative import
    is one inside src/ttig, so it reads from ttig too."""
    if node.level == 1:
        return "ttig" + (f".{node.module}" if node.module else "")
    if node.level == 0 and node.module and node.module.split(".")[0] == "ttig":
        return node.module
    return None


def _owned_nodes(tree):
    """(owner, node) for every node of a module; owner is the top-level
    function the node sits in, or None."""
    return [(top.name if isinstance(top, ast.FunctionDef) else None, node)
            for top in tree.body for node in ast.walk(top)]


def _ttig_references(tree):
    """(line, module, attribute, owner) for each ttig name the script reads:
    names imported from a ttig module, and attributes read off an imported
    one. owner is as in _owned_nodes."""
    nodes = _owned_nodes(tree)
    modules, refs = {}, []
    for owner, node in nodes:
        mod = _ttig_module(node) if isinstance(node, ast.ImportFrom) else None
        if mod:
            for alias in node.names:
                full = f"{mod}.{alias.name}"
                try:
                    importlib.import_module(full)
                    modules[alias.asname or alias.name] = full
                except ImportError:
                    refs.append((node.lineno, mod, alias.name, owner))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ttig" and alias.asname:
                    modules[alias.asname] = alias.name
    for owner, node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.append((node.lineno, modules[node.value.id], node.attr, owner))
    return refs


def test_demos_exist():
    assert "guidance_sweep.py" in {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_references_existing_ttig_names(path):
    refs = _ttig_references(ast.parse(path.read_text(), filename=str(path)))
    assert refs, f"{path.name} references no ttig name"
    missing = [f"{path.name}:{line}: {mod}.{attr}" for line, mod, attr, _ in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, "demo references names ttig no longer has:\n" + "\n".join(missing)


def test_no_python_file_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(p for d in ("src/ttig", "tests", "demos")
                       for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


# public functions of src/ttig that nothing in src, demos or perfbench calls
_UNREFERENCED_OK = {
    "tensor.grad_check": "the float64 gradient reference the tests check the tape against",
    "scenes.render": "the renderer's one-spec entry point",
}


def test_every_public_function_is_referenced_outside_its_definition():
    # a reference to ttig.<module>.<name>, in src, demos or perfbench outside
    # the function's own def, is <alias of the module>.<name>, a `from
    # ttig.<module> import <name>`, or the bare name inside the module itself.
    # An attribute of the same name on some other object (a bytes .decode)
    # or a mention inside a string is not one
    defs, refs = [], set()
    for path in sorted(p for d in ("src/ttig", "demos", "perfbench")
                       for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update((mod, attr, (path, owner)) for _, mod, attr, owner in _ttig_references(tree))
        if path.parent.name != "ttig":
            continue
        defs += [(path, top.name) for top in tree.body
                 if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")]
        refs.update((f"ttig.{path.stem}", node.id, (path, owner))
                    for owner, node in _owned_nodes(tree) if isinstance(node, ast.Name))
    callers = {}
    for mod, name, owner in refs:
        callers.setdefault((mod, name), set()).add(owner)
    unused = [f"{path.stem}.{name}" for path, name in defs
              if not callers.get((f"ttig.{path.stem}", name), set()) - {(path, name)}]
    # cli.run looks each cmd_<subcommand> up by name
    unused = [f for f in unused if not f.startswith("cli.cmd_")]
    assert sorted(unused) == sorted(_UNREFERENCED_OK), unused


def test_every_public_member_is_referenced_outside_its_definition():
    # a public method or property of a public src/ttig class, dunders and
    # dataclass fields aside, must be read as an attribute, <anything>.<name>,
    # in src, demos or perfbench outside its own def
    members, reads = [], []
    for path in sorted(p for d in ("src/ttig", "demos", "perfbench")
                       for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        if path.parent.name != "ttig":
            continue
        members += [(f"{path.stem}.{cls.name}.{fn.name}", fn)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    and not cls.name.startswith("_")
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")]
    unused = []
    for name, fn in members:
        inside = {id(node) for node in ast.walk(fn)}
        if not any(r.attr == fn.name and id(r) not in inside for r in reads):
            unused.append(name)
    assert not unused, unused


def _ttig_command_lines(path):
    """The argv of every `ttig ...` line in a README's code blocks or in a
    shell script, continuation lines joined and NAME=value variables
    substituted."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S))
    env, lines = {}, []
    for line in text.replace("\\\n", " ").splitlines():
        assign = re.fullmatch(r"([A-Z_]+)=(.*)", line.strip())
        if assign:
            env[assign[1]] = shlex.split(assign[2])[0]
        elif line.strip().startswith("ttig "):
            words = shlex.split(string.Template(line).substitute(env), comments=True)
            lines.append(words[1:])
    return lines


@pytest.mark.parametrize("doc", ["README.md", "demos/quickstart.sh"])
def test_documented_command_lines_parse(doc):
    lines = _ttig_command_lines(ROOT / doc)
    assert len(lines) >= 8
    for argv in lines:
        cli.build_parser().parse_args(argv)  # a usage error raises


def test_desk_config_loads():
    assert set(cli.load_config(ROOT / "demos" / "config_desk.json")) <= set(cli._SCHEMA)
