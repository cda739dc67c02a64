import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "indbound"


def _private_imports(path: Path):
    """Each single-underscore name the module imports from the package
    (dunder names such as __version__ are public)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "indbound":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} imports {name} from {'.' * node.level}{node.module or ''}"


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs belongs to its owner's public interface;
    # the A/B/C lane layout stays private to products
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, found


def _used_names(tree) -> list[str]:
    """Every name a tree reads, as a bare name or as an attribute."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


# the one public entry point whose callers all live outside the package: the
# benchmark's graph pass calls it
CALLED_FROM_OUTSIDE = {"find_good_vertex"}


def _package_uses() -> tuple[dict, dict[str, int]]:
    """Each module's tree, and how often the package reads each name."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used: dict[str, int] = {}
    for tree in trees.values():
        for name in _used_names(tree):
            used[name] = used.get(name, 0) + 1
    return trees, used


def test_every_top_level_definition_is_used_in_the_package():
    # a def or class that nothing in the package refers to is test-only code
    # (it belongs in tests/) or dead code; uses inside its own body do not count
    trees, used = _package_uses()
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used.get(node.name, 0) == _used_names(node).count(node.name)
        and node.name not in CALLED_FROM_OUTSIDE
    ]
    assert not unused, unused


def test_every_method_is_used_in_the_package():
    # the same for the methods of the package's classes; dunder methods are
    # called by the language, and a class with a base outside the package
    # may override a method its base calls (cli._Parser.error); a NamedTuple
    # base calls none of its subclasses' methods, so those are checked too
    trees, used = _package_uses()
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    classes.add("NamedTuple")
    unused = [
        f"{module}:{method.lineno} {cls.name}.{method.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and all(isinstance(base, ast.Name) and base.id in classes for base in cls.bases)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and used.get(method.name, 0) == _used_names(method).count(method.name)
    ]
    assert not unused, unused


BENCH = SRC.parent.parent / "perfbench"


def _benchmark_names(path: Path):
    """(module, name) for each name the file imports from the package and
    each attribute it reads of a package module it imported by name."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "indbound":
            for alias in node.names:
                yield node.module, alias.name
                if node.module == "indbound":
                    modules[alias.asname or alias.name] = f"indbound.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def _exists(module: str, name: str) -> bool:
    """name is an attribute or a submodule of module."""
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_package_name_the_benchmark_uses_exists():
    # the benchmark's graph pass reads graphs, goodness and counting by
    # attribute; a name deleted from the package would only show there
    names = sorted({hit for path in sorted(BENCH.glob("*.py")) for hit in _benchmark_names(path)})
    assert ("indbound.graphs", "bipartition") in names
    missing = [f"{module}.{name}" for module, name in names if not _exists(module, name)]
    assert not missing, missing


# the standard-library modules a command must not load: dataclasses loads
# inspect, ast, dis and tokenize, and each decorator execs generated code;
# fractions loads decimal and numbers, and every exponent is an integer
# numerator over products._SEARCH_DEN
NEVER_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "numbers")

# what a fresh interpreter loads of the package: after `import indbound.cli`,
# then after main(argv), each as a sorted JSON list, with the modules of
# NEVER_STDLIB loaded by then
_LOADED = textwrap.dedent("""
    import contextlib, io, json, sys
    def package():
        return sorted(m for m in sys.modules if m.split(".")[0] == "indbound")
    import indbound.cli
    print(json.dumps(package()))
    with contextlib.redirect_stdout(io.StringIO()):
        code = indbound.cli.main(sys.argv[1:])
    print(json.dumps([code, package(), sorted(set(%r) & set(sys.modules))]))
""" % (NEVER_STDLIB,))


@pytest.mark.parametrize("argv, loaded, never", [
    (["verify-all", "--delta", "2", "--jobs", "1"],
     {"products", "search", "reports"}, {"goodness", "counting", "selftest"}),
    (["check", "--input", "k2.txt"],
     {"graphs", "goodness", "counting"}, {"search", "reports", "selftest"}),
], ids=["verify-all", "check"])
def test_cli_imports_only_the_layers_its_command_runs(tmp_path, argv, loaded, never):
    # a run without cached bytecode compiles every module it imports, so
    # `import indbound.cli` loads no other module of the package, and each
    # command loads the layers it runs and none of the others, nor any
    # module of NEVER_STDLIB
    (tmp_path / "k2.txt").write_text("n 2\n0 1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, last = done.stdout.splitlines()
    assert json.loads(first) == ["indbound", "indbound.cli"]
    code, modules, stdlib = json.loads(last)
    assert code == 0
    layers = {m.removeprefix("indbound.") for m in modules}
    assert loaded <= layers and not never & layers, sorted(layers)
    assert stdlib == [], stdlib


def test_no_module_imports_dataclasses():
    # nor any other module of NEVER_STDLIB: the package's value types are
    # NamedTuples and slotted classes, and its exponents integers
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] in NEVER_STDLIB for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in NEVER_STDLIB]
    assert not found, found
