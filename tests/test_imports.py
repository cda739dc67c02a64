import ast
from pathlib import Path

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
