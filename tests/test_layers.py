"""The package's modules import one way, from the lowest layer up."""

import ast
from pathlib import Path

import qident

SRC = Path(qident.__file__).parent

# each module's layer: a module imports only from layers below its own;
# the package's __init__ gathers the public names from every layer
LAYERS = {"packed": 0, "series": 0, "partitions": 1, "overpartitions": 2, "appell": 3,
          "verify": 4, "cli": 5, "__init__": 6}

# (module, imported module) of each import against the order, each made
# inside a function, at call time, with its reason
CALL_TIME = {
    ("partitions", "overpartitions"): "count_C_table runs D_k's moves, read at call time so"
                                      " that a slip in them reaches C as well",
}


def relative_imports(path: Path):
    """(imported module, whether at module level) of each relative import in path."""
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                yield name.split(".")[0], id(node) in top


def against_order():
    """(module, imported module, at module level) of every import not from a lower layer."""
    return {(path.stem, name, top) for path in SRC.glob("*.py")
            for name, top in relative_imports(path) if LAYERS[name] >= LAYERS[path.stem]}


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == LAYERS.keys()


def test_modules_import_one_way():
    assert against_order() == {(module, name, False) for module, name in CALL_TIME}
