"""The package namespace and the layering of its modules."""

import ast
from pathlib import Path

import steingrad

PACKAGE_DIR = Path(steingrad.__file__).resolve().parent

# the package modules each module may import, lowest layer first; the
# sampler and the discrepancy stand on the kernels alone, so neither grades
# nor fits through the other
MAY_IMPORT = {
    "errors": set(),
    "linalg": {"errors"},
    "kernels": {"errors"},
    "discrepancy": {"kernels"},
    "sampler": {"kernels"},
    "estimators": {"errors", "kernels", "linalg"},
    "oracles": {"errors", "kernels"},
    "cli": {"discrepancy", "errors", "estimators", "kernels", "sampler"},
    "__init__": {"discrepancy", "errors", "estimators", "kernels", "oracles", "sampler"},
}


def package_imports(path):
    """The steingrad modules that the source at ``path`` imports, from its AST."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .mod import name, or from . import mod
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "steingrad":
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "steingrad":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here
    missing = [name for name in steingrad.__all__ if not hasattr(steingrad, name)]
    assert missing == []


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE_DIR.glob("*.py")} == set(MAY_IMPORT)


def test_modules_import_only_lower_layers():
    beyond = {
        name: sorted(package_imports(PACKAGE_DIR / f"{name}.py") - allowed)
        for name, allowed in MAY_IMPORT.items()
    }
    assert {name: mods for name, mods in beyond.items() if mods} == {}


def test_import_scan_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .kernels import as_samples\n"
        "from . import linalg\n"
        "from steingrad.errors import NumericalError\n"
        "from steingrad import oracles\n"
        "import steingrad.discrepancy\n"
        "def f():\n"
        "    from .estimators import fit_estimator\n"
        "import numpy\n",
        encoding="utf-8",
    )
    assert package_imports(src) == {
        "kernels", "linalg", "errors", "oracles", "discrepancy", "estimators"
    }
