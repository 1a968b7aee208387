"""The package namespace, the layering of its modules and the benchmark's hooks."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import steingrad

PACKAGE_DIR = Path(steingrad.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

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


# the package needs numpy alone: distances are numpy's in-order sums or
# products, and every factorisation is numpy's, on numpy's one BLAS pool.
# Tests may still use scipy as an independent reference.
def scipy_imports(path):
    """The scipy subpackages the source at ``path`` imports; "" for bare scipy."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            parts = node.module.split(".")
            names = [parts + [alias.name] for alias in node.names] if len(parts) == 1 else [parts]
        else:
            continue
        found.update(parts[1] if len(parts) > 1 else "" for parts in names if parts[0] == "scipy")
    return found


def test_no_module_imports_scipy():
    found = {name: scipy_imports(PACKAGE_DIR / f"{name}.py") for name in MAY_IMPORT}
    assert {name: subs for name, subs in found.items() if subs} == {}


def test_command_line_loads_no_scipy():
    # a fresh process, so that no test's own import of scipy counts
    code = "import sys, steingrad.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scipy_scan_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from scipy.spatial.distance import pdist\n"
        "import scipy.linalg\n"
        "from scipy import special\n"
        "import scipy\n"
        "def f():\n"
        "    from scipy.optimize import minimize\n"
        "import numpy\n",
        encoding="utf-8",
    )
    assert scipy_imports(src) == {"spatial", "linalg", "special", "", "optimize"}


# The benchmark's tracer rebinds package functions by name, and skips a
# name it cannot find, so a rename would zero a per-layer metric without a
# failure.  bench/ is read here, never imported or edited.


def _bench_tree(name):
    return ast.parse((BENCH_DIR / name).read_text(encoding="utf-8"))


def _bench_literal(name, assigned):
    """The literal value assigned to ``assigned`` at the top of bench/``name``."""
    for node in _bench_tree(name).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [assigned]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{name} assigns no {assigned}")


def _resolve(modname, attr):
    """The object ``attr`` ("f" or "Cls.meth") of a module, as the tracer finds it."""
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner).get(name)


# deleted from the package; the tracer still lists it and reads it as zero
# work until the benchmark drops it
STALE_TARGETS = {("steingrad.kernels", "cross_hess_trace_matrix")}


def test_every_traced_target_resolves():
    targets = _bench_literal("tracing.py", "TARGETS")
    missing = [
        (modname, attr)
        for _, modname, attr, _ in targets
        if _resolve(modname, attr) is None and (modname, attr) not in STALE_TARGETS
    ]
    assert missing == []


# (module, function, index, parameter): the positional arguments the tracer
# reads, for work counts, span attributes and the score callbacks it wraps
TRACED_ARGUMENTS = [
    ("steingrad.sampler", "leapfrog", 3, "n_steps"),
    ("steingrad.estimators", "FittedEstimator.predict", 1, "points"),
    ("steingrad.sampler", "run_hmc", 1, "score_fn"),
    ("steingrad.discrepancy", "ksd_to_target", 1, "score_fn"),
    ("steingrad.estimators", "fit_estimator", 0, "kind"),
    ("steingrad.linalg", "solve_symmetric", 1, "rhs"),
]


def test_traced_arguments_keep_their_places():
    moved = {}
    for modname, attr, index, want in TRACED_ARGUMENTS:
        params = list(inspect.signature(_resolve(modname, attr)).parameters.values())
        got = params[index] if index < len(params) else None
        if got is None or got.name != want or got.kind is not got.POSITIONAL_OR_KEYWORD:
            moved[attr] = (index, want, got)
    assert moved == {}
    # the callback indices are the tracer's own table
    callbacks = _bench_literal("tracing.py", "CALLBACK_ARGS")
    assert {name: idx for name, (idx, _) in callbacks.items()} == {
        "sampler.run_hmc": 1,
        "discrepancy.ksd_to_target": 1,
    }


def test_run_hmc_result_reads_are_chain_stats_fields():
    # _result_attrs reads fields off run_hmc's result for the run's span; a
    # field gone from ChainStats would stop a traced run with AttributeError
    func = next(
        node for node in _bench_tree("tracing.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "_result_attrs"
    )
    branch = next(
        node for node in ast.walk(func)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and [getattr(c, "value", None) for c in node.test.comparators] == ["sampler.run_hmc"]
    )
    read = {
        node.attr
        for stmt in branch.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "result"
    }
    assert read >= {"n_divergent", "acceptance_rate"}
    fields = {f.name for f in dataclasses.fields(steingrad.ChainStats)}
    assert sorted(read - fields) == []


def test_bench_imports_resolve():
    # from steingrad[.mod] import name, anywhere in bench/*.py (workloads.py
    # imports KernelSpec, ksd_v and quadratic_minimiser inside a function)
    missing = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(_bench_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "steingrad":
                module = importlib.import_module(node.module)
                missing += [
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if not hasattr(module, alias.name)
                    and importlib.util.find_spec(f"{node.module}.{alias.name}") is None
                ]
    assert missing == []


def test_worker_cli_hooks_resolve():
    # the worker calls cli.main and rebinds cli.run_hmc to time the sampler
    used = {
        node.attr
        for node in ast.walk(_bench_tree("worker.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"
    }
    assert used >= {"main", "run_hmc"}
    cli = importlib.import_module("steingrad.cli")
    assert [name for name in sorted(used) if not hasattr(cli, name)] == []
