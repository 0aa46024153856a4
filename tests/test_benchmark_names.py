"""The package names that the benchmark drives exist in src/.

``benchmark/workloads.py`` and ``benchmark/inputs.py`` run the package
through its names (``model.Parser.build``, ``transfer.finetune``,
``trainer.TrainAbort``, ``cli.run`` and more). A rename in ``src/`` that
misses one of them shows up only as a failed benchmark run, so this scan
reads both files without running them and resolves every name they take
from ``stackptr``, and the keywords of every call to one, in the package.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

from stackptr.config import TrainConfig

BENCHMARK = Path(__file__).parent.parent / "benchmark"
SCANNED = ("workloads.py", "inputs.py")


def _trees() -> dict[str, ast.Module]:
    return {name: ast.parse((BENCHMARK / name).read_text(encoding="utf-8"))
            for name in SCANNED}


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted package path of each ``from stackptr... import``."""
    return {alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stackptr"
            for alias in node.names}


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for anything but a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _package_paths(tree: ast.Module, local: dict[str, str]) -> dict[ast.AST, str]:
    """Each name chain rooted at a stackptr import, as its dotted package path."""
    paths = {}
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if chain and chain[0] in local:
            paths[node] = ".".join([local[chain[0]], *chain[1:]])
    return paths


def _resolve(path: str):
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:            # a submodule that nothing imported yet
            obj = importlib.import_module(".".join(parts[:k]))
    return obj


def test_every_package_name_the_benchmark_uses_resolves():
    found, missing = set(), []
    for name, tree in _trees().items():
        for node, path in _package_paths(tree, _imports(tree)).items():
            found.add(path)
            try:
                _resolve(path)
            except (AttributeError, ImportError):
                missing.append(f"benchmark/{name}:{node.lineno}: {path}")
    assert not missing, "names the benchmark uses are gone from src/:\n" + "\n".join(missing)
    # The scan sees the entry points, so a clean result means something.
    assert {"stackptr.model.Parser.build", "stackptr.transfer.finetune",
            "stackptr.trainer.TrainAbort", "stackptr.cli.run",
            "stackptr.treebank.DependencyTree"} <= found


def test_every_package_call_binds_its_arguments():
    config_fields = {f.name for f in fields(TrainConfig)}
    unbound, calls = [], 0
    for name, tree in _trees().items():
        paths = _package_paths(tree, _imports(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            where = f"benchmark/{name}:{node.lineno}"
            keywords = [kw.arg for kw in node.keywords if kw.arg]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "replaced":
                # TrainConfig.replaced takes any keywords and builds a config from them.
                unbound += [f"{where}: replaced({key}=...)" for key in keywords
                            if key not in config_fields]
                continue
            if node.func not in paths or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            try:
                signature = inspect.signature(_resolve(paths[node.func]))
            except (AttributeError, ImportError):
                continue                  # a missing name: the test above reports it
            calls += 1
            try:
                signature.bind_partial(*node.args, **dict.fromkeys(keywords))
            except TypeError as exc:
                unbound.append(f"{where}: {paths[node.func]}: {exc}")
    assert not unbound, "calls that no longer fit their signature:\n" + "\n".join(unbound)
    assert calls >= 10
