"""Every function, method and class in src/stackptr/ is named by src/ code.

A definition counts as used when some ``src/`` code names it as an
identifier or as an attribute, anywhere but in its own ``def`` or ``class``
line. Imports and strings (``__all__``) do not count, so a name that only the
package's re-exports, the tests or the benchmark use is reported. Python's
own hooks (dunder methods) are out of scope. Names are matched bare, so a
definition that shares its name with an attribute src/ does use counts as
used: ``Rng.integers``, which only the test corpora call, passes because
its body calls numpy's ``Generator.integers``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "stackptr"

# Definitions that nothing in src/ names, each with the caller that keeps it.
ALLOWED = {
    "autodiff.grad_check": "the finite-difference checker of the release gate and the op tests",
    "config.TrainConfig.replaced": "config edits in the benchmark workloads and the tests",
}


def _definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every def and class, nested ones too."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((qualified, child.name))
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unnamed_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    return sorted(qualified for module, tree in trees.items()
                  for qualified, bare in _definitions(tree, module) if bare not in named)


def test_every_definition_is_named_in_src_or_allowed_with_a_reason():
    assert unnamed_definitions() == sorted(ALLOWED)


def test_the_scan_sees_a_definition_nothing_names():
    # A method that only a test would call is reported; one that src calls,
    # as an attribute, is not.
    tree = ast.parse("class Store:\n"
                     "    def copy_values(self):\n        return {}\n"
                     "    def names(self):\n        return []\n"
                     "Store().names()\n")
    assert [q for q, bare in _definitions(tree, "m") if bare not in _named(tree)] == \
        ["m.Store.copy_values"]
