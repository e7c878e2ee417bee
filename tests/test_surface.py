"""The package's public surface: ``ontoembed`` is imported module by module,
and each public function in ``src/`` is there because the package calls it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ontoembed"

# Public functions that no module of the package calls, each kept because
# the benchmark harness reads it.
READ_BY_PERFBENCH = {
    "encoder.tokenize": "perfbench/child.py",
    "trainer.translation_gap": "perfbench/workloads.py",
}


def _references(name: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, function) pairs that module ``name`` refers to: a bare
    name of its own, ``alias.attr`` for a sibling module imported as
    ``from . import module as alias``, and ``from .module import attr``."""
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update({a.asname or a.name: a.name for a in node.names})
            else:
                refs.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((name, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def test_package_init_binds_only_the_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    body = [node for node in tree.body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert [ast.unparse(node) for node in body] == ["__version__ = '0.1.0'"]


def test_every_public_function_has_a_caller_in_the_package():
    # a re-export in __init__.py is not a call, so it is not searched
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    called = set().union(*(_references(name, tree) for name, tree in modules.items()))
    uncalled = sorted(f"{name}.{node.name}" for name, tree in modules.items()
                      for node in tree.body
                      if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                      and (name, node.name) not in called)
    extra = [f for f in uncalled if f not in READ_BY_PERFBENCH]
    assert not extra, f"public functions that nothing in src/ calls: {extra}"
    # an exception that gains a caller leaves the list
    assert sorted(READ_BY_PERFBENCH) == [f for f in uncalled if f in READ_BY_PERFBENCH]
    for function, reader in READ_BY_PERFBENCH.items():
        attr = function.split(".")[1]
        assert f".{attr}(" in (ROOT / reader).read_text(encoding="utf-8"), (function, reader)
