"""Every module-level import of the library is read by its module."""

import ast
from pathlib import Path

import airylink

# Imported only so the benchmark's tracer (bench/spans.py) finds them on the
# module it patches them on by name; each carries a `noqa: F401`.
PATCH_TARGETS = {
    ("evaluation", "airy_beam_vector"),
    ("search", "build_farfield_codebook"),
    ("search", "build_nearfield_codebook"),
}


def _unused_imports(tree: ast.Module) -> set:
    """Names a module's top-level imports bind that it never reads and does
    not list in `__all__`."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return bound - read - exported


def test_every_module_import_is_read():
    modules = sorted(Path(airylink.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unused = {(path.stem, name) for path in modules
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert unused - PATCH_TARGETS == set()


def test_unused_import_guard_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(system.argv)\n")
    assert _unused_imports(tree) == {"os", "pi"}
