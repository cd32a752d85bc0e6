"""Import hygiene of the package sources, read with ``ast``.

The package needs nothing outside the standard library at run time, and a
module imports only names it uses.  The one exception is a name that
``perfbench/tracing.py`` wraps where a module binds it (its ``SITES``):
the tracer replaces that module attribute, so the import must stay even
when the module no longer calls it.

The number type is the kernel's alone: outside ``matrix_kernel`` no module
reads an attribute named ``field`` or imports ``Rationals``.

No module calls the builtin ``id``: a memo keys by the node itself.

Every module parses as Python 3.10, the oldest version ``pyproject.toml``
allows.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mprat").glob("*.py"))


def module_name(path: Path) -> str:
    return "mprat" if path.stem == "__init__" else f"mprat.{path.stem}"


def traced_sites() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no SITES")


def imports(tree: ast.Module):
    """(top-level module, bound names) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], [alias.asname or alias.name.split(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            top = "mprat" if node.level else node.module.split(".")[0]
            yield top, [alias.asname or alias.name for alias in node.names]


def test_sources_import_only_the_standard_library_and_the_package():
    assert SOURCES
    outside = [(path.name, top) for path in SOURCES
               for top, _ in imports(ast.parse(path.read_text()))
               if top != "mprat" and top not in sys.stdlib_module_names]
    assert outside == []


def test_every_unused_import_is_a_traced_site():
    sites = traced_sites()
    unused = {}
    for path in SOURCES:
        if path.stem == "__init__":
            continue    # its imports are the package's exports
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = {name for top, bound in imports(tree) if top != "__future__" for name in bound}
        unused[module_name(path)] = names - used
    traced = {module: names & set(sites.get(module, ())) for module, names in unused.items()}
    assert unused == traced
    assert {module: names for module, names in unused.items() if names} == {
        "mprat.identity": {"det"},
        "mprat.matrix_rational": {"det", "is_zero"},
        "mprat.realization": {"det", "kron"},
    }


def test_only_the_kernel_knows_the_number_type():
    leaks = []
    for path in SOURCES:
        if path.stem == "matrix_kernel":
            continue
        tree = ast.parse(path.read_text())
        leaks += [(path.name, node.lineno, "field") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "field"]
        leaks += [(path.name, node.lineno, "Rationals") for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "Rationals" for alias in node.names)]
    assert leaks == []


def test_no_module_calls_id():
    """Memos key by the node itself, never by ``id()``.

    An id is reused once its object is gone, and a memo keyed by ids once
    handed a later expression the value of a dropped one.  Nodes are
    interned, so the node is a key that stands for its structure.
    """
    calls = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert calls == []


def test_sources_parse_as_python_3_10():
    # rejects newer syntax such as except*
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
