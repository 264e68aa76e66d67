"""The three routes stay independent: an ``ast`` scan of the package's imports.

The formula route is ``homotopy``, the cellular route is ``xd`` and
``presimplicial``, the direct route is ``khovanov``.  Only ``report`` brings
them together.  A module may reach another through a chain of imports, so
the check is on the transitive closure of the import graph.
"""

import ast
from pathlib import Path

import pytest

import almax

PACKAGE = Path(almax.__file__).parent

# module -> the modules it must not reach
FORBIDDEN = {
    "homotopy": {"xd", "presimplicial", "khovanov"},
    "xd": {"homotopy", "khovanov"},
    "presimplicial": {"homotopy", "khovanov"},
    "khovanov": {"homotopy", "xd", "presimplicial", "state_graph"},
}


def imported_modules(source: str) -> set[str]:
    """The package modules a module's source imports, wherever the import stands."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "almax" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "almax":
                continue
            module = node.module or ""
            if node.level == 0:
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x / from almax import x
                found.update(alias.name for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    return {
        name: imported_modules((PACKAGE / f"{name}.py").read_text()) & modules
        for name in modules
    }


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = list(graph[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def test_scan_sees_the_imports():
    graph = import_graph()
    assert {"homotopy", "xd", "presimplicial", "khovanov", "state_graph"} <= graph["report"]
    assert graph["xd"] == {"presimplicial", "state_graph"}
    assert imported_modules("from . import xd\nimport almax.homotopy\n") == {"xd", "homotopy"}
    assert imported_modules("from almax.khovanov import build_column\nimport os\n") == {"khovanov"}


@pytest.mark.parametrize("module", FORBIDDEN)
def test_route_reaches_no_other_route(module):
    assert not reachable(import_graph(), module) & FORBIDDEN[module]
