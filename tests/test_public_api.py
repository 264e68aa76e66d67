"""The README's library example runs as written, the public names exist, ``almax.homology``
is the module, and src/ holds nothing that only the tests reach."""

import ast
import re
import sys
import types
from pathlib import Path

import almax

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs():
    code = library_block()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        match = re.fullmatch(r"(\S.*?)\s+#\s*(.+)", line)
        if not match:
            continue
        try:
            expected = ast.literal_eval(match.group(2))
        except (ValueError, SyntaxError):
            continue  # a prose comment, not a value
        assert eval(match.group(1), namespace) == expected, line
        checked += 1
    assert checked >= 5


def test_almax_homology_is_the_module():
    import almax.homology as imported
    from almax import homology as attribute

    assert isinstance(imported, types.ModuleType) and imported.__name__ == "almax.homology"
    assert almax.homology is imported is attribute is sys.modules["almax.homology"]
    assert callable(imported.homology) and "homology" not in almax.__all__


def test_every_public_name_resolves():
    missing = [name for name in almax.__all__ if not hasattr(almax, name)]
    assert not missing
    assert len(set(almax.__all__)) == len(almax.__all__)


ROOT = README.parent
# a bench span target, "almax.<module>:<name>" or "almax.<module>:<Class>.<method>"
SPAN_TARGET = re.compile(r"almax\.(\w+):([\w.]+)")


def public_members():
    """``module.name`` and ``module.Class.method`` of every public def and class in src/almax."""
    for path in sorted((ROOT / "src" / "almax").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}"


def used_names(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` reads, as a name, an attribute or an imported alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_member_is_reached():
    # what no command, bench script, README example or package export reaches
    # serves only the tests, and does not belong in src/
    names = set(almax.__all__) | used_names(ast.parse(library_block()))
    targets = set()
    for path in [*(ROOT / "src" / "almax").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        names |= used_names(tree)
        if path.parent.name == "bench":
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = SPAN_TARGET.fullmatch(node.value)
                    if match:
                        targets.add(".".join(match.groups()))
    unreached = [
        member for member in public_members()
        if member.rpartition(".")[2] not in names and member not in targets
    ]
    assert not unreached, f"only the tests reach {unreached}"
