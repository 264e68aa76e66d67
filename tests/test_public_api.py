"""The README's library example runs as written, and the public names exist."""

import ast
import re
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


def test_every_public_name_resolves():
    missing = [name for name in almax.__all__ if not hasattr(almax, name)]
    assert not missing
    assert len(set(almax.__all__)) == len(almax.__all__)
