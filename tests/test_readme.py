"""The README's "Library use" example runs, gives the values its comments
state, and imports exactly the package's public names."""

import ast
import re
from pathlib import Path

import spinstat

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_values_and_public_names():
    code = library_example()
    lines = code.splitlines()
    namespace: dict = {}
    imported, checked = set(), []
    for node in ast.parse(code).body:
        if isinstance(node, ast.ImportFrom) and node.module == "spinstat":
            imported.update(alias.name for alias in node.names)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        if isinstance(node, ast.Expr) and comment:
            # "# 1000.0" or "# 0.0, every run": the value comes first.
            expected = ast.literal_eval(comment.split(",")[0].strip())
            got = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            assert got == expected, lines[node.end_lineno - 1]
            checked.append(expected)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == [True, 0.0, 1000.0, 0.0, 16.0]
    assert set(spinstat.__all__) == imported
