"""The line counter in tools/ skips blank, comment and docstring lines only."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_counts_code_lines_only(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "class A:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        "        text = '''a string\n"
        "that is not a docstring'''\n"
        "        return (text,\n"
        "                X)\n"
    )
    # X, class, def, two string lines, two return lines
    assert src_lines.code_lines(module) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["2", "a.py", "1", "b.py", "3", "total"]
