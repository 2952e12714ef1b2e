"""``tools/code_lines.py``, the code-line count that every simplicity
change is judged on."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, count", [
    ('"""Module\ndoc."""\n', 0),
    ('class C:\n    """Class\n    doc."""\n', 1),
    ('def f():\n    """Function doc."""\n    return 1\n', 2),
    ('async def f():\n    """Coroutine doc."""\n    return 1\n', 2),
    ("# a comment\n\n\nx = 1  # a trailing comment\n\n", 1),
    # a string that is no docstring counts each of its lines
    ('y = """a\nb\nc"""\n', 3),
    ('x = 1\n"""a\nb"""\n', 3),
    ('def f():\n    x = 1\n    """a\n    b"""\n', 4),
    # a statement continued over several lines counts each of them
    ("z = f(1,\n      2,\n      3)\n", 3),
    ("z = 1 + \\\n    2\n", 2),
], ids=["module-doc", "class-doc", "function-doc", "coroutine-doc",
        "comments-blanks", "string", "late-string", "late-string-in-def",
        "brackets", "backslash"])
def test_counts_code_lines_only(source, count):
    assert code_lines.code_lines(source) == count


def test_small_source():
    source = ('"""Module doc."""\n# c\nx = 1  # t\n\ndef f():\n'
              '    """Doc\n    string."""\n    y = """not a\ndoc"""\n'
              '    return y\n')
    assert code_lines.code_lines(source) == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("y = (1,\n     2)\n# c\n")
    (tmp_path / "notes.txt").write_text("z = 3\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"],
                    ["total", "3", "(5", "physical", "lines)"]]
