"""The code-line counter, ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment leaves a code line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is not a docstring,
spread over two lines"""
        return (text,
                os.sep)


def bare():
    return 1
'''


def test_counts_code_lines_only():
    # import, class, def, text (2 lines), return (2 lines), def, return
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     9  a.py\n     1  b.py\n    10  total\n"
