"""``scripts/code_lines.py``, the code-line count ROADMAP.md and CHANGES.md quote."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring."""
        text = """a string that is not a docstring,
over two lines"""
        return math.pi * self.size, text


async def nothing():
    \'\'\'Async docstring.\'\'\'
'''


def test_counts_code_lines_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, size, def, text (2 lines), return, async def
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in (line.split() for line in lines)}
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert list(counts) == modules + ["total"]
    assert counts["total"] == sum(counts[name] for name in modules)
