"""``tests/size.py`` counts the code lines that ROADMAP and CHANGES.md
quote per module; its rule is pinned here on one file of each kind of
line."""
import importlib.util
from pathlib import Path

SIZE = Path(__file__).resolve().parent / "size.py"


def _load_size():
    spec = importlib.util.spec_from_file_location("cyclestat_size", SIZE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


size = _load_size()

SAMPLE = '''"""A module docstring
over two lines."""
# a comment line

import os  # a comment after code


def total(x):
    """A function docstring,
    over two lines."""
    # an indented comment line
    value = (
        x
        + 1
    )
    text = """a string
that is no docstring"""

    return value, text
'''


def test_code_lines_counts_only_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the bracket's four lines, the string's two, return
    assert size.code_lines(path) == 9
