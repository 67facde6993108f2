"""Tests for the code-line counter (``python -m repro.devtools loc``)."""

from __future__ import annotations

from repro.devtools import loc
from repro.devtools.__main__ import main as devtools_main

FOUR_LINES = '"""Module docstring."""\n# a comment\n\nx = 1  # trailing comment\n'


def test_only_the_line_carrying_a_token_counts():
    assert loc.code_lines(FOUR_LINES) == 1


def test_docstrings_do_not_count_but_other_strings_do():
    source = (
        "def f():\n"
        '    """Doc\n'
        '    over two lines."""\n'
        '    text = """data\n'
        '    over two lines"""\n'
        "    return text\n"
        "\n"
        "class C:\n"
        '    "doc"\n'
        "    y = (\n"
        "        1\n"
        "    )\n"
    )
    # def, the two lines of the assigned string, return, class, y = ( 1 )
    assert loc.code_lines(source) == 8


def test_table_per_top_level_package(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(FOUR_LINES)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "top.py").write_text(FOUR_LINES)
    assert loc.count_tree(tmp_path) == {"pkg": 3, ".": 1}
    assert devtools_main(["loc", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{tmp_path}:"
    assert [line.split() for line in lines[1:]] == [
        ["1", "."],
        ["3", "pkg"],
        ["4", "total"],
    ]


def test_bad_path_is_an_error(tmp_path, capsys):
    assert loc.main([str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err
