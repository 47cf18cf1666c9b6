import re

from blowlab.reports import write_markdown_table


def _cells(line):
    """Cells of a Markdown table row; `\\|` stays inside its cell."""
    return re.split(r"(?<!\\)\|", line.strip())[1:-1]


def test_markdown_cells_escape_pipes(tmp_path):
    path = tmp_path / "table.md"
    header = ["case", "form", "alpha", "verdict"]
    rows = [["meridian", "C|x|^2", 2.0, "PASS"], ["ball-n3", "C|x|^1", 1.0, "FAIL"]]
    write_markdown_table(str(path), "rows", header, rows)
    table = [line for line in path.read_text().splitlines() if line.startswith("|")]
    assert len(table) == 2 + len(rows)
    for line in table:
        assert len(_cells(line)) == len(header), line
    assert _cells(table[2])[1].strip() == r"C\|x\|^2"
