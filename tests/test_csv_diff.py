"""tools/csv_diff.py: the column-by-column report of two feature CSVs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "csv_diff.py"
spec = importlib.util.spec_from_file_location("csv_diff", TOOL)
csv_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_diff)

PARENT = """\
source_id,f0_mean,hnr_db,label,gone
a,100.0,12.5,x,1
b,200.0,nan,y,2
c,0.0,3.0,z,3
"""

CHANGE = """\
source_id,f0_mean,hnr_db,label,new
a,100.000000000001,12.5,x,1
b,200.0,4.0,y,2
c,0.5,nan,w,3
"""


def test_reports_each_differing_column(tmp_path, capsys):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(PARENT)
    change.write_text(CHANGE)
    assert csv_diff.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"gone: only in {parent}",
        f"new: only in {change}",
        # the parent's 0.0 on row c makes the relative difference inf
        "f0_mean: 2 of 3 rows differ, max rel inf",
        "hnr_db: 2 of 3 rows differ, NaN pattern differs in 2 rows",
        "label: 1 of 3 rows differ",
    ]


def test_relative_difference(tmp_path, capsys):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("source_id,f0_mean\na,100.0\nb,200.0\nc,80.0\n")
    change.write_text("source_id,f0_mean\na,125.0\nb,200.0\nc,60.0\n")
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out == "f0_mean: 2 of 3 rows differ, max rel 0.25\n"


def test_identical_bytes_exit_zero(tmp_path, capsys):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(PARENT)
    change.write_text(PARENT)
    assert csv_diff.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out == "byte-identical\n"
