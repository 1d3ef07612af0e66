"""tools/csv_diff.py: the column-by-column report of two feature CSVs, and of two directories."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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


def test_reordered_shared_columns(tmp_path, capsys):
    # the same cells under a header that swaps two shared columns and drops one
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("source_id,f0_mean,hnr_db,gone,jitter\na,1.0,2.0,3.0,4.0\n")
    change.write_text("source_id,hnr_db,f0_mean,jitter\na,2.0,1.0,4.0\n")
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gone: only in {parent}",
        f"column order differs: 2 of 4 shared columns change place, first where {parent} "
        f"has f0_mean and {change} has hnr_db",
    ]


def test_dropped_column_alone_keeps_the_order(tmp_path, capsys):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("source_id,f0_mean,gone,hnr_db\na,1.0,3.0,2.0\n")
    change.write_text("source_id,f0_mean,hnr_db\na,1.0,2.0\n")
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out == f"gone: only in {parent}\n"


def test_identical_bytes_exit_zero(tmp_path, capsys):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(PARENT)
    change.write_text(PARENT)
    assert csv_diff.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out == "byte-identical\n"


def write_dirs(tmp_path, parent_files, change_files):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, files in ((parent, parent_files), (change, change_files)):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    return parent, change


def test_directories_report_each_file(tmp_path, capsys):
    parent, change = write_dirs(
        tmp_path,
        {"features.csv": PARENT, "curve.csv": "k,s\n1,0.5\n", "report.json": "{}\n",
         "kept.txt": "a\n", "gone.svg": "<svg/>\n"},
        {"features.csv": CHANGE, "curve.csv": "k,s\n1,0.5\n", "report.json": "{\"x\": 1}\n",
         "kept.txt": "a\n", "sub/new.csv": "k\n1\n"},
    )
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "curve.csv: byte-identical",
        f"features.csv: gone: only in {parent / 'features.csv'}",
        f"features.csv: new: only in {change / 'features.csv'}",
        "features.csv: f0_mean: 2 of 3 rows differ, max rel inf",
        "features.csv: hnr_db: 2 of 3 rows differ, NaN pattern differs in 2 rows",
        "features.csv: label: 1 of 3 rows differ",
        f"gone.svg: only in {parent}",
        "kept.txt: byte-identical",
        "report.json: differs",
        f"sub/new.csv: only in {change}",
    ]


def test_identical_directories_exit_zero(tmp_path, capsys):
    files = {"curve.csv": "k,s\n1,0.5\n", "report.json": "{}\n"}
    parent, change = write_dirs(tmp_path, files, files)
    assert csv_diff.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "curve.csv: byte-identical", "report.json: byte-identical"]


def test_csv_differing_only_in_bytes_exits_one(tmp_path, capsys):
    # the same cells, one file without its final newline
    parent, change = write_dirs(tmp_path, {"curve.csv": "k,s\n1,0.5\n"},
                                {"curve.csv": "k,s\n1,0.5"})
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out == (
        "curve.csv: files differ in bytes but not in any cell\n")


def test_one_side_only_exits_one(tmp_path, capsys):
    parent, change = write_dirs(tmp_path, {"a.csv": "k\n1\n"}, {"a.csv": "k\n1\n", "b.txt": ""})
    assert csv_diff.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.csv: byte-identical", f"b.txt: only in {change}"]


def test_file_against_directory_is_a_usage_error(tmp_path):
    (tmp_path / "a.csv").write_text("k\n1\n")
    with pytest.raises(SystemExit) as exc:
        csv_diff.main([str(tmp_path / "a.csv"), str(tmp_path)])
    assert exc.value.code == 2
