"""Report, column by column, how two feature CSVs differ, or every file of
two output directories.

    python3 tools/csv_diff.py PARENT.csv CHANGE.csv
    python3 tools/csv_diff.py PARENT_DIR CHANGE_DIR

Rows are paired by position. For each column whose cells differ it prints
the number of rows that differ, the largest relative difference
|change - parent| / |parent| over the differing rows where both cells are
finite numbers (inf where the parent cell is 0), and the number of rows
where one side is NaN and the other is not. Columns present in only one
file, columns present in both but in a different order, and a differing
row count are reported too.

Given two directories, it walks both and prints one or more lines per file,
each prefixed with the file's path relative to its directory: a CSV present
on both sides gets the column report above, any other shared file
"byte-identical" or "differs", and a file on one side only "only in DIR".

Exit status: 0 when the files, or every file of the two directories, are
byte-identical, 1 on any difference.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_report(name: str, parent: list[str], change: list[str]) -> str | None:
    """One line describing how a column's cells differ, None when they are equal."""
    differ = nan_flips = 0
    max_rel = None  # over rows whose two cells are finite numbers
    for a, b in zip(parent, change):
        if a == b:
            continue
        differ += 1
        x, y = _number(a), _number(b)
        if x is None or y is None:
            continue
        if math.isnan(x) != math.isnan(y):
            nan_flips += 1
        elif math.isfinite(x) and math.isfinite(y):
            rel = abs(y - x) / abs(x) if x != 0 else math.inf
            max_rel = rel if max_rel is None else max(max_rel, rel)
    if not differ:
        return None
    line = f"{name}: {differ} of {len(parent)} rows differ"
    if max_rel is not None:
        line += f", max rel {max_rel:.2g}"
    if nan_flips:
        line += f", NaN pattern differs in {nan_flips} rows"
    return line


def compare(parent_path: str, change_path: str) -> list[str]:
    """Every difference between the two CSVs, one line each."""
    with open(parent_path, newline="", encoding="utf-8") as f:
        parent = list(csv.reader(f))
    with open(change_path, newline="", encoding="utf-8") as f:
        change = list(csv.reader(f))
    (p_head, *p_rows), (c_head, *c_rows) = parent or [[]], change or [[]]
    lines = []
    if len(p_rows) != len(c_rows):
        lines.append(f"row count: {len(p_rows)} -> {len(c_rows)} (compared the first "
                     f"{min(len(p_rows), len(c_rows))})")
    lines += [f"{name}: only in {parent_path}" for name in p_head if name not in c_head]
    lines += [f"{name}: only in {change_path}" for name in c_head if name not in p_head]
    p_shared = [name for name in p_head if name in c_head]
    c_shared = [name for name in c_head if name in p_head]
    moved = [(a, b) for a, b in zip(p_shared, c_shared) if a != b]
    if moved:
        lines.append(f"column order differs: {len(moved)} of {len(p_shared)} shared columns "
                     f"change place, first where {parent_path} has {moved[0][0]} and "
                     f"{change_path} has {moved[0][1]}")
    for name in p_head:
        if name in c_head:
            i, j = p_head.index(name), c_head.index(name)
            report = column_report(name, [r[i] for r in p_rows], [r[j] for r in c_rows])
            if report:
                lines.append(report)
    return lines


def differing_lines(parent: Path, change: Path) -> list[str]:
    """The column report of two CSVs whose bytes differ."""
    return compare(str(parent), str(change)) or ["files differ in bytes but not in any cell"]


def compare_dirs(parent: Path, change: Path) -> tuple[list[str], bool]:
    """Lines for every file under either directory, and whether any differs."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    p_files, c_files = files(parent), files(change)
    lines: list[str] = []
    differ = p_files != c_files
    for name in sorted(p_files | c_files):
        a, b = parent / name, change / name
        if name not in c_files or name not in p_files:
            lines.append(f"{name}: only in {parent if name in p_files else change}")
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: byte-identical")
        else:
            differ = True
            diff = differing_lines(a, b) if name.lower().endswith(".csv") else ["differs"]
            lines += [f"{name}: {line}" for line in diff]
    return lines, differ


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    parent, change = Path(args.parent), Path(args.change)
    if parent.is_dir() and change.is_dir():
        lines, differ = compare_dirs(parent, change)
    elif parent.is_dir() or change.is_dir():
        ap.error("give two files or two directories")
    else:
        differ = parent.read_bytes() != change.read_bytes()
        lines = differing_lines(parent, change) if differ else ["byte-identical"]
    if lines:
        print("\n".join(lines))
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
