"""Report, column by column, how two feature CSVs differ.

    python3 tools/csv_diff.py PARENT.csv CHANGE.csv

Rows are paired by position. For each column whose cells differ it prints
the number of rows that differ, the largest relative difference
|change - parent| / |parent| over the differing rows where both cells are
finite numbers (inf where the parent cell is 0), and the number of rows
where one side is NaN and the other is not. Columns present in only one
file and a differing row count are reported too. Exit status: 0 when the
files are byte-identical, 1 when they differ.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys


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
    for name in p_head:
        if name in c_head:
            i, j = p_head.index(name), c_head.index(name)
            report = column_report(name, [r[i] for r in p_rows], [r[j] for r in c_rows])
            if report:
                lines.append(report)
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(args.parent, "rb") as f, open(args.change, "rb") as g:
        if f.read() == g.read():
            print("byte-identical")
            return 0
    lines = compare(args.parent, args.change) or ["files differ in bytes but not in any cell"]
    print("\n".join(lines))
    return 1


if __name__ == "__main__":
    sys.exit(main())
