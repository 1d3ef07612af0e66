"""Feature table container, preprocessing, and CSV persistence.

A table's rows are read-only. Its standardization under fit_columns' rule
(impute_and_standardize) is computed once per FeatureTable, on first use,
and every later call returns the same read-only rows and parameters. So a
cross-validation fold's training table is standardized once, and the
curve's scorer and the selector read the same arrays.

CSV layout: header "row_id,<feature names...>[,target]", one row per
recording. Floats are written with repr() so a read-back is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..textio import read_text

RESERVED = ("row_id", "target")


@dataclass(frozen=True)
class FeatureTable:
    """Rows of named feature columns, with an optional target. A table caches
    its standardization (impute_and_standardize) and its column positions,
    so its rows are a read-only view of the array it was given."""

    column_names: tuple[str, ...]
    rows: np.ndarray
    row_ids: tuple[str, ...]
    target: np.ndarray | None = None
    # class labels (True) or a regressed target (False); None applies integral_target
    classification: bool | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64).view()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "row_ids", tuple(map(str, self.row_ids)))
        if self.target is not None:
            object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))
        if rows.shape != (len(self.row_ids), len(self.column_names)):
            raise ValueError(
                f"rows shape {rows.shape} does not match "
                f"{len(self.row_ids)} ids x {len(self.column_names)} columns"
            )
        if len(set(self.column_names)) != len(self.column_names):
            raise ValueError("column names must be unique")
        for name in self.column_names:
            if name in RESERVED:
                raise SchemaError(f"column name {name!r} is reserved")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValueError("row ids must be unique")
        if self.target is not None and self.target.size != len(self.row_ids):
            raise ValueError("target length must equal the row count")
        if self.classification is None:
            object.__setattr__(self, "classification", integral_target(self.target))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def position(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.column_names)}

    @cached_property
    def _standardized(self) -> tuple["FeatureTable", "StandardizeParams"]:
        params = fit_columns(self.rows)
        params.means.flags.writeable = params.stds.flags.writeable = False
        return replace(self, rows=standardize_columns(self.rows, params)), params

    def select_columns(self, names: list[str] | tuple[str, ...]) -> "FeatureTable":
        idx = [self.position[n] for n in names]
        return replace(self, column_names=tuple(names), rows=self.rows[:, idx])

    def select_rows(self, indices: np.ndarray) -> "FeatureTable":
        target = self.target[indices] if self.target is not None else None
        return replace(self, rows=self.rows[indices],
                       row_ids=tuple(self.row_ids[i] for i in indices), target=target)


def integral_target(y: np.ndarray | None) -> bool:
    """The default task rule: only a finite integral target holds class labels."""
    if y is None or y.size == 0 or not np.all(np.isfinite(y)):
        return False
    return bool(np.all(np.abs(y - np.round(y)) < 1e-9))


def is_classification(tbl: FeatureTable) -> bool:
    """Whether the table's target is analyzed as class labels."""
    return tbl.classification


@dataclass(frozen=True)
class StandardizeParams:
    """Per-column parameters of the one standardization rule (fit_columns)."""

    means: np.ndarray  # mean of the observed cells: imputation value and centre
    stds: np.ndarray  # population std of the imputed column; 0 for a constant one


def fit_columns(rows: np.ndarray) -> StandardizeParams:
    """The standardization rule of every analyze stage, fitted to the
    columns of a 2-D array: a column's NaN cells take the mean of its
    observed cells (0 when it has none), and its scale is the population std
    of the imputed column. A column whose observed cells are all equal
    (all-NaN included) gets std 0 however its mean rounds, so it
    standardizes to zeros and has variance 0."""
    # In column-major order numpy sums each column on its own, as it sums a
    # 1-D array, so equal columns get equal parameters wherever they sit (MRMR
    # breaks exact ties by column order) and the rounding does not depend on
    # how the caller's array is laid out.
    cols = np.asfortranarray(rows)
    n, p = cols.shape
    missing = np.isnan(cols)
    count = n - missing.sum(axis=0)
    total = np.where(missing, 0.0, cols).sum(axis=0)
    means = np.divide(total, count, out=np.zeros(p), where=count > 0)
    if not n:
        return StandardizeParams(means, np.zeros(p))
    # fmax and fmin skip NaN and do not round; a row-major array reduces down
    # its columns about twice as fast as the column-major copy
    spread = np.fmax.reduce(rows, axis=0) > np.fmin.reduce(rows, axis=0)
    filled = np.where(missing, means[None, :], cols)
    return StandardizeParams(means, np.where(spread, filled.std(axis=0), 0.0))


def standardize_columns(rows: np.ndarray, params: StandardizeParams | None = None
                        ) -> np.ndarray:
    """rows under the rule's params (by default fit_columns(rows)): NaN cells
    take the column mean, then each column is centred on it and divided by
    its std, and a column with std 0 becomes zeros."""
    params = fit_columns(rows) if params is None else params
    filled = np.where(np.isnan(rows), params.means[None, :], rows)
    scale = np.where(params.stds > 0, params.stds, 1.0)
    z = (filled - params.means[None, :]) / scale[None, :]
    z[:, params.stds == 0] = 0.0  # constant columns carry no signal
    return z


def impute_and_standardize(tbl: FeatureTable) -> tuple[FeatureTable, StandardizeParams]:
    """The table under fit_columns' rule, and the parameters that re-apply
    the same transform to held-out rows. Fitted once per table, on the first
    call; every call returns the same objects, whose arrays are read-only."""
    return tbl._standardized


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _check_csv_safe(name: str) -> str:
    if "," in name or "\n" in name or "\r" in name:
        raise SchemaError(f"name {name!r} cannot be written to CSV")
    return name


def table_to_csv_text(tbl: FeatureTable) -> str:
    header = ["row_id"] + [_check_csv_safe(n) for n in tbl.column_names]
    if tbl.target is not None:
        header.append("target")
    lines = [",".join(header)]
    for i, rid in enumerate(tbl.row_ids):
        cells = [_check_csv_safe(rid)] + [repr(float(v)) for v in tbl.rows[i]]
        if tbl.target is not None:
            cells.append(repr(float(tbl.target[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_lines(path: Path) -> list[tuple[int, str]]:
    """The file's non-blank lines, each with its line number as the file
    counts it (from 1, blank lines included)."""
    return [(i, ln) for i, ln in enumerate(read_text(path).split("\n"), 1) if ln.strip()]


def read_table_csv(path: str | Path) -> FeatureTable:
    """The table in a CSV written by table_to_csv_text (or by hand).

    Blank lines are skipped. Every data row fills one row of a single float64
    array, and numpy converts each cell by float()'s rules, so a cell is
    accepted exactly when float() accepts it. A non-numeric cell or a ragged
    row raises SchemaError naming its line as the file numbers it, blank
    lines included. The target is a copy of the last column.
    """
    path = Path(path)
    lines = _csv_lines(path)
    if not lines:
        raise SchemaError(f"{path}: empty feature CSV")
    header = lines[0][1].split(",")
    if header[0] != "row_id":
        raise SchemaError(f"{path}: first column must be row_id, got {header[0]!r}")
    has_target = len(header) > 1 and header[-1] == "target"
    names = tuple(header[1:-1]) if has_target else tuple(header[1:])
    row_ids: list[str] = []
    values = np.empty((len(lines) - 1, len(header) - 1))
    for row, (i, line) in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{path}:{i}: {len(cells)} cells, expected {len(header)}")
        row_ids.append(cells[0])
        try:
            values[row] = cells[1:]
        except ValueError as exc:
            raise SchemaError(f"{path}:{i}: non-numeric cell ({exc})") from None
    for what, items in (("column name", names), ("row id", row_ids)):
        repeated = [item for item, count in Counter(items).items() if count > 1]
        if repeated:
            raise SchemaError(f"{path}: {what} {repeated[0]!r} appears more than once")
    if not has_target:
        return FeatureTable(names, values, tuple(row_ids))
    return FeatureTable(names, values[:, :-1], tuple(row_ids), values[:, -1].copy())


def read_finite_table_csv(path: str | Path) -> FeatureTable:
    """The table as read_table_csv reads it, but with no infinite feature or
    target cell: the filters, the standardization and the fits need finite
    values (NaN cells are imputed). The first infinite cell, row by row in
    file order, raises SchemaError naming its line, row id and column."""
    tbl = read_table_csv(path)
    infinite = np.isinf(tbl.rows)
    if tbl.target is not None:
        infinite = np.column_stack([infinite, np.isinf(tbl.target)])
    if not infinite.any():
        return tbl
    row, col = divmod(int(np.argmax(infinite)), infinite.shape[1])
    line = _csv_lines(Path(path))[row + 1][0]
    column = tbl.column_names[col] if col < tbl.n_cols else "target"
    raise SchemaError(f"{path}:{line}: infinite cell in row {tbl.row_ids[row]!r}, "
                      f"column {column!r}")
