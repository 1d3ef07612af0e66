"""Feature table container, preprocessing, and CSV persistence.

CSV layout: header "row_id,<feature names...>[,target]", one row per
recording. Floats are written with repr() so a read-back is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..textio import read_text

RESERVED = ("row_id", "target")


@dataclass(frozen=True)
class FeatureTable:
    column_names: tuple[str, ...]
    rows: np.ndarray
    row_ids: tuple[str, ...]
    target: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            rows = rows.reshape(len(self.row_ids), -1)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
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

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.column_names.index(name)]

    def select_columns(self, names: list[str] | tuple[str, ...]) -> "FeatureTable":
        idx = [self.column_names.index(n) for n in names]
        return FeatureTable(tuple(names), self.rows[:, idx], self.row_ids, self.target)

    def select_rows(self, indices: np.ndarray) -> "FeatureTable":
        target = self.target[indices] if self.target is not None else None
        return FeatureTable(
            self.column_names,
            self.rows[indices],
            tuple(self.row_ids[i] for i in indices),
            target,
        )


def is_classification(tbl: FeatureTable) -> bool:
    """Integral finite targets are treated as class labels."""
    y = tbl.target
    if y is None or y.size == 0 or not np.all(np.isfinite(y)):
        return False
    return bool(np.all(np.abs(y - np.round(y)) < 1e-9))


@dataclass(frozen=True)
class StandardizeParams:
    means: np.ndarray  # imputation value and centering offset per column
    stds: np.ndarray  # population std; 0 marks a constant column


def fit_standardize(tbl: FeatureTable) -> StandardizeParams:
    # the scale is the population std of the column AFTER imputation, so a
    # missing cell sits exactly at z = 0 and the filled column has unit spread.
    # In column-major order numpy sums each column on its own, as it sums a
    # 1-D array, so equal columns get equal parameters wherever they sit (MRMR
    # breaks exact ties by column order) and the rounding does not depend on
    # how the caller's array is laid out.
    rows = np.asfortranarray(tbl.rows)
    missing = np.isnan(rows)
    count = tbl.n_rows - missing.sum(axis=0)
    total = np.where(missing, 0.0, rows).sum(axis=0)
    means = np.divide(total, count, out=np.zeros(tbl.n_cols), where=count > 0)
    if not tbl.n_rows:
        return StandardizeParams(means, np.zeros(tbl.n_cols))
    filled = np.where(missing, means[None, :], rows)
    return StandardizeParams(means, filled.std(axis=0))


def apply_standardize(tbl: FeatureTable, params: StandardizeParams) -> FeatureTable:
    filled = np.where(np.isnan(tbl.rows), params.means[None, :], tbl.rows)
    scale = np.where(params.stds > 0, params.stds, 1.0)
    z = (filled - params.means[None, :]) / scale[None, :]
    z[:, params.stds == 0] = 0.0  # constant columns carry no signal
    return FeatureTable(tbl.column_names, z, tbl.row_ids, tbl.target)


def impute_and_standardize(tbl: FeatureTable) -> tuple[FeatureTable, StandardizeParams]:
    """NaN -> column mean (all-NaN -> 0), then per-column z-score with the
    population stddev; constant columns become all zeros. The returned
    parameters re-apply the same transform to held-out rows."""
    params = fit_standardize(tbl)
    return apply_standardize(tbl, params), params


def impute_only(tbl: FeatureTable) -> FeatureTable:
    params = fit_standardize(tbl)
    filled = np.where(np.isnan(tbl.rows), params.means[None, :], tbl.rows)
    return FeatureTable(tbl.column_names, filled, tbl.row_ids, tbl.target)


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


def read_table_csv(path: str | Path) -> FeatureTable:
    path = Path(path)
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty feature CSV")
    header = lines[0].split(",")
    if header[0] != "row_id":
        raise SchemaError(f"{path}: first column must be row_id, got {header[0]!r}")
    has_target = len(header) > 1 and header[-1] == "target"
    names = tuple(header[1:-1]) if has_target else tuple(header[1:])
    row_ids: list[str] = []
    rows: list[list[float]] = []
    target: list[float] = []
    for i, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{path}:{i}: {len(cells)} cells, expected {len(header)}")
        row_ids.append(cells[0])
        body = cells[1:-1] if has_target else cells[1:]
        try:
            rows.append([float(v) for v in body])
            if has_target:
                target.append(float(cells[-1]))
        except ValueError as exc:
            raise SchemaError(f"{path}:{i}: non-numeric cell ({exc})") from None
    for what, items in (("column name", names), ("row id", row_ids)):
        repeated = [item for item, count in Counter(items).items() if count > 1]
        if repeated:
            raise SchemaError(f"{path}: {what} {repeated[0]!r} appears more than once")
    matrix = np.asarray(rows) if rows else np.empty((0, len(names)))
    return FeatureTable(
        names, matrix, tuple(row_ids), np.asarray(target) if has_target else None
    )
