"""Feature table construction, imputation, standardization, and CSV I/O."""

import numpy as np
import pytest

from voxfeat.errors import SchemaError
from voxfeat.mlpipe import (
    FeatureTable,
    apply_standardize,
    fit_standardize,
    impute_and_standardize,
    impute_only,
    is_classification,
    read_table_csv,
    table_to_csv_text,
)


def make(cols, data, target=None):
    data = np.asarray(data, dtype=np.float64)
    ids = tuple(f"r{i}" for i in range(data.shape[0]))
    return FeatureTable(tuple(cols), data, ids, target)


class TestConstruction:
    def test_reserved_column_names_rejected(self):
        for name in ("row_id", "target"):
            with pytest.raises(SchemaError):
                make(["a", name], np.zeros((2, 2)))

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError):
            make(["a", "a"], np.zeros((2, 2)))

    def test_duplicate_row_ids_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(("a",), np.zeros((2, 1)), ("x", "x"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(("a", "b"), np.zeros((3, 1)), ("r0", "r1", "r2"))

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make(["a"], np.zeros((3, 1)), np.zeros(2))

    def test_column_lookup(self):
        t = make(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(t.column("b"), [2.0, 4.0])

    def test_select_columns_reorders(self):
        t = make(["a", "b", "c"], np.arange(6.0).reshape(2, 3))
        sub = t.select_columns(["c", "a"])
        assert sub.column_names == ("c", "a")
        assert np.array_equal(sub.rows, [[2.0, 0.0], [5.0, 3.0]])

    def test_select_rows_keeps_target(self):
        t = make(["a"], [[1.0], [2.0], [3.0]], np.array([0.0, 1.0, 0.0]))
        sub = t.select_rows(np.array([2, 0]))
        assert sub.row_ids == ("r2", "r0")
        assert np.array_equal(sub.target, [0.0, 0.0])


class TestStandardize:
    def test_single_missing_cell_oracle(self):
        # fill 2.0, then z-score against the filled column: std = sqrt(2/3)
        t = make(["a"], [[1.0], [np.nan], [3.0]])
        z, params = impute_and_standardize(t)
        expect = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(z.rows.ravel(), expect, atol=1e-12)
        assert params.means[0] == 2.0

    def test_constant_column_maps_to_zero(self):
        t = make(["a"], [[5.0], [5.0], [5.0]])
        z, params = impute_and_standardize(t)
        assert np.array_equal(z.rows, np.zeros((3, 1)))
        assert params.stds[0] == 0.0

    def test_all_nan_column_maps_to_zero(self):
        t = make(["a"], [[np.nan], [np.nan]])
        z, params = impute_and_standardize(t)
        assert np.array_equal(z.rows, np.zeros((2, 1)))
        assert params.means[0] == 0.0 and params.stds[0] == 0.0

    def test_output_has_zero_mean_unit_population_std(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(30, 4)) * rng.uniform(0.1, 9.0, 4)
            data[rng.uniform(size=data.shape) < 0.1] = np.nan
            z, _ = impute_and_standardize(make(["a", "b", "c", "d"], data))
            assert np.abs(z.rows.mean(axis=0)).max() < 1e-12
            assert np.abs(z.rows.std(axis=0) - 1.0).max() < 1e-12

    def test_heldout_rows_use_training_parameters(self):
        train = make(["a"], [[0.0], [2.0]])
        params = fit_standardize(train)
        val = make(["a"], [[4.0]])
        z = apply_standardize(val, params)
        # train mean 1, train std 1 -> (4 - 1) / 1
        assert z.rows[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_heldout_nan_lands_at_zero(self):
        train = make(["a"], [[0.0], [2.0]])
        params = fit_standardize(train)
        z = apply_standardize(make(["a"], [[np.nan]]), params)
        assert z.rows[0, 0] == 0.0

    def test_impute_only_fills_but_does_not_scale(self):
        t = make(["a"], [[1.0], [np.nan], [3.0]])
        filled = impute_only(t)
        assert np.array_equal(filled.rows.ravel(), [1.0, 2.0, 3.0])

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(20, 3))
        t = make(["a", "b", "c"], data)
        z1, _ = impute_and_standardize(t)
        z2, _ = impute_and_standardize(t)
        assert np.array_equal(z1.rows, z2.rows)


class TestClassification:
    def test_integral_targets_are_classes(self):
        t = make(["a"], np.zeros((4, 1)), np.array([0.0, 1.0, 2.0, -1.0]))
        assert is_classification(t)

    def test_fractional_targets_are_regression(self):
        t = make(["a"], np.zeros((2, 1)), np.array([0.5, 1.0]))
        assert not is_classification(t)

    def test_nan_target_is_regression(self):
        t = make(["a"], np.zeros((2, 1)), np.array([np.nan, 1.0]))
        assert not is_classification(t)

    def test_missing_target_is_not_classification(self):
        assert not is_classification(make(["a"], np.zeros((2, 1))))

    def test_near_integral_within_tolerance(self):
        t = make(["a"], np.zeros((2, 1)), np.array([1.0 + 1e-12, 0.0]))
        assert is_classification(t)


class TestCsv:
    def test_round_trip_exact_with_nan_and_target(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(8, 3)) * np.array([1e-7, 1.0, 1e8])
        data[2, 1] = np.nan
        t = make(["u", "v", "w"], data, rng.normal(size=8))
        path = tmp_path / "t.csv"
        path.write_text(table_to_csv_text(t), encoding="utf-8")
        back = read_table_csv(path)
        assert back.column_names == t.column_names
        assert back.row_ids == t.row_ids
        assert np.array_equal(back.rows, t.rows, equal_nan=True)
        assert np.array_equal(back.target, t.target)

    def test_round_trip_without_target(self, tmp_path):
        t = make(["a"], [[0.1], [1.0 / 3.0]])
        path = tmp_path / "t.csv"
        path.write_text(table_to_csv_text(t), encoding="utf-8")
        back = read_table_csv(path)
        assert back.target is None
        assert np.array_equal(back.rows, t.rows)

    def test_text_uses_repr_floats(self):
        t = make(["a"], [[1.0 / 3.0]])
        text = table_to_csv_text(t)
        assert "0.3333333333333333" in text
        assert text.startswith("row_id,a\n")
        assert text.endswith("\n")

    def test_header_includes_target_when_present(self):
        t = make(["a"], [[1.0]], np.array([2.0]))
        assert table_to_csv_text(t).splitlines()[0] == "row_id,a,target"

    def test_comma_in_name_rejected(self):
        t = make(["a,b"], [[1.0]])
        with pytest.raises(SchemaError):
            table_to_csv_text(t)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_table_csv(path)

    def test_wrong_leading_column_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("id,a\nr0,1.0\n")
        with pytest.raises(SchemaError):
            read_table_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("row_id,a,b\nr0,1.0\n")
        with pytest.raises(SchemaError):
            read_table_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("row_id,a\nr0,oops\n")
        with pytest.raises(SchemaError):
            read_table_csv(path)


def test_every_exported_name_resolves():
    import voxfeat.mlpipe as mlpipe
    assert [name for name in mlpipe.__all__ if not hasattr(mlpipe, name)] == []
