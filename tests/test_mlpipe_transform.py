"""Variance/correlation filters, the correlation matrix, PCA and ICA."""

import numpy as np
import pytest

from voxfeat.errors import InvalidK, TooFewColumns
from voxfeat.mlpipe import (
    FeatureTable,
    correlation_matrix,
    high_correlation_filter,
    ica,
    low_variance_filter,
    pca,
)


def make(cols, data, target=None):
    data = np.asarray(data, dtype=np.float64)
    ids = tuple(f"r{i}" for i in range(data.shape[0]))
    return FeatureTable(tuple(cols), data, ids, target)


class TestLowVariance:
    def test_constant_column_dropped_at_zero(self):
        t = make(["c", "v"], np.column_stack([np.full(6, 3.0), np.arange(6.0)]))
        res = low_variance_filter(t, 0.0)
        assert res.kept_columns == ("v",)
        assert res.scores["c"] == 0.0

    def test_threshold_boundary_is_strict(self):
        # var([0,1,0,1]) = 0.25; a column at exactly the threshold is dropped
        col = np.tile([0.0, 1.0], 2)
        t = make(["a"], col[:, None])
        assert low_variance_filter(t, 0.2).kept_columns == ("a",)
        assert low_variance_filter(t, 0.25).kept_columns == ()

    def test_all_nan_column_dropped(self):
        t = make(["n", "v"], np.column_stack([np.full(4, np.nan), np.arange(4.0)]))
        assert low_variance_filter(t).kept_columns == ("v",)

    def test_ranking_orders_by_variance(self):
        data = np.column_stack([np.arange(4.0) * 2, np.full(4, 1.0), np.arange(4.0)])
        res = low_variance_filter(make(["big", "flat", "small"], data))
        assert res.ranking == {"big": 1, "small": 2, "flat": 3}

    def test_kept_set_invariant_to_column_order(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 5)) * np.array([0.0, 1.0, 0.01, 2.0, 0.5])
        data[:, 0] = 7.0
        names = ["a", "b", "c", "d", "e"]
        kept = set(low_variance_filter(make(names, data), 0.1).kept_columns)
        perm = [3, 0, 4, 1, 2]
        shuffled = make([names[i] for i in perm], data[:, perm])
        assert set(low_variance_filter(shuffled, 0.1).kept_columns) == kept

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            low_variance_filter(make(["a"], np.zeros((3, 1))), -0.1)


class TestCorrelationMatrix:
    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(5)
        t = make(["a", "b", "c"], rng.normal(size=(15, 3)))
        corr = correlation_matrix(t)
        assert np.all(np.diag(corr) == 1.0)

    def test_matches_corrcoef(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(40, 4))
            mine = correlation_matrix(make(["a", "b", "c", "d"], data))
            ref = np.corrcoef(data.T)
            assert np.abs(mine - ref).max() < 1e-10

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        corr = correlation_matrix(make(["a", "b"], rng.normal(size=(10, 2))))
        assert np.array_equal(corr, corr.T)

    def test_constant_column_correlates_zero(self):
        data = np.column_stack([np.full(6, 2.0), np.arange(6.0)])
        corr = correlation_matrix(make(["c", "v"], data))
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[0, 0] == 1.0
        # 30 copies of 0.1 (or of 0.3) have a mean that rounds away from the
        # value, so z-scoring alone leaves each a column of +-1s
        data = np.column_stack([np.full(30, 0.1), np.full(30, 0.3), np.arange(30.0)])
        assert np.array_equal(correlation_matrix(make(["a", "b", "v"], data)), np.eye(3))

    def test_exact_anticorrelation(self):
        x = np.arange(8.0)
        corr = correlation_matrix(make(["a", "b"], np.column_stack([x, -x])))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)


class TestHighCorrelation:
    def test_duplicate_dropped_earliest_kept(self):
        x = np.arange(10.0)
        t = make(["a", "b", "c"], np.column_stack([x, x, np.cos(x)]))
        res = high_correlation_filter(t, 0.95)
        assert res.kept_columns == ("a", "c")
        assert res.scores["b"] == pytest.approx(1.0, abs=1e-12)

    def test_dropping_can_rescue_later_columns(self):
        # corr(a,b) and corr(b,c) exceed 0.5 but corr(a,c) = 0, so dropping b
        # lets c survive
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2
        t = make(["a", "b", "c"], np.column_stack([u, (u + v) / np.sqrt(2), v]))
        assert high_correlation_filter(t, 0.5).kept_columns == ("a", "c")

    def test_kept_submatrix_within_threshold(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(60, 3))
            noisy = base[:, rng.integers(0, 3, 7)] + 0.15 * rng.normal(size=(60, 7))
            names = [f"f{i}" for i in range(10)]
            t = make(names, np.column_stack([base, noisy]))
            res = high_correlation_filter(t, 0.8)
            sub = correlation_matrix(t.select_columns(res.kept_columns))
            off = np.abs(sub - np.diag(np.diag(sub)))
            assert off.max() <= 0.8 + 1e-12

    def test_needs_two_columns(self):
        with pytest.raises(TooFewColumns):
            high_correlation_filter(make(["a"], np.zeros((4, 1))))

    def test_threshold_domain(self):
        t = make(["a", "b"], np.zeros((4, 2)))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                high_correlation_filter(t, bad)


class TestPca:
    def test_k_bounds(self):
        t = make(["a", "b"], np.zeros((5, 2)))
        for bad in (0, 3, -1):
            with pytest.raises(InvalidK):
                pca(t, bad)

    def test_components_orthonormal(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            t = make([f"f{i}" for i in range(7)], rng.normal(size=(30, 7)))
            res = pca(t, 5)
            gram = res.components @ res.components.T
            assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_rank_one_data_concentrates_variance(self):
        rng = np.random.default_rng(2)
        data = np.outer(rng.normal(size=25), rng.normal(size=6))
        res = pca(make([f"f{i}" for i in range(6)], data), 3)
        assert res.explained_variance_ratio[0] >= 1.0 - 1e-9

    def test_isotropic_data_splits_evenly(self):
        rng = np.random.default_rng(4)
        res = pca(make(["a", "b", "c"], rng.normal(size=(3000, 3))), 3)
        assert np.abs(res.explained_variance_ratio - 1.0 / 3.0).max() < 0.05

    def test_ratios_non_increasing_and_sum_to_one(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        res = pca(make([f"f{i}" for i in range(5)], data), 5)
        assert np.all(np.diff(res.explained_variance_ratio) <= 1e-12)
        assert res.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_component_variances_match_scores(self):
        rng = np.random.default_rng(8)
        res = pca(make(["a", "b", "c", "d"], rng.normal(size=(50, 4))), 3)
        got = res.transformed.rows.var(axis=0)
        assert np.abs(got - res.component_variances).max() < 1e-9

    def test_sign_convention_largest_loading_positive(self):
        rng = np.random.default_rng(10)
        res = pca(make([f"f{i}" for i in range(6)], rng.normal(size=(30, 6))), 4)
        for row in res.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(20, 4))
        t = make(["a", "b", "c", "d"], data)
        res = pca(t, 4)
        from voxfeat.mlpipe import impute_and_standardize

        z, _ = impute_and_standardize(t)
        recon = res.transformed.rows @ res.components
        assert np.abs(recon - z.rows).max() < 1e-8

    def test_names_and_metadata(self):
        rng = np.random.default_rng(13)
        t = make(["a", "b", "c"], rng.normal(size=(10, 3)), np.arange(10.0))
        res = pca(t, 2)
        assert res.transformed.column_names == ("pc1", "pc2")
        assert res.transformed.row_ids == t.row_ids
        assert np.array_equal(res.transformed.target, t.target)


class TestIca:
    def test_recovers_independent_uniform_sources(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(5000, 2))
        mixed = src @ np.array([[1.0, 0.4], [0.5, 1.0]])
        res = ica(make(["m1", "m2"], mixed), 2)
        assert res.converged
        rec = res.transformed.rows
        cc = np.abs(np.corrcoef(np.column_stack([src, rec]).T)[:2, 2:])
        # each true source must align with one recovered component
        assert cc.max(axis=1).min() > 0.95

    def test_unmixing_rows_orthonormal(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(-1, 1, size=(2000, 3))
        mixed = src @ rng.normal(size=(3, 3))
        res = ica(make(["a", "b", "c"], mixed), 3)
        gram = res.unmixing @ res.unmixing.T
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_single_component(self):
        rng = np.random.default_rng(2)
        res = ica(make(["a", "b"], rng.normal(size=(200, 2))), 1)
        assert res.transformed.column_names == ("ic1",)
        assert res.transformed.rows.shape == (200, 1)

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(-1, 1, size=(500, 2))
        res = ica(make(["a", "b"], src), 2, max_iter=1)
        assert not res.converged
        assert res.n_iter == 1

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        t = make(["a", "b"], rng.uniform(-1, 1, size=(800, 2)))
        r1 = ica(t, 2)
        r2 = ica(t, 2)
        assert np.array_equal(r1.transformed.rows, r2.transformed.rows)
        assert r1.n_iter == r2.n_iter

    def test_k_bounds(self):
        t = make(["a", "b"], np.zeros((5, 2)))
        with pytest.raises(InvalidK):
            ica(t, 3)
