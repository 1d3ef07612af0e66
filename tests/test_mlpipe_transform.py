"""Variance/correlation filters, the correlation matrix, PCA and ICA."""

import numpy as np
import pytest

from voxfeat.errors import ConvergenceFailure, InvalidK, TooFewColumns
from voxfeat.mlpipe.table import FeatureTable, impute_and_standardize
from voxfeat.mlpipe.transform import (
    correlation_matrix,
    distinct_columns,
    high_correlation_filter,
    ica,
    low_variance_filter,
    pca,
)
from voxfeat.mlpipe import transform as transform_module

from test_mlpipe_select import messy_table


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

    @pytest.mark.parametrize("value", [0.1, 1 / 3])
    def test_all_equal_column_has_variance_zero(self, value):
        # 30 copies of 0.1 measure a variance of ulps (np.var gives 7.7e-34)
        t = make(["c", "v"], np.column_stack([np.full(30, value), np.arange(30.0)]))
        res = low_variance_filter(t, 0.0)
        assert res.kept_columns == ("v",)
        assert res.scores["c"] == 0.0

    def test_constant_with_missing_cells_has_variance_zero(self):
        # the mean imputed into the NaN cells can differ from 0.1 by an ulp
        col = np.full(30, 0.1)
        col[[3, 17]] = np.nan
        t = make(["c", "v"], np.column_stack([col, np.arange(30.0)]))
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

    def test_wide_table_matches_corrcoef(self):
        # more columns than rows: the product still gives each pair's r
        data = np.random.default_rng(6).normal(size=(20, 60))
        corr = correlation_matrix(make([f"f{j}" for j in range(60)], data))
        assert np.abs(corr - np.corrcoef(data.T)).max() < 1e-12

    def test_symmetric_with_unit_diagonal_at_blas_scale(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(300, 200)) @ rng.normal(size=(200, 200))
        data[rng.random(data.shape) < 0.01] = np.nan
        corr = correlation_matrix(make([f"f{j}" for j in range(200)], data))
        assert np.array_equal(corr, corr.T)
        assert np.all(np.diag(corr) == 1.0)


def elementwise_correlation_matrix(tbl):
    """The per-column correlation_matrix the one product replaced: each
    column's r against the later columns as numpy's elementwise multiply
    and sum down the rows."""
    u = impute_and_standardize(tbl)[0].rows
    corr = np.empty((tbl.n_cols, tbl.n_cols))
    for j in range(tbl.n_cols):
        r = (u[:, j:] * u[:, j][:, None]).sum(axis=0) / max(tbl.n_rows, 1)
        corr[j:, j] = corr[j, j:] = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


class TestDistinctColumns:
    def test_copies_group_with_the_first(self):
        # the imputed cells and one more sit exactly at the mean, so flipping
        # the negated copy's sign makes its zeros -0.0
        x = np.arange(9.0)
        x[[2, 6]] = np.nan
        rng = np.random.default_rng(4)
        data = np.column_stack([rng.normal(size=9), -x, x, 2.0 * x, np.full(9, 0.1),
                                x + 1e-9 * rng.normal(size=9), np.full(9, 3.0)])
        u = impute_and_standardize(make(list("abcdefg"), data))[0].rows
        assert np.array_equal(u[:, 1] == 0, np.isin(np.arange(9), [2, 4, 6]))
        first, group = distinct_columns(u)
        assert first.tolist() == [0, 1, 4, 5]
        assert group.tolist() == [0, 1, 1, 1, 2, 3, 2]

    def test_no_rows(self):
        first, group = distinct_columns(np.zeros((0, 3)))
        assert first.tolist() == [0] and group.tolist() == [0, 0, 0]


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

    @pytest.mark.parametrize("seed", range(30, 34))
    def test_keeps_what_the_elementwise_matrix_kept(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        tables = [messy_table(rng, "float") for _ in range(12)]
        thresholds = rng.uniform(0.3, 0.99, len(tables))
        got = [high_correlation_filter(t, th) for t, th in zip(tables, thresholds)]
        monkeypatch.setattr(transform_module, "correlation_matrix",
                            elementwise_correlation_matrix)
        for tbl, th, res in zip(tables, thresholds, got):
            want = high_correlation_filter(tbl, th)
            assert res.kept_columns == want.kept_columns
            assert res.ranking == want.ranking
            np.testing.assert_allclose(list(res.scores.values()),
                                       list(want.scores.values()), rtol=0, atol=1e-12)

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
        from voxfeat.mlpipe.table import impute_and_standardize

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


def _aligned_change(w_new, w):
    """Largest entry change between two unmixing matrices, after flipping
    each row of w to the sign of w_new's (rows may flip between iterations)."""
    signs = np.sign(np.sum(w_new * w, axis=1))
    signs[signs == 0] = 1.0
    return float(np.max(np.abs(w_new - signs[:, None] * w)))


def _sym_decorrelate(w):
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def reference_ica(tbl, k, max_iter=500, tol=1e-6):
    """The FastICA loop as first written, one helper call per step: the
    whitening, stopping rules and divergence check ica keeps, returned as
    (unmixing, sources, n_iter, converged)."""
    z, _ = impute_and_standardize(tbl)
    u, s, vt = np.linalg.svd(z.rows, full_matrices=False)
    n = tbl.n_rows
    scale = np.where(s[:k] > 0, s[:k], 1.0)
    white = (z.rows @ vt[:k].T / scale[None, :] * np.sqrt(n)).T
    w = np.eye(k)
    w_before = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = w @ white
        g = np.tanh(y)
        g_prime = 1.0 - g ** 2
        w_new = (g @ white.T) / n - np.diag(g_prime.mean(axis=1)) @ w
        w_new = _sym_decorrelate(w_new)
        if not np.all(np.isfinite(w_new)):
            raise ConvergenceFailure(f"ICA diverged at iteration {iterations}")
        step = _aligned_change(w_new, w)
        converged = step < tol
        cycling = (w_before is not None and step > np.sqrt(tol)
                   and float(np.max(np.abs(w_new - w_before))) < tol)
        w_before, w = w, w_new
        if converged or cycling:
            break
    return w, (w @ white).T, iterations, converged


def gaussian_blocks(seed, n_rows=120, n_cols=24):
    """Blocks of 8 scaled columns sharing a Gaussian latent factor: no
    independent directions to find, so from k = 2 on ICA runs to its cap."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n_rows, n_cols // 8))
    x = 0.75 * np.repeat(latent, 8, axis=1) + 0.66 * rng.normal(size=(n_rows, n_cols))
    return make([f"f{j}" for j in range(n_cols)], x * rng.uniform(0.5, 20.0, n_cols))


def uniform_mixture():
    rng = np.random.default_rng(0)
    src = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(5000, 2))
    return src, make(["m1", "m2"], src @ np.array([[1.0, 0.4], [0.5, 1.0]]))


def gaussian_draw(seed):
    rng = np.random.default_rng(seed)
    return make([f"c{j}" for j in range(6)], rng.normal(size=(100, 6)))


def nan_table():
    """NaN cells, exact and negated copies, constants and an all-NaN column."""
    tbl = messy_table(np.random.default_rng(15), "float")
    assert np.isnan(tbl.rows).all(axis=0).sum() == 1
    return tbl


class TestIcaMatchesReference:
    """ica returns the reference loop's bits: unmixing, sources, n_iter and
    whether it converged."""

    def check(self, tbl, k):
        res = ica(tbl, k)
        unmixing, sources, n_iter, converged = reference_ica(tbl, k)
        assert res.unmixing.tobytes() == unmixing.tobytes()
        assert res.transformed.rows.tobytes() == sources.tobytes()
        assert (res.n_iter, res.converged) == (n_iter, converged)
        return res

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_gaussian_blocks_at_the_cap(self, k):
        res = self.check(gaussian_blocks(0), k)
        assert k == 1 or (res.n_iter, res.converged) == (500, False)

    def test_uniform_sources(self):
        assert self.check(uniform_mixture()[1], 2).converged

    def test_period_two_draw(self):
        assert self.check(gaussian_draw(14), 4).n_iter == 72

    def test_damped_draw(self):
        assert self.check(gaussian_draw(1), 4).n_iter == 38

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_nan_cells_and_all_nan_column(self, k):
        self.check(nan_table(), k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_divergence_raises_the_same_failure(self, bad, monkeypatch):
        # from its third call on, eigh returns non-finite eigenvectors
        eigh = np.linalg.eigh
        calls = []

        def failing_eigh(a):
            calls.append(1)
            vals, vecs = eigh(a)
            return vals, vecs * (bad if len(calls) >= 3 else 1.0)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        tbl = gaussian_blocks(0)
        messages = []
        for run in (ica, reference_ica):
            calls.clear()
            with pytest.raises(ConvergenceFailure) as err, np.errstate(invalid="ignore"):
                run(tbl, 5)
            messages.append(str(err.value))
        assert messages == ["ICA diverged at iteration 3"] * 2


class TestIca:
    def test_recovers_independent_uniform_sources(self):
        src, tbl = uniform_mixture()
        res = ica(tbl, 2)
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

    def test_period_two_cycle_stops_unconverged(self):
        # Gaussian data has no independent directions to find; from the
        # identity this draw settles into two alternating unmixing matrices
        t = gaussian_draw(14)
        res = ica(t, 4)
        assert not res.converged
        assert res.n_iter == 72
        two_back = ica(t, 4, max_iter=70).unmixing
        one_back = ica(t, 4, max_iter=71).unmixing
        assert _aligned_change(res.unmixing, two_back) < 1e-6
        assert _aligned_change(res.unmixing, one_back) > 1e-3

    def test_damped_oscillation_still_converges(self):
        # steps alternate in sign here too, but shrink: not a cycle
        t = gaussian_draw(1)
        res = ica(t, 4)
        assert res.converged
        assert res.n_iter == 38

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
