"""Supervised selection: ANOVA F, RFE, importance cutoff, MRMR, CV curve."""

import numpy as np
import pytest
import scipy.stats

from voxfeat.errors import DegenerateClasses, InvalidK, NotClassification
from voxfeat.mlpipe import (
    FeatureTable,
    anova_f_select,
    anova_f_values,
    cv_score_curve,
    impute_and_standardize,
    importance_select,
    is_classification,
    mrmr_rank,
    rfe_select,
)


def make(cols, data, target=None):
    data = np.asarray(data, dtype=np.float64)
    ids = tuple(f"r{i}" for i in range(data.shape[0]))
    return FeatureTable(tuple(cols), data, ids, target)


def two_class_labels(n0, n1):
    return np.array([0.0] * n0 + [1.0] * n1)


class TestAnovaF:
    def test_textbook_value(self):
        # two classes of 10 with means -0.5/+0.5 and sample variance 1 -> F = 5
        b = np.arange(10, dtype=np.float64)
        b = (b - b.mean()) / b.std(ddof=1)
        col = np.concatenate([b - 0.5, b + 0.5])
        t = make(["x"], col[:, None], two_class_labels(10, 10))
        assert anova_f_values(t)[0] == pytest.approx(5.0, abs=1e-9)

    def test_label_copy_scores_infinite(self):
        rng = np.random.default_rng(0)
        y = two_class_labels(10, 10)
        data = rng.normal(size=(20, 3))
        data[:, 0] = y
        t = make(["f0", "f1", "f2"], data, y)
        f = anova_f_values(t)
        assert np.isinf(f[0])
        assert np.all(np.isfinite(f[1:]))
        assert anova_f_select(t, 1).kept_columns == ("f0",)

    def test_constant_column_scores_zero(self):
        y = two_class_labels(5, 5)
        t = make(["c"], np.full((10, 1), 3.5), y)
        assert anova_f_values(t)[0] == 0.0

    def test_equals_squared_t_statistic(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n0 = int(rng.integers(5, 30))
            n1 = int(rng.integers(5, 30))
            x0 = rng.normal(size=n0)
            x1 = rng.normal(size=n1) + rng.uniform(-1, 1)
            col = np.concatenate([x0, x1])
            t = make(["x"], col[:, None], two_class_labels(n0, n1))
            f = anova_f_values(t)[0]
            sp2 = ((n0 - 1) * x0.var(ddof=1) + (n1 - 1) * x1.var(ddof=1)) / (n0 + n1 - 2)
            tstat = (x1.mean() - x0.mean()) / np.sqrt(sp2 * (1 / n0 + 1 / n1))
            assert f == pytest.approx(tstat ** 2, rel=1e-9)

    def test_matches_reference_three_classes(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(30, 4)) + rng.normal(size=(1, 4))
            y = np.repeat([0.0, 1.0, 2.0], 10)
            mine = anova_f_values(make([f"f{i}" for i in range(4)], data, y))
            ref = np.array([
                scipy.stats.f_oneway(data[:10, j], data[10:20, j], data[20:, j]).statistic
                for j in range(4)
            ])
            assert np.allclose(mine, ref, rtol=1e-9)

    def test_single_class_rejected(self):
        t = make(["a"], np.arange(4.0)[:, None], np.zeros(4))
        with pytest.raises(DegenerateClasses):
            anova_f_values(t)

    def test_singleton_class_rejected(self):
        t = make(["a"], np.arange(4.0)[:, None], np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateClasses):
            anova_f_values(t)

    def test_continuous_target_rejected(self):
        t = make(["a"], np.arange(4.0)[:, None], np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(NotClassification):
            anova_f_values(t)

    def test_missing_target_rejected(self):
        with pytest.raises(NotClassification):
            anova_f_values(make(["a"], np.zeros((4, 1))))

    def test_select_k_bounds(self):
        t = make(["a", "b"], np.arange(8.0).reshape(4, 2), two_class_labels(2, 2))
        for bad in (0, 3):
            with pytest.raises(InvalidK):
                anova_f_select(t, bad)

    def test_kept_set_invariant_to_column_order(self):
        rng = np.random.default_rng(1)
        y = two_class_labels(15, 15)
        data = rng.normal(size=(30, 5))
        data[:, 2] += y * 3.0
        data[:, 4] += y * 1.5
        names = [f"f{i}" for i in range(5)]
        kept = set(anova_f_select(make(names, data, y), 2).kept_columns)
        perm = [4, 2, 0, 3, 1]
        shuffled = make([names[i] for i in perm], data[:, perm], y)
        assert set(anova_f_select(shuffled, 2).kept_columns) == kept
        assert kept == {"f2", "f4"}


class TestRfe:
    def test_recovers_exact_support(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 10))
        y = x[:, 2] - x[:, 7]
        t = make([f"f{i}" for i in range(10)], x, y)
        res = rfe_select(t, 2)
        assert set(res.kept_columns) == {"f2", "f7"}
        assert sorted(res.ranking.values()) == list(range(1, 11))

    def test_k_equals_column_count_keeps_all(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        t = make([f"f{i}" for i in range(4)], x, x[:, 0])
        res = rfe_select(t, 4)
        assert set(res.kept_columns) == {"f0", "f1", "f2", "f3"}

    def test_single_winner_with_noise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 6))
        y = 3.0 * x[:, 1] + 0.1 * rng.normal(size=100)
        res = rfe_select(make([f"f{i}" for i in range(6)], x, y), 1)
        assert res.kept_columns == ("f1",)
        assert res.ranking["f1"] == 1

    def test_batched_elimination_on_wide_table(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 25))
        y = x[:, 3] + 2.0 * x[:, 11]
        t = make([f"f{i}" for i in range(25)], x, y)
        res = rfe_select(t, 5)
        assert len(res.kept_columns) == 5
        assert {"f3", "f11"} <= set(res.kept_columns)
        assert sorted(res.ranking.values()) == list(range(1, 26))

    def test_logistic_estimator(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        y = two_class_labels(30, 30)
        x[:, 0] += y * 6.0
        t = make([f"f{i}" for i in range(4)], x, y)
        res = rfe_select(t, 1, estimator="logistic")
        assert res.kept_columns == ("f0",)

    def test_k_bounds(self):
        t = make(["a", "b"], np.arange(8.0).reshape(4, 2), np.arange(4.0))
        for bad in (0, 3):
            with pytest.raises(InvalidK):
                rfe_select(t, bad)

    def test_unknown_estimator_rejected(self):
        t = make(["a", "b"], np.arange(8.0).reshape(4, 2), np.arange(4.0))
        with pytest.raises(ValueError):
            rfe_select(t, 1, estimator="forest")


class TestImportanceSelect:
    def test_noiseless_regression_keeps_only_signal(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 6))
        t = make([f"f{i}" for i in range(6)], x, x[:, 1] * 2.0)
        res = importance_select(t)
        assert res.kept_columns == ("f1",)
        assert res.ranking["f1"] == 1

    def test_zero_threshold_keeps_everything(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        t = make([f"f{i}" for i in range(4)], x, x[:, 0])
        res = importance_select(t, threshold=0.0)
        assert set(res.kept_columns) == {"f0", "f1", "f2", "f3"}

    def test_uninformative_target_selects_nothing_at_mean(self):
        # constant non-integer target: every lasso coefficient is zero and
        # nothing clears a strict mean cutoff
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        t = make(["a", "b", "c"], x, np.full(20, 0.5))
        assert importance_select(t).kept_columns == ()

    def test_classification_uses_logistic_weights(self):
        rng = np.random.default_rng(10)
        y = two_class_labels(25, 25)
        x = rng.normal(size=(50, 4))
        x[:, 2] += y * 5.0
        t = make([f"f{i}" for i in range(4)], x, y)
        res = importance_select(t)
        assert "f2" in res.kept_columns
        assert res.ranking["f2"] == 1

    def test_negative_threshold_rejected(self):
        t = make(["a"], np.arange(4.0)[:, None], np.arange(4.0))
        with pytest.raises(ValueError):
            importance_select(t, threshold=-0.5)


def oracle_mrmr(x, y, k):
    """Greedy reference that recomputes redundancy from scratch each step."""

    def corr(a, b):
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            return 0.0
        r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
        return max(-1.0, min(1.0, r))

    p = x.shape[1]
    rel = np.array([abs(corr(x[:, j], y)) for j in range(p)])
    chosen: list[int] = []
    for _ in range(k):
        best, best_val = -1, -np.inf
        for j in range(p):
            if j in chosen:
                continue
            red = np.mean([abs(corr(x[:, j], x[:, s])) for s in chosen]) if chosen else 0.0
            val = rel[j] - red
            if val > best_val:
                best, best_val = j, val
        chosen.append(best)
    return chosen


class TestMrmr:
    def test_redundant_copy_skipped_for_novel_signal(self):
        # x_copy tracks x closely but with diluted relevance, so the second
        # pick jumps to the independent signal z instead
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        z = rng.normal(size=50)
        data = np.column_stack([x, x + 0.5 * rng.normal(size=50), z])
        y = 0.8 * x + 0.6 * z
        t = make(["x", "x_copy", "z"], data, y)
        assert mrmr_rank(t, 2).kept_columns == ("x", "z")

    def test_matches_greedy_reference(self):
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            x = rng.normal(size=(40, 6))
            y = x @ rng.normal(size=6) + rng.normal(size=40)
            t = make([f"f{i}" for i in range(6)], x, y)
            got = [t.column_names.index(n) for n in mrmr_rank(t, 4).kept_columns]
            assert got == oracle_mrmr(x, y, 4)

    def test_first_pick_is_highest_relevance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 3))
        y = x[:, 2] + 0.1 * rng.normal(size=60)
        t = make(["a", "b", "c"], x, y)
        assert mrmr_rank(t, 1).kept_columns == ("c",)

    def test_exact_tie_takes_earliest_column(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=50)
        data = np.column_stack([x, x])
        t = make(["f0", "f1"], data, x + rng.normal(size=50))
        assert mrmr_rank(t, 1).kept_columns == ("f0",)

    def test_multiclass_relevance_via_one_vs_rest(self):
        rng = np.random.default_rng(14)
        y = np.repeat([0.0, 1.0, 2.0], 20)
        indicator = (y == 2.0).astype(np.float64)
        data = np.column_stack([rng.normal(size=60), indicator])
        t = make(["noise", "ind"], data, y)
        assert mrmr_rank(t, 1).kept_columns == ("ind",)

    def test_k_bounds(self):
        t = make(["a", "b"], np.arange(8.0).reshape(4, 2), np.arange(4.0))
        for bad in (0, 3):
            with pytest.raises(InvalidK):
                mrmr_rank(t, bad)

    def test_ranking_is_selection_order(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=5)
        res = mrmr_rank(make([f"f{i}" for i in range(5)], x, y), 3)
        assert [res.ranking[n] for n in res.kept_columns] == [1, 2, 3]


def reference_mrmr(tbl, k):
    """The per-pair mrmr_rank the shared Pearson kernel replaced: one Python
    call per (column, column) correlation on the z-scored table."""

    def safe_corr(a, b):
        sa = a.std()
        sb = b.std()
        if sa == 0 or sb == 0:
            return 0.0
        r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
        return float(np.clip(r, -1.0, 1.0))

    z, _ = impute_and_standardize(tbl)
    x = z.rows
    y = tbl.target
    if is_classification(tbl) and np.unique(y).size > 2:
        rel = np.zeros(x.shape[1])
        for cls in np.unique(y):
            ind = (y == cls).astype(np.float64)
            rel = np.maximum(rel, np.abs([safe_corr(x[:, j], ind) for j in range(x.shape[1])]))
    else:
        rel = np.abs([safe_corr(x[:, j], y) for j in range(x.shape[1])])
    n_cols = tbl.n_cols
    selected = []
    scores = []
    redundancy_sum = np.zeros(n_cols)
    available = np.ones(n_cols, dtype=bool)
    for _ in range(k):
        if selected:
            criterion = rel - redundancy_sum / len(selected)
        else:
            criterion = rel.copy()
        criterion = np.where(available, criterion, -np.inf)
        pick = int(np.argmax(criterion))
        selected.append(pick)
        available[pick] = False
        scores.append(float(criterion[pick]))
        redundancy_sum += np.abs([safe_corr(x[:, j], x[:, pick]) for j in range(n_cols)])
    return [tbl.column_names[j] for j in selected], scores


def messy_table(rng, target):
    """Scaled normal columns with NaN cells, then exact, negated and doubled
    copies (NaN cells included), constants (0.1 repeated often has a mean
    that rounds away from 0.1; one constant has NaN cells) and an all-NaN
    column, in shuffled order."""
    n = int(rng.integers(12, 60))
    base = rng.normal(size=(n, int(rng.integers(3, 12)))) * rng.uniform(0.5, 20.0)
    base[rng.random(base.shape) < 0.05] = np.nan
    copies = rng.integers(0, base.shape[1], 3)
    const = np.full((n, 4), [0.1, 3.0, -7.25, np.nan])
    const[rng.random(n) < 0.2, 2] = np.nan
    x = np.column_stack([base, base[:, copies[0]], -base[:, copies[1]],
                         2.0 * base[:, copies[2]], const])
    x = x[:, rng.permutation(x.shape[1])]
    filled = np.where(np.isnan(x), 0.0, x)
    if target == "binary":
        y = rng.permutation(np.arange(n) % 2).astype(np.float64)
    elif target == "3-class":
        y = rng.permutation(np.arange(n) % 3).astype(np.float64)
    elif target == "float":
        y = filled @ rng.normal(size=x.shape[1]) + rng.normal(size=n)
    else:
        y = np.full(n, 2.0)
    return make([f"c{j}" for j in range(x.shape[1])], x, y)


TARGETS = ("binary", "3-class", "float", "constant")


class TestMrmrMatchesReference:
    """The Pearson kernel picks what the per-pair loop picked, in order."""

    def check(self, tbl, k):
        got = mrmr_rank(tbl, k)
        want_kept, want_scores = reference_mrmr(tbl, k)
        assert list(got.kept_columns) == want_kept
        got_scores = [got.scores[name] for name in got.kept_columns]
        np.testing.assert_allclose(got_scores, want_scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed, target", enumerate(TARGETS))
    def test_messy_tables(self, seed, target):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            tbl = messy_table(rng, target)
            self.check(tbl, int(rng.integers(1, tbl.n_cols + 1)))

    @pytest.mark.parametrize("seed, target", enumerate(TARGETS, start=10))
    def test_k_equals_column_count(self, seed, target):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            tbl = messy_table(rng, target)
            self.check(tbl, tbl.n_cols)

    def test_duplicate_ties_resolve_to_the_earliest_column(self):
        # exact copies of c3, far apart and up to the last column
        rng = np.random.default_rng(20)
        x = rng.normal(size=(40, 33))
        x[:, [7, 30, 32]] = x[:, [3, 3, 3]]
        tbl = make([f"c{j}" for j in range(33)], x, x[:, 3] + rng.normal(size=40))
        self.check(tbl, 33)
        assert mrmr_rank(tbl, 1).kept_columns == ("c3",)


class TestCvCurve:
    def separable_table(self, n_per=20, seed=16):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal(size=(n_per, 4)),
                       rng.normal(size=(n_per, 4)) + 8.0])
        y = two_class_labels(n_per, n_per)
        return make([f"f{i}" for i in range(4)], x, y)

    def test_separable_classes_score_one(self):
        curve = cv_score_curve(self.separable_table(), anova_f_select,
                               "logistic", [1, 2, 4], 4)
        assert [c.k for c in curve] == [1, 2, 4]
        for point in curve:
            assert point.mean_score == 1.0
            assert point.std_score == 0.0

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60).astype(np.float64)
        t = make([f"f{i}" for i in range(5)], x, y)
        curve = cv_score_curve(t, anova_f_select, "logistic", [2], 5)
        assert 0.2 <= curve[0].mean_score <= 0.8

    def test_regression_curve_improves_with_signal(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(80, 5))
        y = x @ np.array([2.0, -1.0, 0.5, 0.0, 0.0]) + 0.05 * rng.normal(size=80)
        t = make([f"f{i}" for i in range(5)], x, y)
        curve = cv_score_curve(t, rfe_select, "ols", [3], 5)
        assert curve[0].mean_score > 0.99

    def test_selector_never_sees_validation_rows(self):
        t = self.separable_table()
        folds = 4
        seen: list[set] = []

        def spy(table, k):
            seen.append(set(table.row_ids))
            return anova_f_select(table, k)

        cv_score_curve(t, spy, "logistic", [2], folds)
        assert len(seen) == folds
        all_ids = set(t.row_ids)
        for ids in seen:
            assert len(ids) < len(all_ids)
        # each row is held out exactly once across the fold fits
        for rid in all_ids:
            assert sum(rid not in ids for ids in seen) == 1

    def test_fold_count_validation(self):
        t = self.separable_table()
        with pytest.raises(ValueError):
            cv_score_curve(t, anova_f_select, "logistic", [1], 1)

    def test_too_many_folds_for_rows(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(6, 2))
        y = two_class_labels(3, 3)
        t = make(["a", "b"], x, y)
        with pytest.raises(ValueError):
            cv_score_curve(t, anova_f_select, "logistic", [1], 5)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            cv_score_curve(self.separable_table(), anova_f_select, "svm", [1], 3)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(40, 4))
        y = x @ np.array([1.0, 0.5, 0.0, 0.0]) + 0.2 * rng.normal(size=40)
        t = make([f"f{i}" for i in range(4)], x, y)
        a = cv_score_curve(t, mrmr_rank, "ols", [2], 4, seed=5)
        b = cv_score_curve(t, mrmr_rank, "ols", [2], 4, seed=5)
        assert a == b

    def test_k_larger_than_columns_is_clamped(self):
        curve = cv_score_curve(self.separable_table(), anova_f_select,
                               "logistic", [10], 4)
        assert curve[0].mean_score == 1.0
