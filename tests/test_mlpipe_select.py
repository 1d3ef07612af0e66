"""Supervised selection: ANOVA F, RFE, importance cutoff, MRMR, CV curve."""

import numpy as np
import pytest
import scipy.stats

from voxfeat.errors import DegenerateClasses, EmptyFold, InvalidK, NotClassification
from voxfeat.mlpipe.model import accuracy_score, fit_lasso, fit_logistic, fit_ols, r2_score
from voxfeat.mlpipe.select import (
    CurvePoint,
    _fold_indices,
    anova_f_select,
    anova_f_values,
    cv_score_curve,
    importance_select,
    mrmr_rank,
    ranked_prefixes,
    rfe_path,
    rfe_select,
)
from voxfeat.mlpipe.table import FeatureTable, impute_and_standardize, is_classification
from voxfeat.mlpipe.transform import (
    SelectionResult,
    distinct_columns,
    high_correlation_filter,
    low_variance_filter,
    pearson,
)
from voxfeat.mlpipe import select as select_module
from voxfeat.mlpipe import table as table_module
from voxfeat.analyze import _SELECTORS


def importance_topk(tbl, k):
    """The per-k reference for importance: rank every column by model
    importance and keep the k best."""
    full = importance_select(tbl)
    order = sorted(full.ranking, key=full.ranking.get)
    return SelectionResult(tuple(order[:k]), full.ranking, full.scores)


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

    def test_regression_f_equals_anova_f_on_two_classes(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n0, n1 = (int(v) for v in rng.integers(3, 40, 2))
            y = two_class_labels(n0, n1)
            data = rng.normal(size=(n0 + n1, 4)) + 0.7 * y[:, None] * rng.normal(size=4)
            names = [f"f{i}" for i in range(4)]
            ids = tuple(f"r{i}" for i in range(n0 + n1))
            anova = anova_f_values(FeatureTable(names, data, ids, y, classification=True))
            regression = anova_f_values(FeatureTable(names, data, ids, y, classification=False))
            assert np.allclose(regression, anova, rtol=1e-12, atol=0)

    def test_regression_f_matches_pearsonr(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            data = rng.normal(size=(n, 3))
            y = data @ rng.normal(size=3) + rng.normal(size=n)
            t = make(["a", "b", "c"], data, y)
            assert not is_classification(t)
            r = np.array([scipy.stats.pearsonr(data[:, j], y).statistic for j in range(3)])
            expected = r ** 2 * (n - 2) / (1 - r ** 2)
            assert np.allclose(anova_f_values(t), expected, rtol=1e-12, atol=0)

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

    def test_k_bounds(self):
        t = make(["a", "b"], np.arange(8.0).reshape(4, 2), np.arange(4.0))
        for bad in (0, 3):
            with pytest.raises(InvalidK):
                rfe_select(t, bad)


class TestImportanceSelect:
    def test_noiseless_regression_keeps_only_signal(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 6))
        t = make([f"f{i}" for i in range(6)], x, x[:, 1] * 2.0)
        res = importance_select(t, threshold=0.5)
        assert res.kept_columns == ("f1",)
        assert res.ranking["f1"] == 1
        assert all(res.scores[f"f{i}"] == 0.0 for i in (0, 2, 3, 4, 5))

    def test_zero_threshold_keeps_everything(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        t = make([f"f{i}" for i in range(4)], x, x[:, 0])
        res = importance_select(t, threshold=0.0)
        assert set(res.kept_columns) == {"f0", "f1", "f2", "f3"}

    def test_uninformative_target_scores_zero(self):
        # constant non-integer target: every lasso coefficient is zero, so
        # any positive threshold keeps nothing
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        t = make(["a", "b", "c"], x, np.full(20, 0.5))
        assert importance_select(t).scores == {"a": 0.0, "b": 0.0, "c": 0.0}
        assert importance_select(t, threshold=1e-12).kept_columns == ()

    def test_exact_ties_rank_in_column_order(self):
        # on a noiseless two-feature target the lasso zeroes all but two of
        # 40 coefficients
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 40))
        t = make([f"f{i:02d}" for i in range(40)], x, 3.0 * x[:, 30] + 2.0 * x[:, 7])
        res = importance_select(t)
        order = sorted(res.ranking, key=res.ranking.get)
        assert order[:2] == ["f30", "f07"]
        assert order[2:] == [f"f{i:02d}" for i in range(40) if i not in (7, 30)]
        assert all(res.scores[name] == 0.0 for name in order[2:])

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


class TestRegressionOnIntegerTarget:
    """An integer score (0-30, like MMSE) in a table marked as regression."""

    def table(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(60, 5))
        y = np.clip(np.round(15 + 4 * x[:, 0] - 3 * x[:, 1] + rng.normal(size=60)), 0, 30)
        ids = tuple(f"r{i}" for i in range(60))
        return FeatureTable(tuple(f"f{i}" for i in range(5)), x, ids, y, classification=False)

    def test_folds_are_unstratified(self):
        perm = np.random.default_rng(3).permutation(60)
        expected = [np.sort(chunk) for chunk in np.array_split(perm, 5)]
        got = _fold_indices(self.table(), 5, 3)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_importance_is_lasso(self):
        t = self.table()
        z, _ = impute_and_standardize(t)
        expected = fit_lasso(z.rows, t.target, alpha=0.01).importance()
        assert list(importance_select(t).scores.values()) == expected.tolist()

    def test_mrmr_relevance_is_abs_pearson(self):
        t = self.table()
        r = [abs(scipy.stats.pearsonr(t.rows[:, j], t.target).statistic) for j in range(5)]
        res = mrmr_rank(t, 1)
        assert res.kept_columns == (t.column_names[int(np.argmax(r))],)
        assert res.scores[res.kept_columns[0]] == pytest.approx(max(r), rel=1e-12)

    def test_anova_f_needs_the_regression_task(self):
        # as classes, the score's values with one row each defeat the ANOVA
        t = self.table()
        as_classes = FeatureTable(t.column_names, t.rows, t.row_ids, t.target)
        assert is_classification(as_classes)
        with pytest.raises(DegenerateClasses):
            anova_f_values(as_classes)
        assert np.all(np.isfinite(anova_f_values(t)))


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


def copies_table(target, n_cols, seed=0):
    """300-row normal table whose most relevant column (88, with 5 % NaN
    cells) has a negated copy at 0, a doubled copy at 131 and an exact copy
    in the last column, NaN cells included. At this size a BLAS product
    over all the columns rounds equal columns differently by position;
    OpenBLAS's Haswell matrix-vector kernel does so when the column count
    is not a multiple of 4, hence several widths."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(300, n_cols))
    x[rng.random(x.shape) < 0.01] = np.nan
    source = x[:, 88]
    source[rng.random(300) < 0.05] = np.nan
    x[:, 0], x[:, 131], x[:, -1] = -source, 2.0 * source, source
    signal = 3.0 * np.where(np.isnan(source), 0.0, source) + rng.normal(size=300)
    if target == "float":
        y = signal
    else:
        edges = np.quantile(signal, [0.5] if target == "binary" else [1 / 3, 2 / 3])
        y = np.searchsorted(edges, signal).astype(np.float64)
    return make([f"c{j}" for j in range(n_cols)], x, y)


WIDTHS = [197, 198, 199, 200]


class TestCopiesTieAtBlasScale:
    """Exact, negated and doubled copies tie bit for bit in MRMR and the
    regression F, and the earliest copy wins."""

    @pytest.mark.parametrize("n_cols", WIDTHS)
    @pytest.mark.parametrize("target", ["binary", "3-class", "float"])
    def test_mrmr_scores_copies_equally(self, target, n_cols, monkeypatch):
        tbl = copies_table(target, n_cols)
        copies = [0, 88, 131, n_cols - 1]
        calls = []
        groups = []

        def pearson_spy(u, t):
            calls.append(pearson(u, t))
            return calls[-1]

        def distinct_spy(u):
            first, group = distinct_columns(u)
            groups.append(group)
            return first, group

        monkeypatch.setattr(select_module, "pearson", pearson_spy)
        monkeypatch.setattr(select_module, "distinct_columns", distinct_spy)
        res = mrmr_rank(tbl, n_cols)
        (group,) = groups
        relevance = np.abs(calls[0]).max(axis=1)[group]
        assert np.unique(relevance[copies]).size == 1
        for redundancy in calls[1:]:
            assert np.unique(np.abs(redundancy)[group][copies]).size == 1
        # equal at every step, so the copies are picked in column order
        ranks = [res.ranking[f"c{j}"] for j in copies]
        assert ranks[0] == 1 and ranks == sorted(ranks)

    @pytest.mark.parametrize("n_cols", WIDTHS)
    def test_regression_f_equal_across_copies(self, n_cols):
        tbl = copies_table("float", n_cols)
        f = anova_f_values(tbl)
        assert np.unique(f[[0, 88, 131, n_cols - 1]]).size == 1
        assert anova_f_select(tbl, 1).kept_columns == ("c0",)

    @pytest.mark.parametrize("n_cols", WIDTHS)
    @pytest.mark.parametrize("target", ["binary", "float"])
    def test_earliest_copy_ranks_first_in_any_order(self, target, n_cols):
        # moving the copies changes their positions in every product; the
        # earliest still ranks first
        tbl = copies_table(target, n_cols, seed=1)
        copies = [n_cols - 1, 131, 88, 0]
        perm = np.r_[copies, np.setdiff1d(np.arange(n_cols), copies)]
        moved = tbl.select_columns(tuple(tbl.column_names[j] for j in perm))
        assert mrmr_rank(tbl, 1).kept_columns == ("c0",)
        assert mrmr_rank(moved, 1).kept_columns == (f"c{n_cols - 1}",)


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
        with pytest.raises(EmptyFold, match="5 folds leave an empty fold for 6 rows"):
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


def reference_curve(tbl, selector, estimator, k_values, folds, seed=0):
    """The former cv_score_curve: one selector run per (k, fold)."""
    y_all = tbl.target
    fold_idx = _fold_indices(tbl, folds, seed)
    curve = []
    for k in k_values:
        fold_scores = []
        for f, val_idx in enumerate(fold_idx):
            train_idx = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            train = tbl.select_rows(train_idx)
            val = tbl.select_rows(val_idx)
            chosen = selector(train, min(k, train.n_cols)).kept_columns
            train_rows = train.select_columns(chosen).rows
            params = table_module.fit_columns(train_rows)
            train_z = table_module.standardize_columns(train_rows, params)
            val_z = table_module.standardize_columns(val.select_columns(chosen).rows, params)
            y_train, y_val = y_all[train_idx], y_all[val_idx]
            if estimator == "logistic":
                model = fit_logistic(train_z, y_train.astype(np.int64))
                score = accuracy_score(y_val.astype(np.int64), model.predict(val_z))
            else:
                model = fit_ols(train_z, y_train)
                score = r2_score(y_val, model.predict(val_z))
            fold_scores.append(score)
        arr = np.asarray(fold_scores)
        curve.append(CurvePoint(int(k), float(arr.mean()), float(arr.std())))
    return curve


class TestCurveSelectsOncePerFold:
    """A declared-nested selector runs once per fold; the curve is the one
    the per-(k, fold) loop gives."""

    @staticmethod
    def counted(selector):
        calls = []

        def run(table, k):
            calls.append(k)
            return selector(table, k)
        return run, calls

    @pytest.mark.parametrize("seed, target", enumerate(("binary", "3-class", "float"), start=40))
    def test_nested_selectors_match_reference(self, seed, target):
        rankings = {"anova_f": anova_f_select, "mrmr": mrmr_rank, "importance": importance_topk}
        assert sorted(_SELECTORS) == sorted(rankings) + ["rfe"]
        estimator = "ols" if target == "float" else "logistic"
        rng = np.random.default_rng(seed)
        for _ in range(4):
            tbl = messy_table(rng, target)
            folds = int(rng.integers(2, 5))
            k_values = [int(k) for k in rng.integers(1, tbl.n_cols + 3, rng.integers(1, 6))]
            for name, fn in rankings.items():
                if name == "anova_f" and target == "float":
                    continue
                run, calls = self.counted(fn)
                got = cv_score_curve(tbl, None, estimator, k_values, folds, seed=3,
                                     select_ks=ranked_prefixes(run))
                assert got == reference_curve(tbl, fn, estimator, k_values, folds, seed=3), name
                assert len(calls) == folds
                assert calls == [min(max(k_values), tbl.n_cols)] * folds
                assert cv_score_curve(tbl, None, estimator, k_values, folds, seed=3,
                                      select_ks=_SELECTORS[name]) == got, name

    def test_undeclared_and_rfe_run_per_k_and_fold(self):
        rng = np.random.default_rng(44)
        tbl = messy_table(rng, "float")
        k_values, folds = [1, 3, 2, 50], 3
        for selector in (rfe_select, mrmr_rank):
            run, calls = self.counted(selector)
            got = cv_score_curve(tbl, run, "ols", k_values, folds, seed=1)
            assert len(calls) == len(k_values) * folds
            assert got == reference_curve(tbl, selector, "ols", k_values, folds, seed=1)

    def test_k_below_one_rejected(self):
        tbl = messy_table(np.random.default_rng(45), "binary")
        with pytest.raises(InvalidK):
            cv_score_curve(tbl, None, "logistic", [0, 2], 3, select_ks=_SELECTORS["anova_f"])


class TestCurveStandardizesEachFoldOnce:
    """Scoring each k on column slices of a fold standardized once gives
    exactly the curve of standardizing each (k, fold)'s chosen columns, and
    the curve and the selector share that one standardization."""

    @pytest.mark.parametrize("seed, target", enumerate(("binary", "3-class", "float"), start=60))
    def test_matches_reference_on_messy_tables(self, seed, target, monkeypatch):
        fits = []
        fit_columns = table_module.fit_columns
        width = []

        def counted_fit(rows):
            if rows.shape[1] == width[0]:  # a feature table's fit, not a target's
                fits.append(rows.shape[0])
            return fit_columns(rows)
        # every standardization, the curve's and each selector's, fits its
        # parameters through the table module's fit_columns
        monkeypatch.setattr(table_module, "fit_columns", counted_fit)
        selectors = {"anova_f": anova_f_select, "mrmr": mrmr_rank,
                     "importance": importance_topk, "rfe": rfe_select}
        if target == "float":
            del selectors["anova_f"]
        estimator = "ols" if target == "float" else "logistic"
        rng = np.random.default_rng(seed)
        for _ in range(2):
            # 5 % NaN cells, copies, constant columns and an all-NaN column
            tbl = messy_table(rng, target)
            width[:] = [tbl.n_cols]
            folds = int(rng.integers(2, 5))
            k_values = [1, tbl.n_cols + 2] + [int(k) for k in rng.integers(1, tbl.n_cols, 3)]
            train_rows = sorted(tbl.n_rows - idx.size for idx in _fold_indices(tbl, folds, 5))
            for name, fn in selectors.items():
                want = reference_curve(tbl, fn, estimator, k_values, folds, seed=5)
                for select_ks, selector in ((_SELECTORS[name], None), (None, fn)):
                    fits.clear()
                    got = cv_score_curve(tbl, selector, estimator, k_values, folds, seed=5,
                                         select_ks=select_ks)
                    assert got == want, name
                    # one fit per fold's training rows, selector included
                    assert sorted(fits) == train_rows, name


def lstsq_importance(z, y, cols):
    """|OLS coefficients| of y on z[:, cols] by minimum-norm lstsq."""
    return fit_ols(z[:, cols], y).importance()


def gram_importance(z, y, cols):
    """The fit as rfe_path makes it: select._ols_importance on the Gram
    matrix of z and an intercept."""
    design = np.column_stack([z, np.ones(z.shape[0])])
    return select_module._ols_importance(z, y, design.T @ design, design.T @ y,
                                         np.asarray(cols, dtype=np.intp))


def reference_rfe(tbl, k, importance=lstsq_importance):
    """The former rfe_select: one elimination walk per k, each fit made by
    importance(standardized rows, target, columns)."""
    y = tbl.target
    z, _ = impute_and_standardize(tbl)
    remaining = list(range(tbl.n_cols))
    batches = []
    while len(remaining) > k:
        imp = importance(z.rows, y, remaining)
        step = min(max(1, len(remaining) // 10), len(remaining) - k)
        order = np.argsort(imp, kind="stable")[:step]
        batches.append([(remaining[i], float(imp[i])) for i in sorted(order, key=lambda i: imp[i])])
        drop = {remaining[i] for i in order}
        remaining = [j for j in remaining if j not in drop]
    final_imp = importance(z.rows, y, remaining)
    survivor_order = np.argsort(-final_imp, kind="stable")
    kept = tuple(tbl.column_names[remaining[i]] for i in survivor_order)
    ranking, scores = {}, {}
    for r, i in enumerate(survivor_order):
        name = tbl.column_names[remaining[i]]
        ranking[name] = r + 1
        scores[name] = float(final_imp[i])
    rank = k + 1
    for batch in reversed(batches):
        for col, imp_val in sorted(batch, key=lambda t: -t[1]):
            ranking[tbl.column_names[col]] = rank
            scores[tbl.column_names[col]] = imp_val
            rank += 1
    return SelectionResult(kept, ranking, scores)


def path_states(n_cols, k_min):
    """Column counts the unclamped elimination visits on its way to k_min."""
    states = [n_cols]
    while states[-1] - max(1, states[-1] // 10) >= k_min:
        states.append(states[-1] - max(1, states[-1] // 10))
    return states


def rfe_table(rng, target):
    """messy_table plus two near-copies (relative noise 1e-9) of its columns
    and 15-40 normal columns with NaN cells, wide enough that the elimination
    steps by more than one column at first."""
    tbl = messy_table(rng, target)
    src = rng.integers(0, tbl.n_cols, 2)
    near = tbl.rows[:, src] * (1.0 + 1e-9 * rng.normal(size=(tbl.n_rows, 2)))
    wide = rng.normal(size=(tbl.n_rows, int(rng.integers(15, 41))))
    wide[rng.random(wide.shape) < 0.05] = np.nan
    rows = np.column_stack([tbl.rows, near, wide])
    names = tbl.column_names + ("near0", "near1") + tuple(f"w{j}" for j in range(wide.shape[1]))
    return make(names, rows, tbl.target)


def path_ks(rng, n_cols):
    """Random ks, unsorted and with repeats, plus all columns and one k on
    and one off the unclamped path."""
    ks = [int(k) for k in rng.integers(1, n_cols + 1, 4)]
    on = path_states(n_cols, 1)
    off = sorted(set(range(1, n_cols + 1)) - set(on))
    ks += [n_cols, int(rng.choice(on[1:])), int(rng.choice(off)), ks[0]]
    return [ks[i] for i in rng.permutation(len(ks))]


class TestRfePath:
    """One elimination path per table gives every k what its own walk gives."""

    @pytest.mark.parametrize("seed, target", [(50, "float"), (51, "binary")])
    def test_matches_rfe_select_and_reference(self, seed, target):
        """Bit for bit what a walk per k gives when it makes each fit as the
        path does, and the kept columns and ranking of a walk that fits by
        lstsq. The Gram solves round differently from lstsq; how far they
        may differ is test_gram_solves_agree_with_lstsq's bound."""
        rng = np.random.default_rng(seed)
        for _ in range(3):
            tbl = rfe_table(rng, target)
            ks = path_ks(rng, tbl.n_cols)
            got = rfe_path(tbl, ks)
            assert sorted(got) == sorted(set(ks))
            for k in ks:
                assert got[k] == reference_rfe(tbl, k, gram_importance), k
                lstsq = reference_rfe(tbl, k)
                assert got[k].kept_columns == lstsq.kept_columns, k
                assert got[k].ranking == lstsq.ranking, k
                assert rfe_select(tbl, k) == got[k], k
                assert sorted(lstsq.ranking.values()) == list(range(1, tbl.n_cols + 1))

    def test_gram_solves_agree_with_lstsq(self, monkeypatch):
        """Every fit that the Cholesky check accepts solves the normal
        equations, whose forward error grows with the condition number of the
        sub-Gram matrix G (it squares the design's): over every fit that
        rfe_path makes at every k on rfe_table seeds 0-49, both targets,
        ||b_gram - b_lstsq||_2 <= C kappa_2(G) eps ||b_lstsq||_2 with C = 100,
        coefficients and intercept together. The largest ratio to
        kappa_2(G) eps is 6.8 over these seeds and 15.6 over seeds 0-299
        (seed 53, binary), with numpy 2.4.6 on OpenBLAS; a 1e-12 relative
        bound on each coefficient fails 17 of those 2,102 fits."""
        fits = []
        fit = select_module._ols_importance

        def recording_fit(rows, y, gram, rhs, cols):
            fits.append((rows, y, gram, rhs, cols))
            return fit(rows, y, gram, rhs, cols)

        monkeypatch.setattr(select_module, "_ols_importance", recording_fit)
        accepted = 0
        for seed in range(50):
            for target in ("float", "binary"):
                tbl = rfe_table(np.random.default_rng(seed), target)
                fits.clear()
                rfe_path(tbl, list(range(1, tbl.n_cols + 1)))
                for rows, y, gram, rhs, cols in fits:
                    idx = np.append(cols, gram.shape[0] - 1)
                    sub = gram[np.ix_(idx, idx)]
                    if idx.size > rows.shape[0] or not select_module._well_conditioned(sub):
                        continue
                    accepted += 1
                    gram_beta = np.linalg.solve(sub, rhs[idx])
                    design = np.column_stack([rows[:, cols], np.ones(rows.shape[0])])
                    lstsq_beta = np.linalg.lstsq(design, y, rcond=None)[0]
                    bound = 100 * np.linalg.cond(sub) * np.finfo(np.float64).eps
                    assert (np.linalg.norm(gram_beta - lstsq_beta)
                            <= bound * np.linalg.norm(lstsq_beta)), (seed, target, cols.size)
        assert accepted > 300  # 343 with numpy 2.4.6 on OpenBLAS

    @pytest.fixture
    def ols_fits(self, monkeypatch):
        """Column count of every RFE fit."""
        fits = []
        fit = select_module._ols_importance

        def counting_fit(rows, y, gram, rhs, cols):
            fits.append(cols.size)
            return fit(rows, y, gram, rhs, cols)

        monkeypatch.setattr(select_module, "_ols_importance", counting_fit)
        return fits

    def test_fits_path_once_plus_one_per_k_off_it(self, ols_fits):
        fits = ols_fits
        rng = np.random.default_rng(54)
        for _ in range(5):
            tbl = rfe_table(rng, "float")
            ks = path_ks(rng, tbl.n_cols)
            fits.clear()
            rfe_path(tbl, ks)
            on = path_states(tbl.n_cols, min(ks))
            assert fits[:1] == [tbl.n_cols]
            assert len(fits) == len(on) + len(set(ks) - set(on))

    def test_score_curve_fits_one_path_per_fold(self, ols_fits):
        fits = ols_fits
        tbl = rfe_table(np.random.default_rng(55), "binary")
        ks, folds = [1, 2, 5, 10], 4
        cv_score_curve(tbl, None, "logistic", ks, folds, seed=2, select_ks=_SELECTORS["rfe"])
        on = path_states(tbl.n_cols, 1)
        assert len(fits) == folds * (len(on) + len(set(ks) - set(on)))

    @pytest.mark.parametrize("seed, target", [(56, "binary"), (57, "float")])
    def test_score_curve_matches_reference(self, seed, target):
        rng = np.random.default_rng(seed)
        estimator = "ols" if target == "float" else "logistic"
        for _ in range(3):
            tbl = rfe_table(rng, target)
            folds = int(rng.integers(2, 5))
            ks = [int(k) for k in rng.integers(1, tbl.n_cols + 3, rng.integers(1, 6))]
            got = cv_score_curve(tbl, None, estimator, ks, folds, seed=4,
                                 select_ks=_SELECTORS["rfe"])
            assert got == reference_curve(tbl, reference_rfe, estimator, ks, folds, seed=4)

    def test_fold_path_never_sees_validation_rows(self):
        tbl = rfe_table(np.random.default_rng(58), "binary")
        folds = 4
        seen = []

        def spy(train, ks):
            seen.append(frozenset(train.row_ids))
            return _SELECTORS["rfe"](train, ks)

        cv_score_curve(tbl, None, "logistic", [1, 3, 8], folds, seed=6, select_ks=spy)
        all_ids = frozenset(tbl.row_ids)
        val_ids = [frozenset(tbl.row_ids[i] for i in idx)
                   for idx in _fold_indices(tbl, folds, 6)]
        assert seen == [all_ids - val for val in val_ids]

    def test_k_bounds_checked_for_every_k(self):
        tbl = rfe_table(np.random.default_rng(59), "float")
        for bad in (0, tbl.n_cols + 1):
            with pytest.raises(InvalidK):
                rfe_path(tbl, [2, bad])


def gram_fit(x, y):
    """_ols_importance over every column of x, with its Gram matrix."""
    design = np.column_stack([x, np.ones(x.shape[0])])
    return select_module._ols_importance(x, y, design.T @ design, design.T @ y,
                                         np.arange(x.shape[1]))


class TestRfeFits:
    """Each RFE fit solves the normal equations on the Gram matrix, or takes
    lstsq where they are near singular."""

    @pytest.fixture
    def lstsq_fits(self, monkeypatch):
        """Column count of every fit that takes the lstsq fallback."""
        fits = []

        def counting_ols(x, y):
            fits.append(x.shape[1])
            return fit_ols(x, y)

        monkeypatch.setattr(select_module, "fit_ols", counting_ols)
        return fits

    def test_full_rank_design_solves_the_normal_equations(self, lstsq_fits):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(50, 8))
        y = x @ rng.normal(size=8) + rng.normal(size=50)
        got = gram_fit(x, y)
        assert lstsq_fits == []
        np.testing.assert_allclose(got, fit_ols(x, y).importance(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["near-copy", "all-zero", "more-columns-than-rows"])
    def test_near_singular_design_takes_lstsq_exactly(self, case, lstsq_fits):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(40, 6))
        if case == "near-copy":
            x[:, 5] = x[:, 2] * (1.0 + 1e-9 * rng.normal(size=40))
        elif case == "all-zero":
            x[:, 5] = 0.0
        else:
            x = rng.normal(size=(40, 45))
        y = x[:, 0] - x[:, 1] + rng.normal(size=40)
        got = gram_fit(x, y)
        assert lstsq_fits == [x.shape[1]]
        assert np.array_equal(got, fit_ols(x, y).importance())

    def test_pivot_ratio_rule(self):
        ok = np.diag([4.0, 1.0, 4.0 * select_module.PIVOT_RATIO_MIN * 2])
        assert select_module._well_conditioned(ok)
        assert not select_module._well_conditioned(np.diag([4.0, 1.0, 4e-7]))
        assert not select_module._well_conditioned(np.diag([4.0, 1.0, 0.0]))
        assert not select_module._well_conditioned(np.diag([4.0, -1.0, 1.0]))

    def test_filtered_table_never_falls_back(self, lstsq_fits):
        """A table built like the benchmark's sweep table (blocks of columns
        sharing a latent factor, near-copies and constants): once the
        variance and correlation filters have run, every fit of the path and
        of the score curve's folds solves the normal equations."""
        rng = np.random.default_rng(62)
        n, n_block = 120, 32
        y = rng.permutation(np.arange(n) % 2).astype(np.float64)
        planted = rng.normal(size=(n, 3)) + 1.2 * (y - 0.5)[:, None]
        latent = np.repeat(rng.normal(size=(n, n_block // 8)), 8, axis=1)
        blocks = 0.75 * latent + 0.66 * rng.normal(size=(n, n_block))
        near = blocks[:, :2] + 0.03 * rng.normal(size=(n, 2))
        consts = np.full((n, 2), [0.1, 1 / 3])
        x = np.column_stack([planted, blocks, near, consts]) * rng.uniform(0.5, 20.0, 39)
        x[rng.random(x.shape) < 0.01] = np.nan
        tbl = make([f"f{j:02d}" for j in range(x.shape[1])], x, y)
        tbl = tbl.select_columns(low_variance_filter(tbl).kept_columns)
        tbl = tbl.select_columns(high_correlation_filter(tbl, 0.95).kept_columns)
        assert tbl.n_cols == 35
        rfe_path(tbl, [10])
        cv_score_curve(tbl, None, "logistic", [1, 2, 5, 10], 5, select_ks=_SELECTORS["rfe"])
        assert lstsq_fits == []
