"""Feature-table pipeline: CSV tables, preprocessing, Pearson correlation,
variance and correlation filters, PCA and ICA, supervised selection,
baseline models, cross-validated scoring, and scatter and heatmap exports."""

from .._lazy import attach

# each exported name -> the submodule that defines it, imported on first
# access: an extract run needs only the table module
__getattr__, __dir__, __all__ = attach(globals(), {
    "model": ("LinearModel", "LogisticModel", "accuracy_score", "fit_lasso",
              "fit_logistic", "fit_ols", "r2_score"),
    "select": ("CurvePoint", "anova_f_select", "anova_f_values", "cv_score_curve",
               "importance_select", "mrmr_rank", "ranked_prefixes", "rfe_path",
               "rfe_select"),
    "table": ("FeatureTable", "StandardizeParams", "impute_and_standardize",
              "is_classification", "read_finite_table_csv", "read_table_csv",
              "table_to_csv_text"),
    "transform": ("IcaResult", "PcaResult", "SelectionResult", "correlation_matrix",
                  "high_correlation_filter", "ica", "low_variance_filter", "pca"),
    "viz": ("HeatmapExport", "ScatterExport", "corr_heatmap_export", "scatter_export"),
})
