"""Feature-table pipeline: CSV tables, preprocessing, Pearson correlation,
variance and correlation filters, PCA and ICA, supervised selection,
baseline models, cross-validated scoring, and scatter and heatmap exports."""

from .._lazy import attach

# each exported name -> the submodule that defines it, imported on first
# access: an extract run needs only the table module
__getattr__, __dir__, __all__ = attach(globals(), {
    "model": ("fit_logistic", "fit_ols"),
    "select": ("anova_f_select", "cv_score_curve", "importance_select", "mrmr_rank",
               "rfe_select"),
    "table": ("FeatureTable", "impute_and_standardize", "is_classification",
              "read_table_csv", "table_to_csv_text"),
    "transform": ("SelectionResult", "high_correlation_filter", "ica",
                  "low_variance_filter"),
    "viz": ("corr_heatmap_export", "scatter_export"),
})
