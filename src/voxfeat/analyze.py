"""The analyze stage chain over a feature table: load, settle the task,
filter, transform, select and cross-validate, then write the ranking, the
kept columns, the score curve, the plots and the report.

Only an analyze run loads this module and the modeling, selection and
plotting modules it imports, so an extract run starts without them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .config import AnalyzeSpec, PipelineConfig, config_hash, validate_config
from .errors import NotClassification, SchemaError, UnwritableOutput, VoxfeatError
from .mlpipe.select import (
    anova_f_select,
    cv_score_curve,
    importance_select,
    mrmr_rank,
    ranked_prefixes,
    rfe_path,
)
from .mlpipe.table import FeatureTable, read_finite_table_csv
from .mlpipe.transform import high_correlation_filter, ica, low_variance_filter, pca
from .mlpipe.viz import corr_heatmap_export, scatter_export
from .svgplot import curve_svg, heatmap_svg, scatter_svg
from .textio import write_text


# selector -> its SelectKs: anova_f, mrmr and importance each rank once and
# every k keeps a prefix of the ranking; rfe's top-k sets are not nested, so
# it walks one elimination path and branches off to each k
_SELECTORS = {
    "anova_f": ranked_prefixes(anova_f_select),
    "rfe": rfe_path,
    "mrmr": ranked_prefixes(mrmr_rank),
    "importance": ranked_prefixes(lambda tbl, k: importance_select(tbl)),
}


def _decide_task(tbl: FeatureTable, estimator: str) -> FeatureTable:
    """Settle the task: "logistic" classifies, "ols" regresses, "auto" keeps the rule's."""
    if tbl.target is None:
        raise SchemaError("the feature CSV has no target column")
    if estimator == "logistic" and not tbl.classification:
        raise NotClassification("estimator 'logistic' needs small-integer class labels")
    return replace(tbl, classification=False) if estimator == "ols" else tbl


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VoxfeatError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from None


def run_analyze(features_csv: str | Path, out_dir: str | Path,
                cfg: PipelineConfig) -> dict:
    """filter -> transform -> select -> cross-validate, with artifacts.

    Writes report.json, kept_features.txt, ranking.csv, curve.csv and the
    scatter/heatmap/curve SVG plots into out_dir, each atomically (temp file
    + rename), and returns the report.
    """
    validate_config(cfg)
    spec: AnalyzeSpec = cfg.analyze
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"cannot create {out_dir}: {exc}") from None

    tbl = _stage("load", read_finite_table_csv, features_csv)
    tbl = _stage("task", _decide_task, tbl, spec.estimator)
    report: dict = {
        "input": str(features_csv),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "stages": [],
    }

    if spec.low_variance:
        res = _stage("low_variance", low_variance_filter, tbl,
                     spec.low_variance_threshold)
        report["stages"].append({
            "stage": "low_variance",
            "threshold": spec.low_variance_threshold,
            "dropped": sorted(set(tbl.column_names) - set(res.kept_columns)),
        })
        if not res.kept_columns:
            raise SchemaError("stage 'low_variance': every column was dropped")
        tbl = tbl.select_columns(res.kept_columns)

    if spec.high_correlation and tbl.n_cols >= 2:
        res = _stage("high_correlation", high_correlation_filter, tbl,
                     spec.high_correlation_threshold)
        report["stages"].append({
            "stage": "high_correlation",
            "threshold": spec.high_correlation_threshold,
            "dropped": sorted(set(tbl.column_names) - set(res.kept_columns)),
        })
        tbl = tbl.select_columns(res.kept_columns)

    if spec.transform is not None:
        k = min(spec.transform_k, tbl.n_cols, tbl.n_rows)
        if spec.transform == "pca":
            pres = _stage("pca", pca, tbl, k)
            report["stages"].append({
                "stage": "pca", "k": k,
                "explained_variance_ratio":
                    [float(v) for v in pres.explained_variance_ratio],
            })
            tbl = pres.transformed
        else:
            ires = _stage("ica", ica, tbl, k)
            report["stages"].append({
                "stage": "ica", "k": k,
                "converged": ires.converged, "iterations": ires.n_iter,
            })
            tbl = ires.transformed

    estimator = "logistic" if tbl.classification else "ols"
    select_ks = _SELECTORS[spec.selector]

    k_values = sorted({min(k, tbl.n_cols) for k in spec.k_values})
    final_k = max(k_values)
    final = _stage("selection", select_ks, tbl, [final_k])[final_k]
    curve = _stage("cv_curve", cv_score_curve, tbl, None, estimator,
                   k_values, spec.folds, cfg.seed, select_ks)
    report["stages"].append({
        "stage": "selection",
        "selector": spec.selector,
        "estimator": estimator,
        "task": "classification" if tbl.classification else "regression",
        "task_from": "target" if spec.estimator == "auto" else "estimator",
        "kept": list(final.kept_columns),
        "curve": [{"k": p.k, "mean_score": p.mean_score,
                   "std_score": p.std_score} for p in curve],
    })

    ranked = sorted(final.ranking, key=final.ranking.get)
    lines = ["feature,rank,score"]
    lines += [f"{name},{final.ranking[name]},{final.scores.get(name, float('nan'))!r}"
              for name in ranked]
    write_text(out_dir / "ranking.csv", "\n".join(lines) + "\n")
    write_text(out_dir / "kept_features.txt", "\n".join(final.kept_columns) + "\n")
    curve_lines = ["k,mean_score,std_score"]
    curve_lines += [f"{p.k},{p.mean_score!r},{p.std_score!r}" for p in curve]
    write_text(out_dir / "curve.csv", "\n".join(curve_lines) + "\n")

    write_text(out_dir / "curve.svg",
                  curve_svg(curve, "accuracy" if estimator == "logistic" else "R^2"))
    plots = ["curve.svg"]
    if len(final.kept_columns) >= 2:
        top_x, top_y = final.kept_columns[0], final.kept_columns[1]
        write_text(out_dir / "scatter.svg",
                      scatter_svg(scatter_export(tbl, top_x, top_y)))
        write_text(out_dir / "heatmap.svg", heatmap_svg(
            corr_heatmap_export(tbl.select_columns(final.kept_columns))))
        plots += ["scatter.svg", "heatmap.svg"]
    else:
        report["stages"].append({
            "stage": "plots",
            "note": "scatter and heatmap need at least two kept features",
        })
    report["outputs"] = sorted(
        ["ranking.csv", "kept_features.txt", "curve.csv", "report.json"] + plots)

    write_text(out_dir / "report.json",
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
