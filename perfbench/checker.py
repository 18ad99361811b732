"""Output checks: invariants of each command's files, not their bytes.

A last-place floating-point change (say, from a new eigensolver) must
still pass, so scores are compared to a recomputation within a relative
tolerance and the statistical checks use bands. Every check returns a list
of problems; an empty list means the output is good.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from prsadjust import adjust, genotypes, io, pca, scoring

EXPECTED_FILES = {
    "simulate": (
        "train_genotypes.vcf",
        "test_genotypes.vcf",
        "weights.tsv",
        "panel.txt",
        "phenotypes.tsv",
        "scenario.txt",
        "run_config.txt",
    ),
    "fit": ("pca_model.txt", "adjustment_model.txt", "explained_variance.csv", "run_config.txt"),
    "score": ("report.csv", "run_config.txt"),
    "evaluate": (
        "metrics.txt",
        "roc_raw.csv",
        "roc_adjusted.csv",
        "population_summary.csv",
        "run_config.txt",
    ),
}
# The report stores 10 significant digits, so its scores can differ from a
# float64 recomputation by up to 5e-10 of their magnitude.
SCORE_REL_TOL = 1e-9
HIGHRISK_SHARE = 0.24  # 1 - pooled 76th percentile
HIGHRISK_BAND = 0.08  # acceptance criterion 06


def missing_files(command: str, out_dir: Path) -> list[str]:
    return [
        f"{command}: {name} not written"
        for name in EXPECTED_FILES[command]
        if not (out_dir / name).is_file()
    ]


def same_matrix(parsed: genotypes.GenotypeMatrix, expected: genotypes.GenotypeMatrix) -> list[str]:
    """The parsed VCF holds exactly the generated samples, variants and dosages."""
    if parsed.sample_ids != expected.sample_ids:
        return ["VCF samples differ from the generated cohort"]
    if parsed.variant_ids != expected.variant_ids:
        return ["VCF variants differ from the generated cohort"]
    if not np.array_equal(parsed.missing_mask, expected.missing_mask):
        return ["VCF missing calls differ from the generated cohort"]
    observed = ~expected.missing_mask
    if not np.array_equal(parsed.dosage[observed], expected.dosage[observed]):
        return ["VCF dosages differ from the generated cohort"]
    return []


def read_report(path: Path) -> dict[str, np.ndarray | list]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    columns = {name: [row[i] for row in body] for i, name in enumerate(header)}
    return {
        "sample_id": columns["sample_id"],
        "population": columns["population"],
        "pcs": np.array(
            [[float(v) for v in columns[name]] for name in header if name.startswith("pc")]
        ).T,
        "raw_prs": np.array([float(v) for v in columns["raw_prs"]]),
        "adjusted_prs": np.array([float(v) for v in columns["adjusted_prs"]]),
    }


def recompute_scores(matrix: genotypes.GenotypeMatrix, weights_path: Path, model_dir: Path):
    """PCs, raw and adjusted scores from the saved models, through the library."""
    pca_model = pca.load_pca_model(model_dir / "pca_model.txt")
    adjustment = adjust.load_adjustment_model(model_dir / "adjustment_model.txt")
    weights = io.parse_weights(weights_path)
    index = matrix.variant_index()
    panel_matrix = matrix.take_variants([index[v] for v in pca_model.params.variant_ids])
    pcs = pca.project(pca_model, genotypes.fill_missing_mean(panel_matrix))
    weight_panel = genotypes.PanelDefinition(name="weights", variant_ids=weights.variant_ids)
    sub, _ = genotypes.filter_by_panel(matrix, weight_panel)
    aligned, _ = genotypes.align_effect_alleles(sub, weights)
    raw = scoring.compute_raw_prs(genotypes.fill_missing_mean(aligned), weights)
    adjusted = adjust.apply_adjustment(adjustment, raw, pcs)
    return pcs.scores, raw.scores, adjusted.scores


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= SCORE_REL_TOL * np.maximum(1.0, np.abs(want)))
    )


def check_report(
    report_path: Path,
    matrix: genotypes.GenotypeMatrix,
    weights_path: Path,
    model_dir: Path,
) -> list[str]:
    """One row per scored sample, in VCF order, with recomputable scores."""
    report = read_report(report_path)
    if tuple(report["sample_id"]) != matrix.sample_ids:
        return [f"report has {len(report['sample_id'])} rows, not one per scored sample"]
    pcs, raw, adjusted = recompute_scores(matrix, weights_path, model_dir)
    problems = []
    for name, got, want in (
        ("pcs", report["pcs"], pcs),
        ("raw_prs", report["raw_prs"], raw),
        ("adjusted_prs", report["adjusted_prs"], adjusted),
    ):
        if not _close(got, want):
            problems.append(f"report {name} differs from the recomputation")
    return problems


def read_metrics(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return dict(line.rstrip("\n").split("=", 1) for line in handle if "=" in line)


def check_metrics(metrics_dir: Path, n_rows: int) -> list[str]:
    """Label counts add up and adjustment improves discrimination."""
    metrics = read_metrics(metrics_dir / "metrics.txt")
    problems = []
    counted = sum(int(metrics[key]) for key in ("n_pos", "n_neg", "n_unlabeled"))
    if counted != n_rows:
        problems.append(f"n_pos + n_neg + n_unlabeled = {counted}, report has {n_rows} rows")
    if not float(metrics["auc_adjusted"]) > float(metrics["auc_raw"]):
        problems.append(
            f"auc_adjusted {metrics['auc_adjusted']} is not above auc_raw {metrics['auc_raw']}"
        )
    return problems


def check_highrisk_band(metrics_dir: Path) -> list[str]:
    """Every population's adjusted high-risk share within the band of 24%."""
    with open(metrics_dir / "population_summary.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return [
        f"population {row['population']}: highrisk_adjusted {row['highrisk_adjusted']} "
        f"outside {HIGHRISK_SHARE} +/- {HIGHRISK_BAND}"
        for row in rows
        if abs(float(row["highrisk_adjusted"]) - HIGHRISK_SHARE) > HIGHRISK_BAND
    ]
