"""Command line front end: simulate | fit | score | evaluate.

Values resolve in three layers: built-in defaults, then a key=value config
file (``--config``), then explicit flags, later layers winning. Every
command echoes its resolved configuration to ``run_config.txt`` in the
output directory. Data goes to files and standard output; diagnostics and
errors go to standard error. Exit codes: 0 success, 2 configuration or
usage error, 3 data or model error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import io as pio
from .adjust import (
    apply_adjustment,
    fit_adjustment,
    load_adjustment_model,
    save_adjustment_model,
)
from .errors import ConfigInvalid, MissingModelVariants, ModelMismatch, PipelineError
from .evaluation import (
    compare_models,
    percentile_threshold,
    scores_to_report,
    stratify_by_population,
    write_metrics,
    write_population_summary_csv,
    write_roc_csv,
)
from .genotypes import (
    PanelDefinition,
    SampleRecord,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from .pca import (
    fit_pca,
    load_pca_model,
    pca_model_fingerprint,
    project,
    save_pca_model,
    select_k,
    standardize,
)
from .scoring import compute_raw_prs
from .simulate import (
    DEFAULT_SCENARIO,
    generate_cohort,
    parse_scenario_config,
    write_scenario,
    write_scenario_config,
)

# Components shown in the explained-variance table when k is selected
# automatically or is smaller than this.
_VARIANCE_TABLE_COMPONENTS = 20


@dataclass
class PipelineConfig:
    """Resolved settings for one command invocation."""

    command: str = "."
    train_vcf: str | None = None
    test_vcf: str | None = None
    panel: str | None = None
    weights: str | None = None
    phenotypes: str | None = None
    model_dir: str | None = None
    report: str | None = None
    scenario: str | None = None
    out: str | None = None
    seed: int | None = None
    k: str = "4"
    cum_threshold: float = 0.80
    percentile: float = 76.0
    prs_mode: str = "sum"
    scale: str = "sample-sd"
    strand_policy: str = "exclude"


_INT_KEYS = {"seed"}
_FLOAT_KEYS = {"cum_threshold", "percentile"}
_CHOICE_KEYS = {
    "prs_mode": ("sum", "mean"),
    "scale": ("sample-sd", "binomial"),
    "strand_policy": ("exclude", "keep"),
}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    known = {f.name for f in fields(PipelineConfig)} - {"command"}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in known:
                raise ConfigInvalid(f"{key}: unknown config key")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig(command=args.command)
    layers: list[dict[str, str]] = []
    if getattr(args, "config", None):
        layers.append(_load_config_file(args.config))
    flag_layer = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "config", "func") and value is not None
    }
    layers.append({k: str(v) for k, v in flag_layer.items()})
    for layer in layers:
        for key, text in layer.items():
            if key in _INT_KEYS:
                try:
                    setattr(cfg, key, int(text))
                except ValueError:
                    raise ConfigInvalid(f"{key}: expected an integer, got {text!r}") from None
            elif key in _FLOAT_KEYS:
                try:
                    setattr(cfg, key, float(text))
                except ValueError:
                    raise ConfigInvalid(f"{key}: expected a number, got {text!r}") from None
            elif key in _CHOICE_KEYS:
                if text not in _CHOICE_KEYS[key]:
                    raise ConfigInvalid(
                        f"{key}: must be one of {_CHOICE_KEYS[key]}, got {text!r}"
                    )
                setattr(cfg, key, text)
            else:
                setattr(cfg, key, text)
    if cfg.k != "auto":
        try:
            if int(cfg.k) < 1:
                raise ValueError
        except ValueError:
            raise ConfigInvalid(f"k: expected a positive integer or 'auto', got {cfg.k!r}") from None
    if not 0.0 < cfg.cum_threshold <= 1.0:
        raise ConfigInvalid(f"cum_threshold: must be in (0, 1], got {cfg.cum_threshold}")
    if not 0.0 < cfg.percentile < 100.0:
        raise ConfigInvalid(f"percentile: must be in (0, 100), got {cfg.percentile}")
    return cfg


def _require(cfg: PipelineConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigInvalid(f"{name}: required for '{cfg.command}'")


def _out_dir(cfg: PipelineConfig) -> Path:
    _require(cfg, "out")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: PipelineConfig, out: Path) -> None:
    lines = []
    for f in sorted(fields(PipelineConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            text = "."
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name}={text}")
    (out / "run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: PipelineConfig) -> int:
    out = _out_dir(cfg)
    scenario = parse_scenario_config(cfg.scenario) if cfg.scenario else DEFAULT_SCENARIO
    if cfg.seed is not None:
        scenario = replace(scenario, seed=cfg.seed)
    cohort = generate_cohort(scenario)
    paths = write_scenario(cohort, out)
    write_scenario_config(scenario, out / "scenario.txt")
    _echo_config(cfg, out)
    for path in paths:
        print(f"{_sha256(path)}  {path.name}")
    return 0


def _parse_vcf(path: str):
    """Parse a VCF, naming skipped rows by reason on stderr."""
    matrix, report = pio.parse_vcf(path)
    if report.skipped:
        reasons = ", ".join(
            f"{len(report.skipped[reason])} {reason}" for reason in sorted(report.skipped)
        )
        print(
            f"{Path(path).name}: {report.rows_skipped}/{report.rows_total} rows skipped "
            f"({reasons})",
            file=sys.stderr,
        )
    return matrix


def _fit_prs_inputs(cfg: PipelineConfig, matrix, weights):
    """Shared raw-score path: restrict to weight variants, align, fill, score."""
    weight_panel = PanelDefinition(name="weights", variant_ids=weights.variant_ids)
    sub, coverage = filter_by_panel(matrix, weight_panel)
    aligned, alignment = align_effect_alleles(sub, weights, cfg.strand_policy)
    filled = fill_missing_mean(aligned)
    raw = compute_raw_prs(filled, weights, cfg.prs_mode)
    if coverage.missing_ids or alignment.excluded:
        print(
            f"scoring: {coverage.n_matched}/{coverage.n_panel} weight variants found, "
            f"{len(alignment.excluded)} strand-ambiguous excluded, "
            f"{len(alignment.flipped)} flipped",
            file=sys.stderr,
        )
    return raw


def _cmd_fit(cfg: PipelineConfig) -> int:
    _require(cfg, "train_vcf", "panel", "weights")
    out = _out_dir(cfg)
    matrix = _parse_vcf(cfg.train_vcf)
    panel = pio.parse_panel(cfg.panel)
    weights = pio.parse_weights(cfg.weights)

    panel_matrix, coverage = filter_by_panel(matrix, panel)
    if coverage.missing_ids:
        print(
            f"panel {panel.name}: {coverage.n_matched}/{coverage.n_panel} variants found",
            file=sys.stderr,
        )
    filled = fill_missing_mean(panel_matrix)
    X, params = standardize(filled, cfg.scale)
    limit = min(X.shape[0] - 1, X.shape[1])
    requested = None if cfg.k == "auto" else int(cfg.k)
    k_max = min(limit, max(_VARIANCE_TABLE_COMPONENTS, requested or 1))
    model_full = fit_pca(X, k_max, params)
    if requested is None:
        k = select_k(model_full, cfg.cum_threshold)
    else:
        k = min(requested, k_max)
        if k < requested:
            print(f"k clamped from {requested} to {k} (data supports at most {k_max})", file=sys.stderr)
    model = model_full.truncate(k)
    save_pca_model(model, out / "pca_model.txt")

    pcs = project(model, filled)
    raw = _fit_prs_inputs(cfg, matrix, weights)
    adjustment = fit_adjustment(raw, pcs)
    save_adjustment_model(adjustment, out / "adjustment_model.txt")

    lines = ["component,eigenvalue,explained_variance_ratio,cumulative"]
    cumulative = 0.0
    for i in range(model_full.k):
        cumulative += float(model_full.explained_variance_ratio[i])
        lines.append(
            f"{i + 1},{model_full.eigenvalues[i]:.10g},"
            f"{model_full.explained_variance_ratio[i]:.10g},{cumulative:.10g}"
        )
    table = "\n".join(lines) + "\n"
    (out / "explained_variance.csv").write_text(table, encoding="utf-8")
    print(table, end="")
    _echo_config(cfg, out)
    return 0


def _cmd_score(cfg: PipelineConfig) -> int:
    _require(cfg, "test_vcf", "weights", "model_dir")
    out = _out_dir(cfg)
    model_dir = Path(cfg.model_dir)
    pca_model = load_pca_model(model_dir / "pca_model.txt")
    adjustment = load_adjustment_model(model_dir / "adjustment_model.txt")
    if (
        adjustment.pca_fingerprint is not None
        and adjustment.pca_fingerprint != pca_model_fingerprint(pca_model)
    ):
        raise ModelMismatch(
            "adjustment model was fitted against a different PCA model file"
        )

    matrix = _parse_vcf(cfg.test_vcf)
    weights = pio.parse_weights(cfg.weights)

    index = matrix.variant_index()
    absent = [vid for vid in pca_model.params.variant_ids if vid not in index]
    if absent:
        raise MissingModelVariants(absent)
    panel_matrix = matrix.take_variants(
        [index[vid] for vid in pca_model.params.variant_ids]
    )
    pcs = project(pca_model, fill_missing_mean(panel_matrix))
    raw = _fit_prs_inputs(cfg, matrix, weights)
    adjusted = apply_adjustment(adjustment, raw, pcs)

    if cfg.phenotypes:
        by_id = {rec.sample_id: rec for rec in pio.parse_phenotypes(cfg.phenotypes)}
        samples = [
            by_id.get(sid, SampleRecord(sample_id=sid)) for sid in matrix.sample_ids
        ]
    else:
        samples = list(matrix.samples)
    report = scores_to_report(samples, pcs, raw, adjusted)
    pio.write_report_csv(report, out / "report.csv")
    _echo_config(cfg, out)
    return 0


def _cmd_evaluate(cfg: PipelineConfig) -> int:
    _require(cfg, "report")
    out = _out_dir(cfg)
    report = pio.read_report_csv(cfg.report)

    summaries = stratify_by_population(report.rows, cfg.percentile)
    write_population_summary_csv(summaries, out / "population_summary.csv")

    labeled = [row for row in report.rows if row.obese is not None]
    comparison = compare_models(
        [row.raw_prs for row in labeled],
        [row.adjusted_prs for row in labeled],
        [row.obese for row in labeled],
    )
    write_roc_csv(comparison.roc_raw, out / "roc_raw.csv")
    write_roc_csv(comparison.roc_adjusted, out / "roc_adjusted.csv")

    metrics = {
        "auc_raw": comparison.auc_raw,
        "auc_adjusted": comparison.auc_adjusted,
        "auc_delta": comparison.delta,
        "threshold_raw": percentile_threshold(
            [row.raw_prs for row in report.rows], cfg.percentile
        ),
        "threshold_adjusted": percentile_threshold(
            [row.adjusted_prs for row in report.rows], cfg.percentile
        ),
        "n_pos": comparison.roc_raw.n_pos,
        "n_neg": comparison.roc_raw.n_neg,
        "n_unlabeled": len(report.rows) - len(labeled),
    }
    write_metrics(metrics, out / "metrics.txt")
    for key, value in metrics.items():
        text = format(value, ".17g") if isinstance(value, float) else str(value)
        print(f"{key}={text}")
    _echo_config(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prsadjust",
        description="Ancestry-adjusted polygenic risk scoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    common(p)
    p.add_argument("--scenario", help="scenario config file (defaults to a built-in scenario)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit PCA and adjustment models on a training cohort")
    common(p)
    p.add_argument("--train-vcf", dest="train_vcf", help="training genotypes (VCF)")
    p.add_argument("--panel", help="ancestry panel variant ids, one per line")
    p.add_argument("--weights", help="score weight table (TSV)")
    p.add_argument("--k", help="number of PCs, or 'auto' to pick by cumulative variance")
    p.add_argument(
        "--cum-threshold",
        dest="cum_threshold",
        type=float,
        help="cumulative explained-variance threshold used with --k auto",
    )
    p.add_argument("--scale", choices=("sample-sd", "binomial"), help="standardization scale")
    p.add_argument(
        "--strand-policy",
        dest="strand_policy",
        choices=("exclude", "keep"),
        help="handling of strand-ambiguous variants",
    )
    p.add_argument("--prs-mode", dest="prs_mode", choices=("sum", "mean"), help="score aggregation")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score a cohort with fitted models")
    common(p)
    p.add_argument("--test-vcf", dest="test_vcf", help="cohort genotypes (VCF)")
    p.add_argument("--weights", help="score weight table (TSV)")
    p.add_argument("--model-dir", dest="model_dir", help="directory holding the fitted models")
    p.add_argument("--phenotypes", help="phenotype table (TSV), optional")
    p.add_argument(
        "--strand-policy",
        dest="strand_policy",
        choices=("exclude", "keep"),
        help="handling of strand-ambiguous variants",
    )
    p.add_argument("--prs-mode", dest="prs_mode", choices=("sum", "mean"), help="score aggregation")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="compute metrics from a scored report")
    common(p)
    p.add_argument("--report", help="report CSV produced by 'score'")
    p.add_argument("--percentile", type=float, help="pooled high-risk percentile")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        return args.func(cfg)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
