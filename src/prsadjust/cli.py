"""Command line front end: simulate | fit | score | evaluate.

A command's settings are its own flags. Each resolves in three layers:
built-in default, then a key=value config file (``--config``), then the
flag, later layers winning. Every command echoes its resolved settings to
``run_config.txt`` in the output directory. A command creates that
directory and writes its files only after every step that can fail on its
inputs has run. Data goes to files and standard output; diagnostics and
errors go to standard error.
Exit codes: 0 success, 2 configuration or usage error, 3 data or model
error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from . import io as pio
from .adjust import (
    apply_adjustment,
    fit_adjustment,
    load_adjustment_model,
    save_adjustment_model,
)
from .errors import ConfigInvalid, EmptyInput, PipelineError
from .evaluation import (
    DEFAULT_HIGH_RISK_PERCENTILE,
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
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from .pca import (
    SCALE_MODES,
    PcScores,
    _significant_count,
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


# A setting with no flag or config value takes its default here, else None.
_DEFAULTS = {
    "k": "4",
    "percentile": DEFAULT_HIGH_RISK_PERCENTILE,
    "scale": "sample-sd",
}
# key: (io's strict int() or float(), what it must be), for flags and config values.
_NUMBER_KEYS = {
    "seed": (pio._ascii_int, "ASCII digits"),
    "percentile": (pio._vcf_float, "an ASCII decimal"),
}
_CHOICE_KEYS = {"scale": SCALE_MODES}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command and its settings: one per flag of the command, and no other."""
    flags = {
        name: value for name, value in vars(args).items() if name not in ("command", "config", "func")
    }
    cfg = argparse.Namespace(command=args.command, **{name: _DEFAULTS.get(name) for name in flags})
    layers = [dict(pio._key_values(args.config))] if args.config else []
    layers.append({name: value for name, value in flags.items() if value is not None})
    for layer in layers:
        for key, text in layer.items():
            if key not in flags:
                raise ConfigInvalid(f"{key}: unknown config key")
            value = text
            if key in _NUMBER_KEYS:
                convert, noun = _NUMBER_KEYS[key]
                try:
                    value = convert(text)
                except ValueError:
                    raise ConfigInvalid(f"{key}: expected {noun}, got {text!r}") from None
            elif key in _CHOICE_KEYS and text not in _CHOICE_KEYS[key]:
                raise ConfigInvalid(f"{key}: must be one of {_CHOICE_KEYS[key]}, got {text!r}")
            setattr(cfg, key, value)
    if "k" in flags and cfg.k != "auto":
        try:
            k = pio._ascii_int(cfg.k)
            if k < 1:
                raise ValueError
        except ValueError:
            raise ConfigInvalid(f"k: expected a positive integer or 'auto', got {cfg.k!r}") from None
        cfg.k = k
    if "percentile" in flags and not 0.0 < cfg.percentile < 100.0:
        raise ConfigInvalid(f"percentile: must be in (0, 100), got {cfg.percentile}")
    return cfg


def _require(cfg: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigInvalid(f"{name}: required for '{cfg.command}'")


def _out_dir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: argparse.Namespace, out: Path) -> None:
    lines = [f"{key}={'.' if value is None else value}" for key, value in sorted(vars(cfg).items())]
    with pio._text_dest(out / "run_config.txt") as handle:
        handle.write("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: argparse.Namespace) -> int:
    _require(cfg, "out")
    scenario = parse_scenario_config(cfg.scenario) if cfg.scenario else DEFAULT_SCENARIO
    if cfg.seed is not None:
        scenario = replace(scenario, seed=cfg.seed)
    cohort = generate_cohort(scenario)
    out = _out_dir(cfg)
    paths = write_scenario(cohort, out)
    write_scenario_config(scenario, out / "scenario.txt")
    _echo_config(cfg, out)
    for path in paths:
        print(f"{_sha256(path)}  {path.name}")
    return 0


def _columns(path: str, panel: PanelDefinition, weights):
    """(samples, (panel submatrix, coverage), (weight submatrix, coverage)) of a
    VCF, naming its skipped rows by reason on stderr.

    Only the submatrices outlive the parsed matrix, so one full-size copy of
    the genotypes is alive at a time. The small weight submatrix is taken
    first: allocated after the panel submatrix, it kept the freed heap below
    it resident (about 9 MB at 2,100 samples x 2,310 variants).
    """
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
    weight_columns = filter_by_panel(matrix, PanelDefinition("weights", weights.variant_ids))
    return matrix.samples, filter_by_panel(matrix, panel), weight_columns


def _raw_scores(weight_columns, weights):
    """Raw scores of fit and score from ``_columns``' weights: align, fill, score."""
    sub, coverage = weight_columns
    aligned, alignment = align_effect_alleles(sub, weights)
    filled = fill_missing_mean(aligned)
    raw = compute_raw_prs(filled, weights)
    if coverage.missing_ids or alignment.excluded:
        print(
            f"scoring: {coverage.n_matched}/{coverage.n_panel} weight variants found, "
            f"{len(alignment.excluded)} strand-ambiguous excluded, "
            f"{len(alignment.flipped)} flipped",
            file=sys.stderr,
        )
    return raw


def _cmd_fit(cfg: argparse.Namespace) -> int:
    _require(cfg, "train_vcf", "panel", "weights", "out")
    panel = pio.parse_panel(cfg.panel)
    weights = pio.parse_weights(cfg.weights)
    samples, (panel_matrix, coverage), weight_columns = _columns(cfg.train_vcf, panel, weights)
    if coverage.missing_ids:
        print(
            f"panel {panel.name}: {coverage.n_matched}/{coverage.n_panel} variants found",
            file=sys.stderr,
        )
    # Only X outlives the panel submatrix.
    X, params = standardize(fill_missing_mean(panel_matrix), cfg.scale)
    del panel_matrix
    # Pairs computed, and tabled: N + 1 for --k N; for auto 8, doubled while all pass.
    limit = min(X.shape[0] - 1, X.shape[1])
    k_max = min(limit, 8 if cfg.k == "auto" else cfg.k + 1)
    model_full = fit_pca(X, k_max, params)
    if cfg.k == "auto":
        while k_max < limit and _significant_count(model_full) == k_max:
            k_max = min(limit, 2 * k_max)
            model_full = fit_pca(X, k_max, params)
        k = select_k(model_full)
        print(f"k auto: kept {k} components by the Tracy-Widom test at the 5% level", file=sys.stderr)
    else:
        k = min(cfg.k, limit)
        if k < cfg.k:
            print(f"k clamped from {cfg.k} to {k} (data supports at most {limit})", file=sys.stderr)
    model = model_full.truncate(k)

    # project(model, filled) computes this same product on the same layout.
    sample_ids = tuple(record.sample_id for record in samples)
    pcs = PcScores(X @ model.loadings, sample_ids, pca_model_fingerprint(model))
    adjustment = fit_adjustment(_raw_scores(weight_columns, weights), pcs)

    spectrum = zip(model_full.eigenvalues, model_full.explained_variance_ratio)
    lines = ["component,eigenvalue,explained_variance_ratio,cumulative"]
    cumulative = 0.0
    for i, (eigenvalue, ratio) in enumerate(spectrum, start=1):
        cumulative += float(ratio)
        lines.append(",".join([str(i), *map(pio._format_real, (eigenvalue, ratio, cumulative))]))
    table = "\n".join(lines) + "\n"
    out = _out_dir(cfg)
    save_pca_model(model, out / "pca_model.txt")
    save_adjustment_model(adjustment, out / "adjustment_model.txt")
    with pio._text_dest(out / "explained_variance.csv") as handle:
        handle.write(table)
    print(table, end="")
    _echo_config(cfg, out)
    return 0


def _cmd_score(cfg: argparse.Namespace) -> int:
    _require(cfg, "test_vcf", "weights", "model_dir", "out")
    model_dir = Path(cfg.model_dir)
    pca_model = load_pca_model(model_dir / "pca_model.txt")
    adjustment = load_adjustment_model(model_dir / "adjustment_model.txt")
    # The cohort is scored as fit scored, and run_config.txt echoes how.
    cfg.k, cfg.scale = pca_model.k, pca_model.params.scale_mode
    weights = pio.parse_weights(cfg.weights)

    # project names any model variant the VCF lacks; apply_adjustment
    # refuses an adjustment model fitted against another PCA model.
    model_panel = PanelDefinition(name="pca_model", variant_ids=pca_model.params.variant_ids)
    samples, (panel_matrix, _), weight_columns = _columns(cfg.test_vcf, model_panel, weights)
    pcs = project(pca_model, fill_missing_mean(panel_matrix))
    raw = _raw_scores(weight_columns, weights)
    adjusted = apply_adjustment(adjustment, raw, pcs)

    if cfg.phenotypes:
        by_id = {rec.sample_id: rec for rec in pio.parse_phenotypes(cfg.phenotypes)}
        samples = [by_id.get(rec.sample_id, rec) for rec in samples]
    report = scores_to_report(samples, pcs, raw, adjusted)
    out = _out_dir(cfg)
    pio.write_report_csv(report, out / "report.csv")
    _echo_config(cfg, out)
    return 0


def _cmd_evaluate(cfg: argparse.Namespace) -> int:
    _require(cfg, "report", "out")
    report = pio.read_report_csv(cfg.report)

    labeled = [row for row in report.rows if row.obese is not None]
    if report.rows and not labeled:
        raise EmptyInput("no row of the report has an obese label; run 'score' with --phenotypes")
    summaries = stratify_by_population(report.rows, cfg.percentile)
    comparison = compare_models(
        [row.raw_prs for row in labeled],
        [row.adjusted_prs for row in labeled],
        [row.obese for row in labeled],
    )
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
    out = _out_dir(cfg)
    write_population_summary_csv(summaries, out / "population_summary.csv")
    write_roc_csv(comparison.roc_raw, out / "roc_raw.csv")
    write_roc_csv(comparison.roc_adjusted, out / "roc_adjusted.csv")
    write_metrics(metrics, out / "metrics.txt")
    write_metrics(metrics, sys.stdout)
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
    p.add_argument("--seed", help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit PCA and adjustment models on a training cohort")
    common(p)
    p.add_argument("--train-vcf", dest="train_vcf", help="training genotypes (VCF)")
    p.add_argument("--panel", help="ancestry panel variant ids, one per line")
    p.add_argument("--weights", help="score weight table (TSV)")
    p.add_argument("--k", help="number of PCs, or 'auto' to pick by the Tracy-Widom test")
    p.add_argument("--scale", choices=SCALE_MODES, help="standardization scale")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score a cohort with fitted models")
    common(p)
    p.add_argument("--test-vcf", dest="test_vcf", help="cohort genotypes (VCF)")
    p.add_argument("--weights", help="score weight table (TSV)")
    p.add_argument("--model-dir", dest="model_dir", help="directory holding the fitted models")
    p.add_argument("--phenotypes", help="phenotype table (TSV), optional")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="compute metrics from a scored report")
    common(p)
    p.add_argument("--report", help="report CSV produced by 'score'")
    p.add_argument("--percentile", help="pooled high-risk percentile")
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
