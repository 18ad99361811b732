"""Ancestry-adjusted polygenic risk scoring.

The pipeline: standardize genotypes over an ancestry-informative panel,
decompose their covariance into principal components, compute raw weighted
scores, regress them on the leading components and keep the residual as
the adjusted score, then evaluate both by distribution summaries,
percentile stratification and ROC/AUC. A Balding-Nichols cohort generator
provides ground-truth scenarios for end-to-end validation.
"""

from importlib import import_module

# The public names of each module. A name is imported on first use (PEP 562),
# so ``import prsadjust`` and the ``evaluate`` command load no numpy.
_MODULE_EXPORTS = {
    "adjust": (
        "AdjustmentModel",
        "apply_adjustment",
        "fit_adjustment",
        "load_adjustment_model",
        "save_adjustment_model",
    ),
    "errors": ("PipelineError",),
    "evaluation": (
        "ModelComparison",
        "PopulationSummary",
        "RocResult",
        "compare_models",
        "percentile_threshold",
        "roc_auc",
        "stratify_by_population",
    ),
    "genotypes": (
        "AlignmentReport",
        "GenotypeMatrix",
        "PanelCoverageReport",
        "PanelDefinition",
        "SampleRecord",
        "ScoreWeightTable",
        "Variant",
        "WeightRow",
        "align_effect_alleles",
        "fill_missing_mean",
        "filter_by_panel",
    ),
    "io": ("parse_panel", "parse_phenotypes", "parse_vcf", "parse_weights", "write_vcf"),
    "pca": (
        "PcaModel",
        "PcScores",
        "StandardizationParams",
        "fit_pca",
        "load_pca_model",
        "pca_model_fingerprint",
        "project",
        "save_pca_model",
        "select_k",
        "standardize",
    ),
    "scoring": ("PrsVector", "compute_raw_prs"),
    "simulate": (
        "PopulationConfig",
        "ScenarioConfig",
        "SyntheticCohort",
        "generate_cohort",
        "parse_scenario_config",
        "write_scenario",
    ),
    "text": ("CohortReport", "ReportRow", "read_report_csv", "write_report_csv"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:  # a module, as ``prsadjust.pca``
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


__version__ = "0.1.0"

# Classes first, then functions, each in case-blind order.
__all__ = sorted(_EXPORTS, key=lambda name: (name[0].islower(), name.lower()))
