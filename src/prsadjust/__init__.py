"""Ancestry-adjusted polygenic risk scoring.

The pipeline: standardize genotypes over an ancestry-informative panel,
decompose their covariance into principal components, compute raw weighted
scores, regress them on the leading components and keep the residual as
the adjusted score, then evaluate both by distribution summaries,
percentile stratification and ROC/AUC. A Balding-Nichols cohort generator
provides ground-truth scenarios for end-to-end validation.
"""

from .adjust import (
    AdjustmentModel,
    apply_adjustment,
    fit_adjustment,
    load_adjustment_model,
    save_adjustment_model,
)
from .errors import PipelineError
from .evaluation import (
    ModelComparison,
    PopulationSummary,
    RocResult,
    compare_models,
    percentile_threshold,
    roc_auc,
    stratify_by_population,
)
from .genotypes import (
    AlignmentReport,
    GenotypeMatrix,
    PanelCoverageReport,
    PanelDefinition,
    SampleRecord,
    ScoreWeightTable,
    Variant,
    WeightRow,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from .io import (
    CohortReport,
    ReportRow,
    parse_panel,
    parse_phenotypes,
    parse_vcf,
    parse_weights,
    read_report_csv,
    write_report_csv,
    write_vcf,
)
from .pca import (
    PcaModel,
    PcScores,
    StandardizationParams,
    fit_pca,
    load_pca_model,
    pca_model_fingerprint,
    project,
    save_pca_model,
    select_k,
    standardize,
)
from .scoring import PrsVector, compute_raw_prs
from .simulate import (
    PopulationConfig,
    ScenarioConfig,
    SyntheticCohort,
    generate_cohort,
    parse_scenario_config,
    write_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentModel",
    "AlignmentReport",
    "CohortReport",
    "GenotypeMatrix",
    "ModelComparison",
    "PanelCoverageReport",
    "PanelDefinition",
    "PcaModel",
    "PcScores",
    "PipelineError",
    "PopulationConfig",
    "PopulationSummary",
    "PrsVector",
    "ReportRow",
    "RocResult",
    "SampleRecord",
    "ScenarioConfig",
    "ScoreWeightTable",
    "StandardizationParams",
    "SyntheticCohort",
    "Variant",
    "WeightRow",
    "align_effect_alleles",
    "apply_adjustment",
    "compare_models",
    "compute_raw_prs",
    "fill_missing_mean",
    "filter_by_panel",
    "fit_adjustment",
    "fit_pca",
    "generate_cohort",
    "load_adjustment_model",
    "load_pca_model",
    "parse_panel",
    "parse_phenotypes",
    "parse_scenario_config",
    "parse_vcf",
    "parse_weights",
    "pca_model_fingerprint",
    "percentile_threshold",
    "project",
    "read_report_csv",
    "roc_auc",
    "save_adjustment_model",
    "save_pca_model",
    "select_k",
    "standardize",
    "stratify_by_population",
    "write_report_csv",
    "write_scenario",
    "write_vcf",
]
