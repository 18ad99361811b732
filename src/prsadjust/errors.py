"""Exception types shared across the pipeline.

Every failure mode that callers are expected to handle lives here, so a
caller can catch :class:`PipelineError` for anything contract-level or a
specific subclass to pinpoint one condition. Parsing errors that point at
a file location carry the 1-based line number.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all contract-level pipeline errors."""


class ConfigInvalid(PipelineError):
    """A scenario or pipeline configuration value is out of range or unknown."""


# ---------------------------------------------------------------------------
# genotype data model
# ---------------------------------------------------------------------------


class EmptyIntersection(PipelineError):
    """A panel shares no variants with the genotype matrix."""


class AlleleMismatch(PipelineError):
    """An effect allele matches neither ref nor alt on either strand."""


class AllMissingVariant(PipelineError):
    """A variant has no observed dosages, so no mean exists to impute with."""


class NoUsableVariants(PipelineError):
    """No weight-table variant is present in the matrix to score with."""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class ParseError(PipelineError):
    """Base class for file-format errors."""


class ParseAbort(ParseError):
    """The file is structurally unusable (e.g. no header line)."""


class MalformedRow(ParseError):
    """A data row cannot be decoded; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateVariant(ParseError):
    """The same variant id appears twice where ids must be unique."""


class DuplicateSample(ParseError):
    """The same sample id appears twice where ids must be unique."""


class NonNumericWeight(MalformedRow):
    """A weight field does not parse as a finite real number."""


class EmptyPanel(ParseError):
    """A panel file contains no variant ids."""


class UnknownSexToken(ParseError):
    """A sex field is outside the accepted vocabulary."""


class NegativeBmi(ParseError):
    """A BMI field is negative."""


# ---------------------------------------------------------------------------
# PCA and projection
# ---------------------------------------------------------------------------


class NoVariantsRetained(PipelineError):
    """Standardization dropped every column (all were constant)."""


class DimensionError(PipelineError):
    """A requested dimension is incompatible with the data shape."""


class ConvergenceFailure(PipelineError):
    """The eigendecomposition backend failed to converge."""


class MissingModelVariants(PipelineError):
    """A cohort lacks variants the fitted model requires; carries their ids."""

    def __init__(self, variant_ids):
        ids = tuple(variant_ids)
        shown = ", ".join(ids[:10]) + (", ..." if len(ids) > 10 else "")
        super().__init__(f"{len(ids)} model variant(s) absent from cohort: {shown}")
        self.variant_ids = ids


# ---------------------------------------------------------------------------
# adjustment
# ---------------------------------------------------------------------------


class RankDeficient(PipelineError):
    """The regression design matrix does not have full column rank."""


class ModelMismatch(PipelineError):
    """PC scores come from a different PCA model than the adjustment expects."""


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class EmptyInput(PipelineError):
    """An operation that needs at least one value received none."""


class DegenerateLabels(PipelineError):
    """Classification labels contain only one class."""
