"""Ancestry adjustment of raw scores by residualization on PC coordinates.

The raw score is regressed on an intercept plus the leading principal
components by ordinary least squares, and the adjusted score is the
residual: whatever part of the score the ancestry axes cannot explain.
The solve goes through an orthogonal decomposition (SVD-based lstsq), not
the normal equations, which would square the condition number of the
design. On the training cohort the residuals therefore have mean zero and
are uncorrelated with every PC up to numerical precision.

An adjustment model remembers the fingerprint of the PCA model whose
scores it was fitted on; applying it to scores from any other model is
refused, since coefficients are meaningless in a different basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelMismatch, RankDeficient
from .io import _text_dest, _text_source
from .pca import PcScores, _real
from .scoring import PrsVector

_MODEL_MAGIC = "prsadjust-adjust v1"


@dataclass(eq=False)
class AdjustmentModel:
    """OLS coefficients of raw score on [1, PC1..PCk]."""

    intercept: float
    coefficients: np.ndarray
    r_squared: float
    n_train: int
    pca_fingerprint: str | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be 1-D")
        if not np.isfinite(self.intercept) or not np.all(np.isfinite(self.coefficients)):
            raise ValueError("model coefficients must be finite")

    @property
    def k(self) -> int:
        return self.coefficients.shape[0]


def _check_alignment(scores: PrsVector, pcs: PcScores) -> None:
    if scores.sample_ids != pcs.sample_ids:
        raise ValueError("scores and PC scores are not over the same samples in the same order")


def fit_adjustment(scores: PrsVector, pcs: PcScores) -> AdjustmentModel:
    """Fit the adjustment regression on a training cohort.

    Requires at least k + 1 samples (with exactly k + 1 the fit is
    saturated and residuals vanish). Sample ids of the two inputs must
    agree elementwise.

    Raises
    ------
    RankDeficient
        If the design [1 | PCs] has linearly dependent columns, e.g. a
        constant PC or duplicated axes.
    """
    _check_alignment(scores, pcs)
    n, k = pcs.scores.shape
    if n < k + 1:
        raise DimensionError(f"need at least k + 1 = {k + 1} samples, got {n}")
    design = np.column_stack([np.ones(n), pcs.scores])
    beta, _, rank, _ = np.linalg.lstsq(design, scores.scores, rcond=None)
    if rank < k + 1:
        raise RankDeficient(f"design matrix rank {rank} < {k + 1}")
    fitted = design @ beta
    residuals = scores.scores - fitted
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((scores.scores - scores.scores.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return AdjustmentModel(
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        r_squared=r_squared,
        n_train=n,
        pca_fingerprint=pcs.model_fingerprint,
    )


def apply_adjustment(
    model: AdjustmentModel, scores: PrsVector, pcs: PcScores
) -> PrsVector:
    """Subtract the model's ancestry prediction from raw scores.

    adjusted_i = raw_i - (intercept + sum_j coef_j * PC_ij)

    Raises
    ------
    ModelMismatch
        If the PC scores carry a different PCA fingerprint than the one
        the adjustment was fitted against.
    DimensionError
        If the number of PC columns differs from the model's k.
    """
    _check_alignment(scores, pcs)
    if model.pca_fingerprint is not None and pcs.model_fingerprint != model.pca_fingerprint:
        raise ModelMismatch(
            "PC scores come from a different PCA model than this adjustment was fitted on"
        )
    if pcs.k != model.k:
        raise DimensionError(f"model expects {model.k} PCs, scores carry {pcs.k}")
    predicted = model.intercept + pcs.scores @ model.coefficients
    return PrsVector(
        scores=scores.scores - predicted,
        sample_ids=scores.sample_ids,
        n_snps_used=scores.n_snps_used,
        skipped_variants=scores.skipped_variants,
        mode=scores.mode,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def serialize_adjustment_model(model: AdjustmentModel) -> str:
    lines = [
        _MODEL_MAGIC,
        f"k {model.k}",
        f"n_train {model.n_train}",
        f"intercept {_real(model.intercept)}",
        "coefficients " + " ".join(_real(c) for c in model.coefficients),
        f"r_squared {_real(model.r_squared)}",
        f"pca_fingerprint {model.pca_fingerprint if model.pca_fingerprint else '.'}",
    ]
    return "\n".join(lines) + "\n"


def save_adjustment_model(model: AdjustmentModel, dest) -> None:
    with _text_dest(dest) as out:
        out.write(serialize_adjustment_model(model))


def load_adjustment_model(source) -> AdjustmentModel:
    with _text_source(source) as stream:
        text = stream.read()
    lines = text.splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ValueError(f"not a {_MODEL_MAGIC} file")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(" ")
        fields[key] = value
    k = int(fields["k"])
    coefficients = np.array([float(v) for v in fields["coefficients"].split(" ")])
    if coefficients.shape != (k,):
        raise ValueError(f"expected {k} coefficients, got {coefficients.shape[0]}")
    fingerprint = fields["pca_fingerprint"]
    return AdjustmentModel(
        intercept=float(fields["intercept"]),
        coefficients=coefficients,
        r_squared=float(fields["r_squared"]),
        n_train=int(fields["n_train"]),
        pca_fingerprint=None if fingerprint == "." else fingerprint,
    )
