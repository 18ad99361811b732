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

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelMismatch, RankDeficient
from .io import _ascii_int, _model_text, _read_model, _real, _reals, _text_dest, _vcf_float
from .pca import PcScores
from .scoring import PrsVector

_MODEL_MAGIC = "prsadjust-adjust v4"
# The lines after the magic one; the reader wants each exactly once.
_MODEL_KEYS = ("k", "n_train", "intercept", "coefficients", "r_squared", "pca_fingerprint")
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}\Z")


@dataclass(eq=False)
class AdjustmentModel:
    """OLS coefficients of raw score on [1, PC1..PCk]."""

    intercept: float
    coefficients: np.ndarray
    r_squared: float
    n_train: int
    pca_fingerprint: str

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be 1-D")
        if not np.isfinite(self.intercept) or not np.all(np.isfinite(self.coefficients)):
            raise ValueError("model coefficients must be finite")
        if not _FINGERPRINT_RE.match(self.pca_fingerprint):
            raise ValueError(f"pca_fingerprint {self.pca_fingerprint!r} is not 64 lowercase hex digits")

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
    if pcs.model_fingerprint != model.pca_fingerprint:
        raise ModelMismatch(
            "PC scores come from a different PCA model than this adjustment was fitted on"
        )
    if pcs.k != model.k:
        raise DimensionError(f"model expects {model.k} PCs, scores carry {pcs.k}")
    predicted = model.intercept + pcs.scores @ model.coefficients
    return PrsVector(scores=scores.scores - predicted, sample_ids=scores.sample_ids)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def serialize_adjustment_model(model: AdjustmentModel) -> str:
    fields = {
        "k": str(model.k),
        "n_train": str(model.n_train),
        "intercept": _real(model.intercept),
        "coefficients": " ".join(map(_real, model.coefficients.tolist())),
        "r_squared": _real(model.r_squared),
        "pca_fingerprint": model.pca_fingerprint,
    }
    return _model_text(_MODEL_MAGIC, fields)


def save_adjustment_model(model: AdjustmentModel, dest) -> None:
    with _text_dest(dest) as out:
        out.write(serialize_adjustment_model(model))


def load_adjustment_model(source) -> AdjustmentModel:
    fields, _ = _read_model(source, _MODEL_MAGIC, _MODEL_KEYS, "adjustment model")
    k = _ascii_int(fields["k"])
    coefficients = np.array(_reals(fields["coefficients"]))
    if coefficients.shape != (k,):
        raise ValueError(f"expected {k} coefficients, got {coefficients.shape[0]}")
    return AdjustmentModel(
        intercept=_vcf_float(fields["intercept"]),
        coefficients=coefficients,
        r_squared=_vcf_float(fields["r_squared"]),
        n_train=_ascii_int(fields["n_train"]),
        pca_fingerprint=fields["pca_fingerprint"],
    )
