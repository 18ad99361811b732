"""Genotype standardization, covariance eigendecomposition and projection.

The decomposition targets the column covariance C = X^T X / (n - 1) of the
standardized (n, m) matrix X, computed exactly by a symmetric eigensolver
on the smaller Gram matrix, whose eigenvalues are mu_j = (n - 1) lambda_j:
X^T X when n > m, whose eigenvectors are the loadings, else X X^T, whose
eigenvectors u_j map back to loadings v_j = X^T u_j / sqrt(mu_j). Loadings
whose mu_j is zero to working precision are completed to an orthonormal
set instead. The total variance is ||X||_F^2 / (n - 1).

Forming a Gram matrix squares the condition number of X, so the error of
lambda_j is about eps * lambda_1 and its relative error (and a map-back
loading's loss of orthogonality) about eps * lambda_1 / lambda_j. That is
harmless for the leading PCs the model keeps: at 2,100 x 2,093 the 20
leading eigenvalues agree with a thin SVD of X to 1.4e-15 relative and the
loadings to 3.7e-14.

Eigenvector signs are fixed deterministically: within each component the
entry of largest magnitude is made positive, ties resolved by the lowest
index, so repeated fits of the same input agree bitwise.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionError,
    MissingModelVariants,
    NoVariantsRetained,
)
from .genotypes import GenotypeMatrix

logger = logging.getLogger(__name__)

ScaleMode = Literal["sample-sd", "binomial"]

SCALE_SAMPLE_SD = "sample-sd"
SCALE_BINOMIAL = "binomial"

_MODEL_MAGIC = "prsadjust-pca v1"


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-variant centering and scaling learned from a training cohort.

    ``variant_ids`` lists the retained columns in model order; projection
    of any later cohort reuses exactly these means and scales.
    """

    variant_ids: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray
    dropped_variants: tuple[str, ...]
    scale_mode: str

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=np.float64))
        m = len(self.variant_ids)
        if self.mean.shape != (m,) or self.scale.shape != (m,):
            raise ValueError("mean/scale length must match variant_ids")
        if not np.all(self.scale > 0):
            raise ValueError("scales must be strictly positive")


@dataclass(eq=False)
class PcaModel:
    """Loadings and spectrum of a fitted decomposition.

    loadings: (m, k) eigenvector matrix W with orthonormal columns.
    eigenvalues: the k leading eigenvalues of C, nonincreasing.
    explained_variance_ratio: eigenvalues / total variance of C.
    """

    loadings: np.ndarray
    eigenvalues: np.ndarray
    explained_variance_ratio: np.ndarray
    total_variance: float
    n_train: int
    params: StandardizationParams | None = None

    def __post_init__(self):
        self.loadings = np.asarray(self.loadings, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.explained_variance_ratio = np.asarray(
            self.explained_variance_ratio, dtype=np.float64
        )
        if self.loadings.ndim != 2:
            raise ValueError("loadings must be 2-D")
        k = self.loadings.shape[1]
        if self.eigenvalues.shape != (k,) or self.explained_variance_ratio.shape != (k,):
            raise ValueError("spectrum length must match loading columns")
        if np.any(self.eigenvalues < -1e-10):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")
        if self.params is not None and len(self.params.variant_ids) != self.loadings.shape[0]:
            raise ValueError("params variant count must match loading rows")

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_variants(self) -> int:
        return self.loadings.shape[0]

    def truncate(self, k: int) -> "PcaModel":
        """New model keeping only the leading ``k`` components."""
        if not 1 <= k <= self.k:
            raise DimensionError(f"cannot truncate a {self.k}-component model to k={k}")
        return PcaModel(
            loadings=self.loadings[:, :k].copy(),
            eigenvalues=self.eigenvalues[:k].copy(),
            explained_variance_ratio=self.explained_variance_ratio[:k].copy(),
            total_variance=self.total_variance,
            n_train=self.n_train,
            params=self.params,
        )


@dataclass(eq=False)
class PcScores:
    """Per-sample coordinates on the model's components.

    ``model_fingerprint`` ties the scores to the exact model that produced
    them, so downstream consumers can refuse scores from a different fit.
    """

    scores: np.ndarray
    sample_ids: tuple[str, ...]
    model_fingerprint: str | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.sample_ids = tuple(self.sample_ids)
        if self.scores.ndim != 2 or self.scores.shape[0] != len(self.sample_ids):
            raise ValueError("scores must be (n_samples, k)")

    @property
    def k(self) -> int:
        return self.scores.shape[1]


def standardize(
    matrix: GenotypeMatrix, scale_mode: ScaleMode = SCALE_SAMPLE_SD
) -> tuple[np.ndarray, StandardizationParams]:
    """Center and scale dosage columns; drop constant columns.

    Parameters
    ----------
    matrix : GenotypeMatrix
        Complete matrix: run ``fill_missing_mean`` first.
    scale_mode : str
        "sample-sd" (default) divides by the sample standard deviation
        (n - 1 divisor), giving every retained column unit variance.
        "binomial" divides by sqrt(2 p (1 - p)) with p the observed alt
        allele frequency, the scale a biallelic variant would have under
        binomial sampling.

    Returns
    -------
    (ndarray, StandardizationParams)
        The standardized matrix over retained columns, and the parameters
        needed to apply the same transform to another cohort.

    Raises
    ------
    NoVariantsRetained
        If every column is constant.
    """
    if scale_mode not in (SCALE_SAMPLE_SD, SCALE_BINOMIAL):
        raise ValueError(f"unknown scale mode {scale_mode!r}")
    if matrix.missing_mask.any():
        raise ValueError("matrix has missing dosages; run fill_missing_mean first")
    if matrix.n_samples < 2:
        raise DimensionError("standardization needs at least 2 samples")
    mean = matrix.dosage.mean(axis=0)
    sd = matrix.dosage.std(axis=0, ddof=1)
    keep = sd > 0.0
    if not keep.any():
        raise NoVariantsRetained("every column is constant")
    if scale_mode == SCALE_SAMPLE_SD:
        scale = sd[keep]
    else:
        # Observed alt allele frequency; sd > 0 guarantees 0 < p < 1.
        p = mean[keep] / 2.0
        scale = np.sqrt(2.0 * p * (1.0 - p))
    kept_idx = np.flatnonzero(keep)
    params = StandardizationParams(
        variant_ids=tuple(matrix.variants[j].id for j in kept_idx),
        mean=mean[keep].copy(),
        scale=scale,
        dropped_variants=tuple(
            matrix.variants[j].id for j in np.flatnonzero(~keep)
        ),
        scale_mode=scale_mode,
    )
    standardized = (matrix.dosage[:, kept_idx] - params.mean) / params.scale
    return standardized, params


def fit_pca(
    X: np.ndarray, k_max: int, params: StandardizationParams | None = None
) -> PcaModel:
    """Fit the leading ``k_max`` eigenpairs of C = X^T X / (n - 1).

    Parameters
    ----------
    X : ndarray
        Standardized matrix, shape (n, m), n >= 2.
    k_max : int
        Number of components to keep; must satisfy k_max <= min(n - 1, m).
    params : StandardizationParams, optional
        Standardization used to produce X; stored so the model can project
        raw cohorts later.

    Returns
    -------
    PcaModel
        Eigenvalues are nonincreasing and nonnegative; each loading column
        has unit norm and deterministic sign (largest-magnitude entry
        positive). The explained-variance ratio is taken against the total
        variance of C, i.e. the sum over its full spectrum.

    Raises
    ------
    DimensionError, ConvergenceFailure
    """
    # One memory layout (standardize's), so that every bit of the result
    # depends only on the values of X.
    X = np.asarray(X, dtype=np.float64, order="F")
    if X.ndim != 2:
        raise DimensionError("X must be 2-D")
    n, m = X.shape
    if n < 2:
        raise DimensionError("need at least 2 samples")
    limit = min(n - 1, m)
    if not 1 <= k_max <= limit:
        raise DimensionError(f"k_max={k_max} outside [1, min(n - 1, m)] = [1, {limit}]")
    if params is not None and len(params.variant_ids) != m:
        raise DimensionError("params variant count must match X columns")
    # Eigenpairs of the smaller Gram matrix; eigh sorts ascending.
    try:
        gram_values, gram_vectors = np.linalg.eigh(X.T @ X if n > m else X @ X.T)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    squared = np.clip(gram_values[::-1][:k_max], 0.0, None)  # clip round-off
    vectors = gram_vectors[:, ::-1][:, :k_max]
    if n > m:
        loadings = vectors.copy()
    else:
        # Map back where mu_j is not zero to working precision, then complete.
        rank = int(np.count_nonzero(squared > squared[0] * m * np.finfo(np.float64).eps))
        loadings = X.T @ vectors[:, :rank] / np.sqrt(squared[:rank])
        if rank < k_max:
            loadings = np.linalg.qr(np.hstack([loadings, np.eye(m, k_max - rank)]))[0]
    for j in range(k_max):
        pivot = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[pivot, j] < 0:
            loadings[:, j] = -loadings[:, j]
    eigenvalues = squared / (n - 1)
    # trace(C): the full spectrum's sum, also the denominator of the ratio.
    total_variance = float(np.square(X).sum()) / (n - 1)
    ratio = eigenvalues / total_variance if total_variance > 0 else np.zeros_like(eigenvalues)
    return PcaModel(
        loadings=loadings,
        eigenvalues=eigenvalues,
        explained_variance_ratio=ratio,
        total_variance=total_variance,
        n_train=n,
        params=params,
    )


def project(model: PcaModel, matrix: GenotypeMatrix) -> PcScores:
    """Project a cohort onto a fitted model's components.

    Columns are looked up by variant id, reordered to model order, then
    centered and scaled with the *training* parameters; scores are the
    product with the loading matrix. Projecting the training cohort itself
    reproduces the training scores bitwise.

    Raises
    ------
    MissingModelVariants
        If the cohort lacks any variant the model retained.
    """
    if model.params is None:
        raise ValueError("model carries no standardization params; cannot project")
    index = matrix.variant_index()
    missing = [vid for vid in model.params.variant_ids if vid not in index]
    if missing:
        raise MissingModelVariants(missing)
    cols = np.asarray([index[vid] for vid in model.params.variant_ids], dtype=int)
    if matrix.missing_mask[:, cols].any():
        raise ValueError("matrix has missing dosages on model variants; fill first")
    standardized = (matrix.dosage[:, cols] - model.params.mean) / model.params.scale
    return PcScores(
        scores=standardized @ model.loadings,
        sample_ids=matrix.sample_ids,
        model_fingerprint=pca_model_fingerprint(model),
    )


def select_k(model: PcaModel, cumulative_threshold: float = 0.80) -> int:
    """Smallest k whose cumulative explained-variance ratio meets the threshold.

    A slack of 1e-12 absorbs decimal rounding in the cumulative sum. When
    even all of the model's components fall short, the full count is
    returned and a warning logged; that situation is advisory, not fatal.
    """
    if not 0.0 < cumulative_threshold <= 1.0:
        raise ValueError(f"cumulative_threshold must be in (0, 1], got {cumulative_threshold}")
    cumulative = np.cumsum(model.explained_variance_ratio)
    reached = np.flatnonzero(cumulative >= cumulative_threshold - 1e-12)
    if reached.size == 0:
        logger.warning(
            "cumulative explained variance %.4f over %d components never reaches %.4f; "
            "keeping all components",
            float(cumulative[-1]) if cumulative.size else 0.0,
            model.k,
            cumulative_threshold,
        )
        return model.k
    return int(reached[0]) + 1


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _real(value: float) -> str:
    return format(float(value), ".17g")


def serialize_pca_model(model: PcaModel) -> str:
    """Render a model as versioned text; 17 significant digits round-trip
    every float64 exactly, so load-after-save projects bitwise identically."""
    if model.params is None:
        raise ValueError("cannot serialize a model without standardization params")
    p = model.params
    lines = [
        _MODEL_MAGIC,
        f"n_train {model.n_train}",
        f"n_variants {model.n_variants}",
        f"n_components {model.k}",
        f"scale_mode {p.scale_mode}",
        f"total_variance {_real(model.total_variance)}",
        f"n_dropped {len(p.dropped_variants)}",
    ]
    lines.extend(p.dropped_variants)
    lines.append("variants")
    for j, vid in enumerate(p.variant_ids):
        lines.append(f"{vid} {_real(p.mean[j])} {_real(p.scale[j])}")
    lines.append("eigenvalues")
    lines.extend(_real(v) for v in model.eigenvalues)
    lines.append("loadings")
    for row in model.loadings:
        lines.append(" ".join(_real(v) for v in row))
    return "\n".join(lines) + "\n"


def pca_model_fingerprint(model: PcaModel) -> str:
    """SHA-256 of the serialized model text; equals the digest of a saved file."""
    return hashlib.sha256(serialize_pca_model(model).encode("utf-8")).hexdigest()


def save_pca_model(model: PcaModel, dest) -> None:
    from .io import _text_dest  # io imports evaluation, which imports this module

    with _text_dest(dest) as out:
        out.write(serialize_pca_model(model))


def load_pca_model(source) -> PcaModel:
    """Read back a model written by :func:`save_pca_model`."""
    from .io import _text_source

    with _text_source(source) as stream:
        text = stream.read()
    lines = text.splitlines()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("model file truncated")
        line = lines[pos]
        pos += 1
        return line

    def take_field(key: str) -> str:
        line = take()
        head, _, value = line.partition(" ")
        if head != key:
            raise ValueError(f"expected {key!r} line, got {line!r}")
        return value

    if take() != _MODEL_MAGIC:
        raise ValueError(f"not a {_MODEL_MAGIC} file")
    n_train = int(take_field("n_train"))
    n_variants = int(take_field("n_variants"))
    n_components = int(take_field("n_components"))
    scale_mode = take_field("scale_mode")
    total_variance = float(take_field("total_variance"))
    n_dropped = int(take_field("n_dropped"))
    dropped = tuple(take() for _ in range(n_dropped))
    if take() != "variants":
        raise ValueError("expected 'variants' section")
    variant_ids: list[str] = []
    mean = np.empty(n_variants)
    scale = np.empty(n_variants)
    for j in range(n_variants):
        vid, mean_text, scale_text = take().split(" ")
        variant_ids.append(vid)
        mean[j] = float(mean_text)
        scale[j] = float(scale_text)
    if take() != "eigenvalues":
        raise ValueError("expected 'eigenvalues' section")
    eigenvalues = np.array([float(take()) for _ in range(n_components)])
    if take() != "loadings":
        raise ValueError("expected 'loadings' section")
    loadings = np.empty((n_variants, n_components))
    for j in range(n_variants):
        row = take().split(" ")
        if len(row) != n_components:
            raise ValueError(f"loading row {j} has {len(row)} values, expected {n_components}")
        loadings[j] = [float(v) for v in row]
    params = StandardizationParams(
        variant_ids=tuple(variant_ids),
        mean=mean,
        scale=scale,
        dropped_variants=dropped,
        scale_mode=scale_mode,
    )
    ratio = eigenvalues / total_variance if total_variance > 0 else np.zeros_like(eigenvalues)
    return PcaModel(
        loadings=loadings,
        eigenvalues=eigenvalues,
        explained_variance_ratio=ratio,
        total_variance=total_variance,
        n_train=n_train,
        params=params,
    )
