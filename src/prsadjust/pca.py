"""Genotype standardization, covariance eigendecomposition and projection.

The decomposition targets the column covariance C = X^T X / (n - 1) of the
standardized (n, m) matrix X through the smaller Gram matrix G, whose
eigenvalues are mu_j = (n - 1) lambda_j: X^T X when n > m, whose
eigenvectors are the loadings, else X X^T, whose eigenvectors u_j map back
to loadings v_j = X^T u_j / sqrt(mu_j). Loadings whose mu_j is zero to
working precision are completed to an orthonormal set instead. Only the
leading pairs asked for are computed: by block Krylov iteration with
Rayleigh-Ritz (Musco & Musco, 2015) when G is large and the pairs few, else,
or when Krylov does not converge, by a dense symmetric eigensolver. The total
variance is ||X||_F^2 / (n - 1), and ||C||_F^2 = ||G||_F^2 / (n - 1)^2.

Forming G squares the condition number of X, so the relative error of
lambda_j (and a map-back loading's loss of orthogonality) is about
eps * lambda_1 / lambda_j: harmless for the leading PCs the model keeps (at
2,100 x 2,093 the 20 leading eigenvalues agree with a thin SVD of X to
1.4e-15 relative and the loadings to 3.7e-14). Loading signs are fixed as
fit_pca documents, so repeated fits of the same input agree bitwise.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionError,
    MissingModelVariants,
    NoVariantsRetained,
)
from .genotypes import GenotypeMatrix, _blocks, _observed_means
from .text import _ascii_int, _model_text, _read_model, _real, _reals, _text_dest, _vcf_float

logger = logging.getLogger(__name__)

_MODEL_MAGIC = "prsadjust-pca v3"
# The field lines after the magic one, before the rows; the reader wants each exactly once.
_MODEL_KEYS = ("n_train", "n_variants", "n_components", "total_variance", "dropped", "eigenvalues")

# The 95% quantile of the Tracy-Widom TW1 law: select_k's 5% level.
_TW1_QUANTILE_95 = 0.9793

# Block Krylov runs where its basis, capped at half the order of G, holds at least
# _KRYLOV_MIN_BLOCKS blocks; elsewhere dense was as fast (timings in CHANGES.md).
# Checked every 4 blocks, pairs converge at a residual <= _RESIDUAL_TOLERANCE * mu_1.
_KRYLOV_MIN_BLOCKS = 64
_RESIDUAL_TOLERANCE = 64 * np.finfo(np.float64).eps

# PC scores are products of this many rows with the loadings, so every sample's row
# goes through one BLAS kernel whatever its cohort's size: OpenBLAS 0.3.31 takes a
# small-matrix path below 126 rows, and 128 is the first multiple of 8 above that.
_SCORE_BLOCK = 128


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-variant means and sample standard deviations of a training cohort.

    ``variant_ids`` lists the retained columns in model order; projection
    of any later cohort reuses exactly these means and scales.
    """

    variant_ids: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray
    dropped_variants: tuple[str, ...]

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
    total_variance: trace(C), the sum over its full spectrum.
    frobenius_sq: ||C||_F^2 = ||G||_F^2 / (n - 1)^2 of fit_pca's Gram matrix G on
    either solve path; None for a model read from file, which does not store it.
    """

    loadings: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float
    n_train: int
    params: StandardizationParams | None = None
    frobenius_sq: float | None = None

    def __post_init__(self):
        self.loadings = np.asarray(self.loadings, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.loadings.ndim != 2:
            raise ValueError("loadings must be 2-D")
        k = self.loadings.shape[1]
        if self.eigenvalues.shape != (k,):
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
    def explained_variance_ratio(self) -> np.ndarray:
        """Eigenvalues over the total variance of C."""
        if self.total_variance > 0:
            return self.eigenvalues / self.total_variance
        return np.zeros_like(self.eigenvalues)

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
            total_variance=self.total_variance,
            n_train=self.n_train,
            params=self.params,
            frobenius_sq=self.frobenius_sq,
        )


@dataclass(eq=False)
class PcScores:
    """Per-sample coordinates on the model's components.

    ``model_fingerprint`` ties the scores to the exact model that produced
    them, so downstream consumers can refuse scores from a different fit.
    """

    scores: np.ndarray
    sample_ids: tuple[str, ...]
    model_fingerprint: str

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.sample_ids = tuple(self.sample_ids)
        if self.scores.ndim != 2 or self.scores.shape[0] != len(self.sample_ids):
            raise ValueError("scores must be (n_samples, k)")

    @property
    def k(self) -> int:
        return self.scores.shape[1]


def standardize(matrix: GenotypeMatrix) -> tuple[np.ndarray, StandardizationParams]:
    """Center each dosage column and divide it by its sample standard
    deviation (n - 1 divisor); drop constant columns.

    Parameters
    ----------
    matrix : GenotypeMatrix
        Complete matrix: run ``fill_missing_mean`` first. It is not changed.

    Returns
    -------
    (ndarray, StandardizationParams)
        The standardized matrix over retained columns, each of unit sample
        variance, and the parameters needed to apply the same transform to
        another cohort.

    Unlike ``fill_missing_mean``'s means, the mean and SD are numpy's plain
    column reductions, whose last bits depend on the layout of
    ``matrix.dosage``; the CLI passes the F-ordered panel columns.

    Raises
    ------
    NoVariantsRetained
        If every column is constant.
    """
    if matrix.missing_mask.any():
        raise ValueError("matrix has missing dosages; run fill_missing_mean first")
    if matrix.n_samples < 2:
        raise DimensionError("standardization needs at least 2 samples")
    mean = matrix.dosage.mean(axis=0)
    sd = matrix.dosage.std(axis=0, ddof=1)
    keep = sd > 0.0
    if not keep.any():
        raise NoVariantsRetained("every column is constant")
    kept_idx = np.flatnonzero(keep)
    params = StandardizationParams(
        variant_ids=tuple(matrix.variants[j].id for j in kept_idx),
        mean=mean[keep],
        scale=sd[keep],
        dropped_variants=tuple(matrix.variants[j].id for j in np.flatnonzero(~keep)),
    )
    # Fancy indexing copies, so X is standardized in place without touching matrix.
    X = matrix.dosage[:, kept_idx]
    X -= params.mean
    X /= params.scale
    return X, params


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
    # trace(C): the full spectrum's sum, also the denominator of the ratio.
    total_variance = float(np.square(X).sum()) / (n - 1)
    gram = X.T @ X if n > m else X @ X.T
    frobenius_sq = float(np.vdot(gram, gram)) / (n - 1) ** 2
    try:
        top = _top_eigenpairs(gram, k_max)
        if top is None:
            gram_values, gram_vectors = np.linalg.eigh(gram)  # sorted ascending
            top = gram_values[::-1][:k_max], gram_vectors[:, ::-1][:, :k_max]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    del gram
    squared, vectors = np.clip(top[0], 0.0, None), top[1]  # clip round-off
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
    return PcaModel(
        loadings=loadings,
        eigenvalues=eigenvalues,
        total_variance=total_variance,
        n_train=n,
        params=params,
        frobenius_sq=frobenius_sq,
    )


def _top_eigenpairs(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``k`` leading eigenpairs of PSD ``gram``, values nonincreasing, or None.

    Each block of the basis Q is G times the last, orthogonalized twice against
    Q; Q^T G Q grows a block column at a time from that one product, and each
    check takes its Ritz pairs' residuals ||G v - theta v|| from one product of
    G with the k vectors. None where the capped basis holds too few blocks or
    fills before every pair meets the residual rule.

    Both products are written into preallocated F-ordered buffers: OpenBLAS
    computes a C-ordered result (``gram @ x``) in the transposed orientation,
    which at 2,093^2 and 8 columns took 1.5-1.7x as long. On OpenBLAS 0.3.31
    the two orientations gave the same bits for 1 to 11 columns at 24 orders
    from 777 to 3,000, at 1 and 2 threads: every product of ``--k`` up to 7
    and of ``--k auto`` before it doubles k. From 12 columns on they differed
    at 1 thread at every sampled order not a multiple of 8, so such a fit may
    differ in the last digits from one that earlier versions wrote.
    """
    order, block = gram.shape[0], max(8, k + 3)
    blocks = order // (2 * block)
    if blocks < _KRYLOV_MIN_BLOCKS:
        return None
    # F order, so only the columns in use become resident, and a product reads as a basis block.
    basis = np.empty((order, blocks * block), order="F")
    product = np.empty((order, block), order="F")
    applied = np.empty((order, k), order="F")
    projected = np.zeros((0, 0))
    step = np.random.default_rng(0).standard_normal((order, block))
    for done in range(block, blocks * block + 1, block):
        new = slice(done - block, done)
        for _ in range(2):
            old = basis[:, : done - block]
            step = np.linalg.qr(step - old @ (old.T @ step))[0]
        basis[:, new] = step
        np.matmul(gram, step, out=product)
        projected = np.pad(projected, (0, block))
        projected[:, new] = basis[:, :done].T @ product
        if done % (4 * block) == 0 or done == blocks * block:
            values, ritz = np.linalg.eigh(projected, UPLO="U")
            values, ritz = values[::-1][:k], ritz[:, ::-1][:, :k]
            vectors = basis[:, :done] @ ritz
            np.matmul(gram, vectors, out=applied)
            residual = np.linalg.norm(applied - vectors * values, axis=0)
            if np.all(residual <= _RESIDUAL_TOLERANCE * max(values[0], 0.0)):
                return values, vectors
        step = product
    return None


def project(model: PcaModel, matrix: GenotypeMatrix) -> PcScores:
    """Project a cohort onto a fitted model's components.

    Columns are looked up by variant id, gathered in model order into a
    block of _SCORE_BLOCK rows, then centered and scaled with the *training*
    parameters; scores are the product of each block with the loading
    matrix, so that a sample's row does not depend on the rest of its
    cohort (see the README's row independence for the builds this was
    verified on) and projecting the training cohort reproduces ``fit``'s
    training scores bitwise. The matrix is not copied: memory beyond the
    scores is a few row blocks.

    A missing call is filled in the block with its column's observed mean
    in this file, the value ``fill_missing_mean`` gives, so projecting the
    parsed file and projecting its filled panel columns agree bitwise. Until
    the model stores training means (ROADMAP item 2), a sample's PCs then
    depend on the other samples in its file.

    Raises
    ------
    MissingModelVariants
        If the cohort lacks any variant the model retained.
    AllMissingVariant
        If a model variant has no observed call in the cohort.
    """
    if model.params is None:
        raise ValueError("model carries no standardization params; cannot project")
    ids = model.params.variant_ids
    index = matrix.variant_index()
    missing = [vid for vid in ids if vid not in index]
    if missing:
        raise MissingModelVariants(missing)
    cols = np.asarray([index[vid] for vid in ids], dtype=np.intp)
    incomplete = matrix.missing_mask.any(axis=0)[cols]
    means = np.zeros(len(cols))
    at = np.flatnonzero(incomplete)
    means[at] = _observed_means(matrix.dosage, matrix.missing_mask, matrix.variant_ids, cols[at])

    def gather(out: np.ndarray, start: int) -> None:
        rows = slice(start, start + len(out))
        for chunk in _blocks(_SCORE_BLOCK, len(cols)):
            part = out[:, chunk]
            part[...] = matrix.dosage[rows, cols[chunk]]
            if incomplete[chunk].any():
                np.copyto(part, means[chunk], where=matrix.missing_mask[rows, cols[chunk]])
            part -= model.params.mean[chunk]
            part /= model.params.scale[chunk]

    return PcScores(
        scores=_pc_scores(model.loadings, matrix.n_samples, gather),
        sample_ids=matrix.sample_ids,
        model_fingerprint=pca_model_fingerprint(model),
    )


def _pc_scores(
    loadings: np.ndarray, n: int, gather: Callable[[np.ndarray, int], None]
) -> np.ndarray:
    """The (n, k) scores of n standardized rows on ``loadings`` (m, k).

    Each block of _SCORE_BLOCK rows from ``start`` is written by
    ``gather(out, start)`` into ``out``, the leading rows of one F-ordered
    (_SCORE_BLOCK, m) buffer whose rows past the cohort's end are zero. Each
    product takes the whole buffer and keeps its filled rows.
    """
    block = np.zeros((_SCORE_BLOCK, loadings.shape[0]), order="F")
    scores = np.empty((n, loadings.shape[1]))
    for start in range(0, n, _SCORE_BLOCK):
        stop = min(start + _SCORE_BLOCK, n)
        gather(block[: stop - start], start)
        block[stop - start :] = 0.0
        scores[start:stop] = (block @ loadings)[: stop - start]
    return scores


def select_k(model: PcaModel) -> int:
    """Count of leading components significant by the Tracy-Widom test at 5%.

    The sequential test of Patterson, Price & Reich (2006) on the model's
    eigenvalues of C, from fit_pca: lambda_j is normalized by the effective
    size n' of the q = min(n - 1, m) - j + 1 eigenvalues left, whose sum and
    sum of squares are trace(C) and ||C||_F^2 less those already tested, and
    is significant above the TW1 95% quantile (Tracy & Widom, 1996). Testing
    stops at the first eigenvalue that is not; q < 3, a denominator <= 0,
    n' <= 1 and an eigenvalue zero to working precision (round-off then rules
    the tail sums) count as not. Returns at least 1; when all ``model.k``
    components pass, it logs a warning and returns ``model.k``.

    Raises
    ------
    ValueError
        If the model lacks ||C||_F^2, as a model read from file does.
    """
    significant = _significant_count(model)
    if significant == model.k:
        logger.warning("all %d components pass the Tracy-Widom test; keeping all", model.k)
    return max(1, significant)


def _significant_count(model: PcaModel) -> int:
    """select_k's count of significant leading components, possibly 0, without its warning."""
    if model.frobenius_sq is None:
        raise ValueError(
            "model carries no ||C||_F^2, as one read from file does; select k on a fitted model"
        )
    p = min(model.n_train - 1, model.n_variants)
    s1, s2 = model.total_variance, model.frobenius_sq
    zero = float(model.eigenvalues[0]) * p * np.finfo(np.float64).eps
    significant = 0
    for j, lam in enumerate(model.eigenvalues.tolist(), start=1):
        q = p - j + 1
        denominator = (q - 1) * s2 - s1 * s1
        n_eff = (q + 1) * s1 * s1 / denominator if denominator > 0 else 0.0
        if q < 3 or lam <= zero or n_eff <= 1:
            break
        root = math.sqrt(n_eff - 1) + math.sqrt(q)
        sigma = root / n_eff * (1 / math.sqrt(n_eff - 1) + 1 / math.sqrt(q)) ** (1 / 3)
        if (q * lam / s1 - root * root / n_eff) / sigma <= _TW1_QUANTILE_95:
            break
        significant = j
        s1 -= lam
        s2 -= lam * lam
    return significant


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def serialize_pca_model(model: PcaModel) -> str:
    """Render a model as versioned text: its fields, then one ``id mean scale
    loading_1 .. loading_k`` row per variant. 17 significant digits round-trip
    every float64 exactly, so load-after-save projects bitwise identically."""
    if model.params is None:
        raise ValueError("cannot serialize a model without standardization params")
    p = model.params
    fields = {
        "n_train": str(model.n_train),
        "n_variants": str(model.n_variants),
        "n_components": str(model.k),
        "total_variance": _real(model.total_variance),
        "dropped": " ".join(p.dropped_variants),
        "eigenvalues": " ".join(map(_real, model.eigenvalues.tolist())),
    }
    table = np.column_stack([p.mean, p.scale, model.loadings]).tolist()
    rows = (" ".join([vid, *map(_real, values)]) for vid, values in zip(p.variant_ids, table))
    return _model_text(_MODEL_MAGIC, fields, rows)


def pca_model_fingerprint(model: PcaModel) -> str:
    """SHA-256 of the serialized model text; equals the digest of a saved file."""
    return hashlib.sha256(serialize_pca_model(model).encode("utf-8")).hexdigest()


def save_pca_model(model: PcaModel, dest) -> None:
    with _text_dest(dest) as out:
        out.write(serialize_pca_model(model))


def load_pca_model(source) -> PcaModel:
    """Read back a model written by :func:`save_pca_model`."""
    fields, rows = _read_model(source, _MODEL_MAGIC, _MODEL_KEYS, "PCA model", "n_variants")
    k = _ascii_int(fields["n_components"])
    if not rows:
        raise ValueError("PCA model has no variants")
    if any(row.count(" ") != 2 + k for row in rows):
        raise ValueError(f"a PCA model row does not hold an id and {2 + k} numbers")
    variant_ids, numbers = zip(*(row.split(" ", 1) for row in rows))
    table = np.array([_reals(text) for text in numbers])
    dropped = fields["dropped"]
    params = StandardizationParams(
        variant_ids=variant_ids,
        mean=table[:, 0].copy(),
        scale=table[:, 1].copy(),
        dropped_variants=tuple(dropped.split(" ")) if dropped else (),
    )
    return PcaModel(
        loadings=np.ascontiguousarray(table[:, 2:]),
        eigenvalues=_reals(fields["eigenvalues"]),
        total_variance=_vcf_float(fields["total_variance"]),
        n_train=_ascii_int(fields["n_train"]),
        params=params,
    )
