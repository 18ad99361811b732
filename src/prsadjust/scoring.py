"""Raw polygenic score computation: a weighted sum of effect-allele dosages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoUsableVariants
from .genotypes import GenotypeMatrix, ScoreWeightTable


@dataclass(eq=False)
class PrsVector:
    """Per-sample scores, in sample order."""

    scores: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.sample_ids = tuple(self.sample_ids)
        if self.scores.shape != (len(self.sample_ids),):
            raise ValueError("scores must be one value per sample")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


def compute_raw_prs(matrix: GenotypeMatrix, weights: ScoreWeightTable) -> PrsVector:
    """Score every sample as sum_i w_i * dosage_i over usable weight rows.

    The matrix must already count effect alleles (see
    ``align_effect_alleles``) and contain no missing entries on the scored
    variants. Weight rows absent from the matrix are skipped; the weight
    coverage is ``align_effect_alleles``' report. Accumulation follows
    weight-table row order, one variant at a time, so results are
    reproducible bitwise.

    Raises
    ------
    NoUsableVariants
        If no weight row matches a matrix variant.
    """
    index = matrix.variant_index()
    used = [(index[row.variant_id], row.weight) for row in weights.rows if row.variant_id in index]
    if not used:
        raise NoUsableVariants(
            f"none of the {len(weights)} weight variants is present in the matrix"
        )
    used_cols = np.asarray([j for j, _ in used], dtype=int)
    if matrix.missing_mask.any(axis=0)[used_cols].any():
        raise ValueError("matrix has missing dosages on scored variants; fill first")
    scores = np.zeros(matrix.n_samples, dtype=np.float64)
    for j, weight in used:
        scores += weight * matrix.dosage[:, j]
    return PrsVector(scores=scores, sample_ids=matrix.sample_ids)
