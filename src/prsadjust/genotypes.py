"""Core genotype data model and the operations that prepare it for scoring.

Dosages count copies of a variant's alt allele per sample: 0, 1 or 2 for
hard calls, fractional in [0, 2] for imputed data. A boolean mask marks
missing entries; values stored under the mask carry no meaning and must
never be read. All operations return new objects, preserve sample order
and never mutate their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlleleMismatch, AllMissingVariant, EmptyIntersection

SEX_TOKENS = ("male", "female", "unknown")
OBESITY_BMI_THRESHOLD = 27.0

_ALLELE_RE = re.compile(r"[ACGT]+\Z")
_COMPLEMENT = str.maketrans("ACGT", "TGCA")


def reverse_complement(allele: str) -> str:
    """Reverse complement of an ACGT allele string."""
    return allele.translate(_COMPLEMENT)[::-1]


def is_strand_ambiguous(ref: str, alt: str) -> bool:
    """True when the pair reads the same on both strands (A/T or C/G style).

    For such variants an effect allele reported on the opposite strand is
    indistinguishable from one reported on the same strand, so no safe
    automatic alignment exists.
    """
    return ref == reverse_complement(alt)


@dataclass(frozen=True)
class Variant:
    """A biallelic variant; dosages count copies of ``alt_allele``."""

    id: str
    chromosome: str
    position: int
    ref_allele: str
    alt_allele: str

    def __post_init__(self):
        if not self.id or " " in self.id:  # model files separate ids by spaces
            raise ValueError(f"variant id {self.id!r} must be non-empty and hold no space")
        if not self.chromosome:
            raise ValueError(f"variant {self.id}: chromosome must be non-empty")
        if self.position < 1:
            raise ValueError(f"variant {self.id}: position must be >= 1")
        for label, allele in (("ref", self.ref_allele), ("alt", self.alt_allele)):
            if not _ALLELE_RE.match(allele):
                raise ValueError(
                    f"variant {self.id}: {label} allele {allele!r} is not an uppercase ACGT run"
                )
        if self.ref_allele == self.alt_allele:
            raise ValueError(f"variant {self.id}: ref and alt alleles are identical")


@dataclass(frozen=True)
class SampleRecord:
    """One cohort member with optional phenotype fields."""

    sample_id: str
    population: str | None = None
    sex: str | None = None
    bmi: float | None = None

    def __post_init__(self):
        if not self.sample_id:
            raise ValueError("sample_id must be non-empty")
        if self.sex is not None and self.sex not in SEX_TOKENS:
            raise ValueError(f"sample {self.sample_id}: sex {self.sex!r} not in {SEX_TOKENS}")
        if self.bmi is not None and not np.isfinite(self.bmi):
            raise ValueError(f"sample {self.sample_id}: bmi must be finite")

    @property
    def obese(self) -> bool | None:
        """The obesity label: BMI strictly above the threshold, None without a BMI."""
        return None if self.bmi is None else self.bmi > OBESITY_BMI_THRESHOLD


@dataclass(frozen=True)
class PanelDefinition:
    """An ordered, duplicate-free list of variant ids."""

    name: str
    variant_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variant_ids", tuple(self.variant_ids))
        if not self.variant_ids:
            raise ValueError(f"panel {self.name!r} is empty")
        if len(set(self.variant_ids)) != len(self.variant_ids):
            raise ValueError(f"panel {self.name!r} contains duplicate variant ids")

    def __len__(self) -> int:
        return len(self.variant_ids)


@dataclass(frozen=True)
class WeightRow:
    """One scoring weight: the effect allele and its per-copy weight."""

    variant_id: str
    effect_allele: str
    other_allele: str | None
    weight: float

    def __post_init__(self):
        if not self.variant_id:
            raise ValueError("weight row variant_id must be non-empty")
        if not _ALLELE_RE.match(self.effect_allele):
            raise ValueError(
                f"weight row {self.variant_id}: effect allele {self.effect_allele!r} "
                "is not an uppercase ACGT run"
            )
        if self.other_allele is not None and not _ALLELE_RE.match(self.other_allele):
            raise ValueError(
                f"weight row {self.variant_id}: other allele {self.other_allele!r} "
                "is not an uppercase ACGT run"
            )
        if not np.isfinite(self.weight):
            raise ValueError(f"weight row {self.variant_id}: weight must be finite")


@dataclass(frozen=True)
class ScoreWeightTable:
    """Scoring weights in a fixed row order; variant ids are unique."""

    rows: tuple[WeightRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for row in self.rows:
            if row.variant_id in seen:
                raise ValueError(f"weight table repeats variant {row.variant_id}")
            seen.add(row.variant_id)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def variant_ids(self) -> tuple[str, ...]:
        return tuple(row.variant_id for row in self.rows)


@dataclass(eq=False)
class GenotypeMatrix:
    """Dosage matrix of shape (n_samples, n_variants) plus a missing mask.

    Invariants checked at construction: shapes agree with the sample and
    variant lists, ids are unique on both axes, and every observed entry
    lies in [0, 2].
    """

    samples: tuple[SampleRecord, ...]
    variants: tuple[Variant, ...]
    dosage: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self.variants = tuple(self.variants)
        self.dosage = np.asarray(self.dosage, dtype=np.float64)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        n, m = len(self.samples), len(self.variants)
        if self.dosage.shape != (n, m):
            raise ValueError(f"dosage shape {self.dosage.shape} != ({n}, {m})")
        if self.missing_mask.shape != (n, m):
            raise ValueError(f"missing_mask shape {self.missing_mask.shape} != ({n}, {m})")
        if len({s.sample_id for s in self.samples}) != n:
            raise ValueError("duplicate sample ids in matrix")
        if len({v.id for v in self.variants}) != m:
            raise ValueError("duplicate variant ids in matrix")
        in_range = (self.dosage >= 0.0) & (self.dosage <= 2.0)
        if not bool(np.all(in_range | self.missing_mask)):
            raise ValueError("observed dosages must lie in [0, 2]")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_variants(self) -> int:
        return len(self.variants)

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(s.sample_id for s in self.samples)

    @property
    def variant_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variants)

    def variant_index(self) -> dict[str, int]:
        return {v.id: j for j, v in enumerate(self.variants)}

    def take_variants(self, indices: Sequence[int]) -> "GenotypeMatrix":
        """New matrix with the given variant columns, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return GenotypeMatrix(
            samples=self.samples,
            variants=tuple(self.variants[j] for j in idx),
            dosage=self.dosage[:, idx],
            missing_mask=self.missing_mask[:, idx],
        )

    def take_samples(self, indices: Sequence[int]) -> "GenotypeMatrix":
        """New matrix with the given sample rows, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return GenotypeMatrix(
            samples=tuple(self.samples[i] for i in idx),
            variants=self.variants,
            dosage=self.dosage[idx, :],
            missing_mask=self.missing_mask[idx, :],
        )


@dataclass(frozen=True)
class PanelCoverageReport:
    """How much of a panel a matrix actually covered."""

    panel_name: str
    n_panel: int
    n_matched: int
    missing_ids: tuple[str, ...]


@dataclass(frozen=True)
class AlignmentReport:
    """Audit trail of effect-allele alignment.

    flipped: variants whose dosages were recoded to count the effect allele.
    excluded: strand-ambiguous variants, dropped.
    """

    flipped: tuple[str, ...]
    excluded: tuple[str, ...]


def filter_by_panel(
    matrix: GenotypeMatrix, panel: PanelDefinition
) -> tuple[GenotypeMatrix, PanelCoverageReport]:
    """Restrict a matrix to the panel's variants, in panel order.

    Parameters
    ----------
    matrix : GenotypeMatrix
        Input cohort; not modified.
    panel : PanelDefinition
        Ordered variant id list to intersect with.

    Returns
    -------
    (GenotypeMatrix, PanelCoverageReport)
        The matrix restricted to panel ∩ matrix in panel order, and a
        report listing panel ids the matrix lacks.

    Raises
    ------
    EmptyIntersection
        If no panel variant is present in the matrix.
    """
    index = matrix.variant_index()
    matched: list[int] = []
    missing: list[str] = []
    for vid in panel.variant_ids:
        j = index.get(vid)
        if j is None:
            missing.append(vid)
        else:
            matched.append(j)
    if not matched:
        raise EmptyIntersection(
            f"panel {panel.name!r} shares no variants with the matrix "
            f"({len(panel)} panel ids, {matrix.n_variants} matrix variants)"
        )
    report = PanelCoverageReport(
        panel_name=panel.name,
        n_panel=len(panel),
        n_matched=len(matched),
        missing_ids=tuple(missing),
    )
    return matrix.take_variants(matched), report


def align_effect_alleles(
    matrix: GenotypeMatrix,
    weights: ScoreWeightTable,
) -> tuple[GenotypeMatrix, AlignmentReport]:
    """Recode dosages so they count each weight's effect allele.

    For every weight-table variant found in the matrix the effect allele is
    matched against the variant's alleles on both strands:

    * effect == alt: dosages already count the effect allele, unchanged;
    * effect == ref: dosages recoded d -> 2 - d (missing stays missing);
    * effect == reverse complement of alt / ref: same two cases, the weight
      source just reported the opposite strand.

    Strand-ambiguous variants (A/T, C/G style pairs) cannot be resolved by
    complementing, so they are dropped from the returned matrix and listed
    in the report's ``excluded``.

    Flipped variants also swap their ref/alt metadata, so in the returned
    matrix dosages still count alt copies and re-aligning with the same
    weights changes nothing. Matrix variants that have no weight row pass
    through untouched.

    Raises
    ------
    AlleleMismatch
        If an effect allele matches neither allele on either strand, which
        signals weights built against a different reference.
    """
    index = matrix.variant_index()
    flip: set[int] = set()
    drop: set[int] = set()
    flipped_ids: list[str] = []
    excluded_ids: list[str] = []
    for row in weights.rows:
        j = index.get(row.variant_id)
        if j is None:
            continue
        variant = matrix.variants[j]
        ref, alt, eff = variant.ref_allele, variant.alt_allele, row.effect_allele
        if is_strand_ambiguous(ref, alt):
            drop.add(j)
            excluded_ids.append(variant.id)
            continue
        if eff == alt:
            continue
        if eff == ref:
            flip.add(j)
            flipped_ids.append(variant.id)
            continue
        # Same alleles read off the opposite strand.
        if eff == reverse_complement(alt):
            continue
        if eff == reverse_complement(ref):
            flip.add(j)
            flipped_ids.append(variant.id)
            continue
        raise AlleleMismatch(
            f"variant {variant.id}: effect allele {eff!r} matches neither "
            f"ref {ref!r} nor alt {alt!r} on either strand"
        )
    dosage = matrix.dosage.copy()
    variants = list(matrix.variants)
    for j in flip:
        dosage[:, j] = 2.0 - dosage[:, j]
        old = variants[j]
        variants[j] = Variant(
            id=old.id,
            chromosome=old.chromosome,
            position=old.position,
            ref_allele=old.alt_allele,
            alt_allele=old.ref_allele,
        )
    aligned = GenotypeMatrix(
        samples=matrix.samples,
        variants=tuple(variants),
        dosage=dosage,
        missing_mask=matrix.missing_mask.copy(),
    )
    if drop:
        keep_idx = [j for j in range(matrix.n_variants) if j not in drop]
        aligned = aligned.take_variants(keep_idx)
    return aligned, AlignmentReport(flipped=tuple(flipped_ids), excluded=tuple(excluded_ids))


def fill_missing_mean(matrix: GenotypeMatrix) -> GenotypeMatrix:
    """Replace missing dosages with the per-variant observed mean.

    The observed values are untouched, so each column keeps its observed
    mean. Returns the input unchanged when nothing is missing.

    Raises
    ------
    AllMissingVariant
        If some variant has no observed dosage at all.
    """
    if not matrix.missing_mask.any():
        return matrix
    observed = ~matrix.missing_mask
    counts = observed.sum(axis=0)
    if (counts == 0).any():
        bad = [matrix.variants[j].id for j in np.flatnonzero(counts == 0)]
        raise AllMissingVariant(
            f"variant {bad[0]} has no observed dosages"
            + (f" ({len(bad)} variants affected)" if len(bad) > 1 else "")
        )
    sums = np.where(observed, matrix.dosage, 0.0).sum(axis=0)
    means = sums / counts
    filled = np.where(observed, matrix.dosage, means[np.newaxis, :])
    return GenotypeMatrix(
        samples=matrix.samples,
        variants=matrix.variants,
        dosage=filled,
        missing_mask=np.zeros_like(matrix.missing_mask),
    )
