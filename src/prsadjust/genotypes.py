"""Core genotype data model and the operations that prepare it for scoring.

Dosages count copies of a variant's alt allele per sample: 0, 1 or 2 for
hard calls, fractional in [0, 2] for imputed data. A boolean mask marks
missing entries; values stored under the mask carry no meaning and must
never be read. The operations preserve sample order and never mutate their
inputs; each returns a new object, except ``fill_missing_mean``, which
returns its input when nothing is missing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import AlleleMismatch, AllMissingVariant, EmptyIntersection

SEX_TOKENS = ("male", "female", "unknown")
OBESITY_BMI_THRESHOLD = 27.0

_ALLELE_RE = re.compile(r"[ACGT]+\Z")
# Characters that end a field or a line in the tab-separated files, so no
# id or label that is written to them may hold one.
_SEPARATORS = frozenset("\t\r\n")
_COMPLEMENT = str.maketrans("ACGT", "TGCA")
# Every pass over a whole matrix (range check, mean fill, projection gather,
# simulated draws, VCF writing) takes about this many cells at a time, so that
# none allocates a temporary the size of the matrix. No result depends on it.
_BLOCK_CELLS = 1 << 15


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


def _blocks(run_length: int, count: int) -> Iterator[slice]:
    """Slices that cover ``count`` runs of ``run_length`` cells in order
    (columns, rows or variants), each of about _BLOCK_CELLS cells (one run
    at least)."""
    width = max(1, _BLOCK_CELLS // max(1, run_length))
    return (slice(j, j + width) for j in range(0, count, width))


def _cell_blocks(dosage: np.ndarray, mask: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Matching blocks of a matrix's ``dosage`` and ``mask``, each of about
    _BLOCK_CELLS cells: runs of whole columns, or of whole rows where
    ``dosage`` is not F-ordered, so that a block is one stretch of memory."""
    if not dosage.flags.f_contiguous:
        dosage, mask = dosage.T, mask.T
    for cols in _blocks(*dosage.shape):
        yield dosage[:, cols], mask[:, cols]


@dataclass(frozen=True)
class Variant:
    """A biallelic variant; dosages count copies of ``alt_allele``."""

    id: str
    chromosome: str
    position: int
    ref_allele: str
    alt_allele: str

    def __post_init__(self):
        if not self.id or " " in self.id or not _SEPARATORS.isdisjoint(self.id):
            # model files separate ids by spaces, the VCF by tabs
            raise ValueError(
                f"variant id {self.id!r} must be non-empty and hold no space, tab or line break"
            )
        if not self.chromosome or not _SEPARATORS.isdisjoint(self.chromosome):
            raise ValueError(
                f"variant {self.id}: chromosome {self.chromosome!r} must be non-empty "
                "and hold no tab or line break"
            )
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
        if self.bmi is not None and self.bmi < 0:
            raise ValueError(f"sample {self.sample_id}: bmi {self.bmi!r} is negative")
        for label, text in (("sample_id", self.sample_id), ("population", self.population)):
            if text is not None and not _SEPARATORS.isdisjoint(text):
                raise ValueError(f"{label} {text!r} must hold no tab or line break")

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
        for vid in self.variant_ids:
            if not _SEPARATORS.isdisjoint(vid):
                raise ValueError(
                    f"panel {self.name!r}: variant id {vid!r} holds a tab or line break"
                )

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
        if not self.variant_id or not _SEPARATORS.isdisjoint(self.variant_id):
            raise ValueError(
                f"weight row variant_id {self.variant_id!r} must be non-empty "
                "and hold no tab or line break"
            )
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
        for block, missing in _cell_blocks(self.dosage, self.missing_mask):
            if not np.all((block >= 0.0) & (block <= 2.0) | missing):
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
    """Audit trail of the weight path: what became of each weight variant.

    flipped: variants whose dosages were recoded to count the effect allele.
    excluded: strand-ambiguous variants, dropped.
    absent: weight variants the matrix lacks.
    """

    flipped: tuple[str, ...]
    excluded: tuple[str, ...]
    absent: tuple[str, ...]


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
    """The matrix's weight columns, recoded to count each weight's effect allele.

    The result holds one column per weight variant the matrix has, in
    weight-table row order; matrix variants without a weight row are left
    out. Each effect allele is matched against its variant's alleles on
    both strands:

    * effect == alt, or its reverse complement: dosages copied unchanged;
    * effect == ref, or its reverse complement: dosages recoded d -> 2 - d
      (missing stays missing).

    Strand-ambiguous variants (A/T, C/G style pairs) cannot be resolved by
    complementing, so they are left out and listed in the report's
    ``excluded``; weight ids the matrix lacks are listed in ``absent``.

    Flipped variants also swap their ref/alt metadata, so in the returned
    matrix dosages still count alt copies and re-aligning with the same
    weights changes nothing. The columns are taken by one gather, and the
    flipped ones recoded in place in that copy.

    Raises
    ------
    AlleleMismatch
        If an effect allele matches neither allele on either strand, which
        signals weights built against a different reference.
    """
    index = matrix.variant_index()
    columns: list[tuple[int, bool]] = []  # (matrix column, flip)
    variants: list[Variant] = []
    flipped, excluded, absent = [], [], []
    for row in weights.rows:
        j = index.get(row.variant_id)
        if j is None:
            absent.append(row.variant_id)
            continue
        variant = matrix.variants[j]
        ref, alt, eff = variant.ref_allele, variant.alt_allele, row.effect_allele
        if is_strand_ambiguous(ref, alt):
            excluded.append(variant.id)
            continue
        # Without ambiguous pairs, {ref, rc(ref)} and {alt, rc(alt)} are disjoint.
        flip = eff in (ref, reverse_complement(ref))
        if flip:
            flipped.append(variant.id)
            variant = replace(variant, ref_allele=alt, alt_allele=ref)
        elif eff not in (alt, reverse_complement(alt)):
            raise AlleleMismatch(
                f"variant {variant.id}: effect allele {eff!r} matches neither "
                f"ref {ref!r} nor alt {alt!r} on either strand"
            )
        columns.append((j, flip))
        variants.append(variant)
    cols = np.asarray([j for j, _ in columns], dtype=np.intp)
    dosage = matrix.dosage[:, cols]
    missing_mask = matrix.missing_mask[:, cols]
    for t, (_, flip) in enumerate(columns):
        if flip:
            np.subtract(2.0, dosage[:, t], out=dosage[:, t])
    aligned = GenotypeMatrix(matrix.samples, tuple(variants), dosage, missing_mask)
    return aligned, AlignmentReport(tuple(flipped), tuple(excluded), tuple(absent))


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
    means = _observed_means(matrix.dosage, matrix.missing_mask, matrix.variant_ids)
    return GenotypeMatrix(
        samples=matrix.samples,
        variants=matrix.variants,
        dosage=np.where(matrix.missing_mask, means, matrix.dosage),
        missing_mask=np.zeros_like(matrix.missing_mask),
    )


def _observed_means(
    dosage: np.ndarray, missing: np.ndarray, ids: Sequence[str], cols: np.ndarray | None = None
) -> np.ndarray:
    """The mean of each column of ``dosage`` (of each in ``cols``, if given)
    over its entries that ``missing`` does not mark.

    Whatever the layout of ``dosage``, a column's sum is ``np.add.reduce`` of
    it as one contiguous 1-D run with 0.0 at missing calls, i.e. numpy's
    pairwise sum: the columns are copied into F-ordered blocks of about
    _BLOCK_CELLS cells and summed down their rows there. (numpy sums a
    C-ordered array of two or more columns row by row, which rounds
    differently in the last bits.)

    Raises
    ------
    AllMissingVariant
        If some chosen column has no observed entry; it names the first such
        by ``ids``, the variant ids of ``dosage``'s columns, and counts the
        others.
    """
    cols = np.arange(dosage.shape[1]) if cols is None else cols
    sums, counts = np.empty(len(cols)), np.empty(len(cols), dtype=np.intp)
    for part in _blocks(len(dosage), len(cols)):
        block_missing = np.asfortranarray(missing[:, cols[part]])
        block = np.asfortranarray(dosage[:, cols[part]])
        np.copyto(block, 0.0, where=block_missing)
        sums[part] = block.sum(axis=0)
        counts[part] = len(block) - np.count_nonzero(block_missing, axis=0)
    if (counts == 0).any():
        bad = [ids[j] for j in cols[counts == 0]]
        raise AllMissingVariant(
            f"variant {bad[0]} has no observed dosages"
            + (f" ({len(bad)} variants affected)" if len(bad) > 1 else "")
        )
    return sums / counts
