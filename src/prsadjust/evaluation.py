"""Cohort-level evaluation: percentile stratification and ROC/AUC.

The AUC here is computed from integer true/false-positive counts and
divided exactly once at the end, which makes the trapezoidal area equal
the pairwise Mann-Whitney statistic

    [#(score_pos > score_neg) + 0.5 * #(score_pos == score_neg)] / (n_pos * n_neg)

to the last bit rather than merely approximately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateLabels, EmptyInput
from .genotypes import SampleRecord
from .io import CohortReport, ReportRow, _format_real, _real, _text_dest, _write_key_values
from .pca import PcScores
from .scoring import PrsVector

DEFAULT_HIGH_RISK_PERCENTILE = 76.0


@dataclass(frozen=True)
class PopulationSummary:
    """Score distribution and high-risk share of one population."""

    population: str
    n: int
    mean_raw: float
    sd_raw: float
    mean_adjusted: float
    sd_adjusted: float
    n_highrisk_raw: int
    n_highrisk_adjusted: int

    @property
    def highrisk_raw(self) -> float:
        return self.n_highrisk_raw / self.n

    @property
    def highrisk_adjusted(self) -> float:
        return self.n_highrisk_adjusted / self.n


@dataclass(eq=False)
class RocResult:
    """One ROC curve: (fpr, tpr) points over descending thresholds, plus AUC."""

    points: np.ndarray
    auc: float
    n_pos: int
    n_neg: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (p, 2)")


@dataclass(eq=False)
class ModelComparison:
    """Raw-versus-adjusted discrimination on one labeled cohort."""

    roc_raw: RocResult
    roc_adjusted: RocResult

    @property
    def auc_raw(self) -> float:
        return self.roc_raw.auc

    @property
    def auc_adjusted(self) -> float:
        return self.roc_adjusted.auc

    @property
    def delta(self) -> float:
        return self.auc_adjusted - self.auc_raw


def percentile_threshold(scores: Sequence[float] | np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n), 1-based.

    With scores 1..100 and percentile 76 the threshold is 76, leaving
    exactly the top 24 values strictly above it.

    Raises
    ------
    EmptyInput
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("cannot take a percentile of zero scores")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    n = values.size
    # Multiply before dividing and allow a tiny slack so that exact-integer
    # ranks are not pushed up by decimal representation error.
    rank = math.ceil(percentile * n / 100.0 - 1e-9)
    rank = min(max(rank, 1), n)
    return float(np.sort(values)[rank - 1])


def high_risk(scores: Sequence[float] | np.ndarray, threshold: float) -> np.ndarray:
    """Boolean mask of scores strictly above the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold


def stratify_by_population(
    rows: Sequence[ReportRow],
    percentile: float = DEFAULT_HIGH_RISK_PERCENTILE,
) -> tuple[PopulationSummary, ...]:
    """Per-population score summaries against pooled high-risk thresholds.

    Thresholds for the raw and the adjusted score are each taken on the
    pooled cohort, then every population's fraction above them is
    reported. Weighted by population sizes, the per-population counts add
    back up to the pooled count exactly. Populations are ordered by label;
    samples without a population label are grouped under ".".

    Raises
    ------
    EmptyInput
    """
    if not rows:
        raise EmptyInput("no rows to stratify")
    raw = np.array([r.raw_prs for r in rows])
    adjusted = np.array([r.adjusted_prs for r in rows])
    threshold_raw = percentile_threshold(raw, percentile)
    threshold_adjusted = percentile_threshold(adjusted, percentile)
    groups: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        label = row.population if row.population is not None else "."
        groups.setdefault(label, []).append(i)
    summaries = []
    for label in sorted(groups):
        idx = np.asarray(groups[label], dtype=int)
        r, a = raw[idx], adjusted[idx]
        summaries.append(
            PopulationSummary(
                population=label,
                n=idx.size,
                mean_raw=float(r.mean()),
                sd_raw=float(r.std(ddof=1)) if idx.size > 1 else float("nan"),
                mean_adjusted=float(a.mean()),
                sd_adjusted=float(a.std(ddof=1)) if idx.size > 1 else float("nan"),
                n_highrisk_raw=int(np.count_nonzero(high_risk(r, threshold_raw))),
                n_highrisk_adjusted=int(np.count_nonzero(high_risk(a, threshold_adjusted))),
            )
        )
    return tuple(summaries)


def roc_auc(scores: Sequence[float] | np.ndarray, labels: Sequence[bool]) -> RocResult:
    """ROC curve over all distinct thresholds, descending, and its exact AUC.

    The curve starts at (0, 0), ends at (1, 1), and both coordinates are
    nondecreasing. Tied scores move diagonally in one step, which is what
    makes the trapezoidal area match the pairwise statistic exactly.

    Raises
    ------
    EmptyInput, DegenerateLabels
    """
    values = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(labels, dtype=bool)
    if values.size == 0:
        raise EmptyInput("no scores to rank")
    if values.shape != flags.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    n_pos = int(np.count_nonzero(flags))
    n_neg = int(flags.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} positive / {n_neg} negative")
    order = np.argsort(-values, kind="stable")
    sorted_scores = values[order]
    sorted_flags = flags[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    area_twice = 0  # integer accumulator in units of 1 / (2 * n_pos * n_neg)
    i = 0
    n = values.size
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        d_tp = int(np.count_nonzero(sorted_flags[i:j]))
        d_fp = (j - i) - d_tp
        area_twice += d_fp * (2 * tp + d_tp)
        tp += d_tp
        fp += d_fp
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = area_twice / (2 * n_pos * n_neg)
    return RocResult(
        points=np.asarray(points), auc=auc, n_pos=n_pos, n_neg=n_neg
    )


def compare_models(
    raw: Sequence[float] | np.ndarray,
    adjusted: Sequence[float] | np.ndarray,
    labels: Sequence[bool],
) -> ModelComparison:
    """ROC/AUC for raw and adjusted scores over the same labeled samples.

    ``roc_auc`` refuses either score list if its length differs from the labels.
    """
    return ModelComparison(roc_raw=roc_auc(raw, labels), roc_adjusted=roc_auc(adjusted, labels))


def scores_to_report(
    samples: Sequence[SampleRecord],
    pcs: PcScores,
    raw: PrsVector,
    adjusted: PrsVector,
) -> CohortReport:
    """Assemble per-sample rows from pipeline outputs over one cohort."""
    ids = tuple(s.sample_id for s in samples)
    if ids != pcs.sample_ids or ids != raw.sample_ids or ids != adjusted.sample_ids:
        raise ValueError("samples, PCs and scores are not aligned")
    rows = tuple(
        ReportRow(
            sample_id=rec.sample_id,
            population=rec.population,
            pcs=tuple(float(v) for v in pcs.scores[i]),
            raw_prs=float(raw.scores[i]),
            adjusted_prs=float(adjusted.scores[i]),
            obese=rec.obese,
        )
        for i, rec in enumerate(samples)
    )
    return CohortReport(rows=rows)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_roc_csv(roc: RocResult, dest) -> None:
    """Write ROC points as ``fpr,tpr`` CSV in sweep order."""
    with _text_dest(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in roc.points:
            writer.writerow([_format_real(fpr), _format_real(tpr)])


def write_population_summary_csv(summaries: Iterable[PopulationSummary], dest) -> None:
    with _text_dest(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "population",
                "n",
                "mean_raw",
                "sd_raw",
                "mean_adjusted",
                "sd_adjusted",
                "highrisk_raw",
                "highrisk_adjusted",
            ]
        )
        for s in summaries:
            writer.writerow(
                [
                    s.population,
                    s.n,
                    _format_real(s.mean_raw),
                    _format_real(s.sd_raw),
                    _format_real(s.mean_adjusted),
                    _format_real(s.sd_adjusted),
                    _format_real(s.highrisk_raw),
                    _format_real(s.highrisk_adjusted),
                ]
            )


def write_metrics(metrics: Mapping[str, float | int | str], dest) -> None:
    """Write metrics as ``key=value`` lines in the mapping's order; a real by
    ``_real``, "." if it is not finite."""
    pairs = []
    for key, value in metrics.items():
        if isinstance(value, float):
            value = _real(value) if math.isfinite(value) else None
        pairs.append((key, value))
    _write_key_values(pairs, dest)
