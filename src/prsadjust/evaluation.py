"""Cohort-level evaluation: percentile stratification and ROC/AUC.

The AUC here is computed from integer true/false-positive counts and
divided exactly once at the end, which makes the trapezoidal area equal
the pairwise Mann-Whitney statistic

    [#(score_pos > score_neg) + 0.5 * #(score_pos == score_neg)] / (n_pos * n_neg)

to the last bit rather than merely approximately.

It needs no numpy, so ``evaluate`` starts without loading it: the functions
work on lists and floats. A population's mean and SD are built on exact sums,
each rounded once, so they do not depend on the order of the rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DegenerateLabels, EmptyInput
from .text import CohortReport, ReportRow, _format_real, _real, _text_dest, _write_key_values

if TYPE_CHECKING:
    from .genotypes import SampleRecord
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

    points: tuple[tuple[float, float], ...]
    auc: float
    n_pos: int
    n_neg: int

    def __post_init__(self):
        self.points = tuple(tuple(map(float, point)) for point in self.points)
        if any(len(point) != 2 for point in self.points):
            raise ValueError("points must be (fpr, tpr) pairs")


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


def _require_finite(values: list[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError("scores must be finite")


def _sum(values: Sequence[float]) -> float:
    """The exact sum of ``values``, rounded once. ``math.fsum`` raises where
    the sum of infinities has no value or a sum leaves float64's range; then
    infinite values give their IEEE sum (NaN for both signs), and finite ones
    their exact integer sum in units of 2**-1074 divided once, or ±inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return sum(special)
        unit = 1 << 1074  # every finite float64 is a whole number of 2**-1074
        total = sum(n * (unit // d) for n, d in map(float.as_integer_ratio, values))
        try:
            return total / unit  # int division: correctly rounded
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample SD, from exact sums rounded once (:func:`_sum`): the
    sum over n, and the root of the sum of the squared deviations over n - 1
    (NaN for one value)."""
    n = len(values)
    mean = _sum(values) / n
    if n < 2:
        return mean, math.nan
    return mean, math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


def percentile_threshold(scores: Iterable[float], percentile: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n), 1-based.

    With scores 1..100 and percentile 76 the threshold is 76, leaving
    exactly the top 24 values strictly above it.

    Raises
    ------
    EmptyInput
    """
    values = list(map(float, scores))
    if not values:
        raise EmptyInput("cannot take a percentile of zero scores")
    _require_finite(values)
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    n = len(values)
    # Multiply before dividing and allow a tiny slack so that exact-integer
    # ranks are not pushed up by decimal representation error.
    rank = math.ceil(percentile * n / 100.0 - 1e-9)
    rank = min(max(rank, 1), n)
    return sorted(values)[rank - 1]


def high_risk(scores: Iterable[float], threshold: float) -> list[bool]:
    """Whether each score is strictly above the threshold."""
    return [float(score) > threshold for score in scores]


def stratify_by_population(
    rows: Sequence[ReportRow],
    percentile: float = DEFAULT_HIGH_RISK_PERCENTILE,
) -> tuple[PopulationSummary, ...]:
    """Per-population score summaries against pooled high-risk thresholds.

    Thresholds for the raw and the adjusted score are each taken on the
    pooled cohort, then every population's fraction above them is
    reported. Weighted by population sizes, the per-population counts add
    back up to the pooled count exactly. Populations are ordered by label;
    samples without a population label are grouped under ".". Means and
    SDs divide exact sums, each rounded once, so they are the same for any
    order of the rows.

    Raises
    ------
    EmptyInput
    """
    if not rows:
        raise EmptyInput("no rows to stratify")
    threshold_raw = percentile_threshold([r.raw_prs for r in rows], percentile)
    threshold_adjusted = percentile_threshold([r.adjusted_prs for r in rows], percentile)
    groups: dict[str, list[ReportRow]] = {}
    for row in rows:
        groups.setdefault(row.population if row.population is not None else ".", []).append(row)
    summaries = []
    for label in sorted(groups):
        raw = [float(r.raw_prs) for r in groups[label]]
        adjusted = [float(r.adjusted_prs) for r in groups[label]]
        mean_raw, sd_raw = _mean_sd(raw)
        mean_adjusted, sd_adjusted = _mean_sd(adjusted)
        summaries.append(
            PopulationSummary(
                population=label,
                n=len(raw),
                mean_raw=mean_raw,
                sd_raw=sd_raw,
                mean_adjusted=mean_adjusted,
                sd_adjusted=sd_adjusted,
                n_highrisk_raw=sum(high_risk(raw, threshold_raw)),
                n_highrisk_adjusted=sum(high_risk(adjusted, threshold_adjusted)),
            )
        )
    return tuple(summaries)


def roc_auc(scores: Iterable[float], labels: Iterable[bool]) -> RocResult:
    """ROC curve over all distinct thresholds, descending, and its exact AUC.

    The curve starts at (0, 0), ends at (1, 1), and both coordinates are
    nondecreasing. Tied scores move diagonally in one step, which is what
    makes the trapezoidal area match the pairwise statistic exactly.

    Raises
    ------
    EmptyInput, DegenerateLabels
    """
    values = list(map(float, scores))
    flags = list(map(bool, labels))
    if not values:
        raise EmptyInput("no scores to rank")
    if len(values) != len(flags):
        raise ValueError("scores and labels must have equal length")
    _require_finite(values)
    n_pos = sum(flags)
    n_neg = len(flags) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} positive / {n_neg} negative")
    ranked = sorted(zip(values, flags), key=itemgetter(0), reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    area_twice = 0  # integer accumulator in units of 1 / (2 * n_pos * n_neg)
    for _, tied in groupby(ranked, key=itemgetter(0)):
        tied_flags = [flag for _, flag in tied]
        d_tp = sum(tied_flags)
        d_fp = len(tied_flags) - d_tp
        area_twice += d_fp * (2 * tp + d_tp)
        tp += d_tp
        fp += d_fp
        points.append((fp / n_neg, tp / n_pos))
    auc = area_twice / (2 * n_pos * n_neg)
    return RocResult(points=tuple(points), auc=auc, n_pos=n_pos, n_neg=n_neg)


def compare_models(
    raw: Iterable[float],
    adjusted: Iterable[float],
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
            pcs=tuple(pc_row),
            raw_prs=raw_score,
            adjusted_prs=adjusted_score,
            obese=rec.obese,
        )
        for rec, pc_row, raw_score, adjusted_score in zip(
            samples, pcs.scores.tolist(), raw.scores.tolist(), adjusted.scores.tolist()
        )
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
