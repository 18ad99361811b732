"""Percentile stratification, ROC/AUC, evaluation writers."""

import io as stdio
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prsadjust.errors import DegenerateLabels, EmptyInput
from prsadjust.evaluation import (
    CohortReport,
    ReportRow,
    compare_models,
    high_risk,
    percentile_threshold,
    roc_auc,
    stratify_by_population,
    write_metrics,
    write_population_summary_csv,
    write_roc_csv,
)


class TestPercentileThreshold:
    def test_hundred_scores_at_76(self):
        scores = np.arange(1.0, 101.0)
        threshold = percentile_threshold(scores, 76.0)
        assert threshold == 76.0
        assert int(high_risk(scores, threshold).sum()) == 24

    def test_matches_fraction_arithmetic_oracle(self):
        # nearest-rank: the ceil(p*n/100)-th smallest, computed exactly
        for n in range(1, 31):
            scores = np.arange(1.0, n + 1.0)
            for pct in range(5, 100, 5):
                rank = math.ceil(Fraction(pct * n, 100))
                assert percentile_threshold(scores, float(pct)) == float(rank)

    def test_unsorted_input_and_ties(self):
        assert percentile_threshold([3.0, 1.0, 2.0, 2.0], 50.0) == 2.0

    def test_all_equal_scores_give_no_high_risk(self):
        scores = np.full(10, 5.0)
        threshold = percentile_threshold(scores, 76.0)
        assert int(high_risk(scores, threshold).sum()) == 0

    def test_single_score(self):
        assert percentile_threshold([4.5], 76.0) == 4.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            percentile_threshold([], 76.0)

    @pytest.mark.parametrize("pct", [0.0, 100.0, -5.0, 101.0])
    def test_percentile_bounds_are_open(self, pct):
        with pytest.raises(ValueError):
            percentile_threshold([1.0], pct)


def _row(sid, pop, raw, adjusted, obese=None):
    return ReportRow(
        sample_id=sid, population=pop, pcs=(0.0,), raw_prs=raw,
        adjusted_prs=adjusted, obese=obese,
    )


class TestStratify:
    def test_pooled_threshold_is_shared_across_populations(self):
        # POPB sits entirely above POPA on the raw scale
        rows = [_row(f"A{i}", "POPA", float(i), float(i % 4)) for i in range(50)] + [
            _row(f"B{i}", "POPB", 50.0 + i, float(i % 4)) for i in range(50)
        ]
        by_pop = {s.population: s for s in stratify_by_population(rows, percentile=76.0)}
        assert by_pop["POPA"].n_highrisk_raw == 0
        assert by_pop["POPB"].n_highrisk_raw == 24
        # the adjusted column is identically distributed in both groups
        assert by_pop["POPA"].n_highrisk_adjusted == by_pop["POPB"].n_highrisk_adjusted

    def test_counts_recompose_to_pooled_count(self, rng):
        pops = ["POPA", "POPB", "POPC"]
        rows = [
            _row(f"S{i}", pops[i % 3], float(rng.normal()), float(rng.normal()))
            for i in range(90)
        ]
        summaries = stratify_by_population(rows, percentile=76.0)
        raw = np.array([r.raw_prs for r in rows])
        threshold = percentile_threshold(raw, 76.0)
        assert sum(s.n_highrisk_raw for s in summaries) == int(high_risk(raw, threshold).sum())

    def test_labels_sorted_and_none_rendered_as_dot(self):
        rows = [_row("S1", "POPB", 1.0, 1.0), _row("S2", None, 2.0, 2.0),
                _row("S3", "POPA", 3.0, 3.0)]
        labels = [s.population for s in stratify_by_population(rows)]
        assert labels == sorted(labels)
        assert "." in labels

    def test_singleton_population_has_nan_sd(self):
        rows = [_row("S1", "POPA", 1.0, 1.0), _row("S2", "POPB", 2.0, 2.0),
                _row("S3", "POPB", 3.0, 3.0)]
        by_pop = {s.population: s for s in stratify_by_population(rows)}
        assert math.isnan(by_pop["POPA"].sd_raw)
        assert by_pop["POPB"].sd_raw == pytest.approx(np.std([2.0, 3.0], ddof=1))

    def test_fraction_properties(self):
        rows = [_row(f"S{i}", "POPA", float(i), float(i)) for i in range(10)]
        (summary,) = stratify_by_population(rows, percentile=76.0)
        assert summary.highrisk_raw == summary.n_highrisk_raw / summary.n


def _pairwise_auc(scores, labels):
    """Mann-Whitney with half-credit for ties; quadratic but transparent."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        result = roc_auc([1.0, 2.0, 3.0, 4.0], [False, False, True, True])
        assert result.auc == 1.0

    def test_reversed_scores(self):
        result = roc_auc([4.0, 3.0, 2.0, 1.0], [False, False, True, True])
        assert result.auc == 0.0

    def test_all_tied_is_chance(self):
        result = roc_auc([1.0, 1.0, 1.0, 1.0], [True, False, True, False])
        assert result.auc == 0.5

    def test_curve_runs_from_origin_to_corner(self, rng):
        scores = rng.normal(size=37)
        labels = rng.random(37) < 0.4
        labels[0], labels[1] = True, False
        result = roc_auc(scores, labels)
        assert result.points[0].tolist() == [0.0, 0.0]
        assert result.points[-1].tolist() == [1.0, 1.0]
        assert np.all(np.diff(result.points[:, 0]) >= 0)
        assert np.all(np.diff(result.points[:, 1]) >= 0)

    def test_matches_pairwise_oracle_with_ties(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 50))
            scores = rng.integers(0, 5, size=n).astype(float)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            result = roc_auc(scores, labels)
            assert result.auc == pytest.approx(
                _pairwise_auc(scores, labels), abs=1e-12
            )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_transforms_leave_auc_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=20)
        labels = rng.random(20) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        base = roc_auc(scores, labels).auc
        assert roc_auc(3.0 * scores + 7.0, labels).auc == base
        assert roc_auc(np.exp(scores), labels).auc == base

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            roc_auc([1.0, 2.0], [True, True])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            roc_auc([], [])

    def test_counts_reported(self):
        result = roc_auc([1.0, 2.0, 3.0], [True, False, True])
        assert (result.n_pos, result.n_neg) == (2, 1)


class TestCompareModels:
    def test_shared_shift_changes_nothing(self, rng):
        scores = rng.normal(size=30)
        labels = rng.random(30) < 0.5
        labels[:2] = [True, False]
        cmp = compare_models(scores, scores + 11.0, labels)
        assert cmp.delta == 0.0
        assert cmp.auc_raw == cmp.auc_adjusted

    def test_delta_is_adjusted_minus_raw(self):
        labels = [False, False, True, True]
        cmp = compare_models([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0], labels)
        assert cmp.auc_raw == 0.0 and cmp.auc_adjusted == 1.0
        assert cmp.delta == 1.0


class TestWriters:
    def test_roc_csv(self):
        result = roc_auc([1.0, 2.0, 3.0], [False, True, True])
        buf = stdio.StringIO()
        write_roc_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 1 + len(result.points)

    def test_population_summary_csv(self):
        rows = [_row("S1", "POPA", 1.0, 1.0), _row("S2", "POPA", 2.0, 2.0)]
        buf = stdio.StringIO()
        write_population_summary_csv(stratify_by_population(rows), buf)
        text = buf.getvalue()
        assert text.startswith(
            "population,n,mean_raw,sd_raw,mean_adjusted,sd_adjusted,"
            "highrisk_raw,highrisk_adjusted\n"
        )
        assert "POPA,2," in text

    def test_metrics_values_round_trip_through_text(self):
        value = 0.12113182261208577
        buf = stdio.StringIO()
        write_metrics({"auc_delta": value, "n_pos": 12, "note": "ok"}, buf)
        parsed = dict(line.split("=", 1) for line in buf.getvalue().splitlines())
        assert float(parsed["auc_delta"]) == value
        assert parsed["n_pos"] == "12"
        assert parsed["note"] == "ok"

    def test_metrics_non_finite_rendered_as_dot(self):
        buf = stdio.StringIO()
        write_metrics({"sd": float("nan")}, buf)
        assert buf.getvalue() == "sd=.\n"


def test_cohort_report_rejects_duplicate_samples():
    rows = (_row("S1", "POPA", 1.0, 1.0), _row("S1", "POPA", 2.0, 2.0))
    with pytest.raises(ValueError, match="S1"):
        CohortReport(rows=rows)
