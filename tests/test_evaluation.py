"""Percentile stratification, ROC/AUC, evaluation writers."""

import io as stdio
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust.errors import DegenerateLabels, EmptyInput
from prsadjust.evaluation import (
    CohortReport,
    ReportRow,
    _mean_sd,
    _sum,
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
        assert int(np.asarray(high_risk(scores, threshold)).sum()) == 24

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
        assert int(np.asarray(high_risk(scores, threshold)).sum()) == 0

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
        assert sum(s.n_highrisk_raw for s in summaries) == int(np.asarray(high_risk(raw, threshold)).sum())

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
        points = np.asarray(result.points)
        assert points[0].tolist() == [0.0, 0.0]
        assert points[-1].tolist() == [1.0, 1.0]
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)

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


# ---------------------------------------------------------------------------
# Oracles: the numpy implementations the threshold, ROC and grouping had before
# evaluation dropped numpy, which the list-and-float versions must match
# exactly, and exact Fraction sums, which means and SDs must equal once rounded.
# ---------------------------------------------------------------------------


def _exact_sum(values):
    """The sum of ``values`` in exact arithmetic, rounded once to float64 (±inf
    beyond its range); infinite values decide it as in IEEE arithmetic."""
    infinities = {v for v in values if math.isinf(v)}
    if infinities:
        return infinities.pop() if len(infinities) == 1 else math.nan
    exact = sum(map(Fraction, values), Fraction(0))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _exact_mean_sd(values):
    n = len(values)
    mean = _exact_sum(values) / n
    if n < 2:
        return mean, math.nan
    return mean, math.sqrt(_exact_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


def _numpy_percentile_threshold(scores, percentile):
    values = np.asarray(scores, dtype=np.float64)
    rank = math.ceil(percentile * values.size / 100.0 - 1e-9)
    rank = min(max(rank, 1), values.size)
    return float(np.sort(values)[rank - 1])


def _numpy_roc_auc(scores, labels):
    """(points, auc, n_pos, n_neg)."""
    values = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(labels, dtype=bool)
    n_pos = int(np.count_nonzero(flags))
    n_neg = int(flags.size - n_pos)
    order = np.argsort(-values, kind="stable")
    sorted_scores = values[order]
    sorted_flags = flags[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    area_twice = 0
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
    return np.asarray(points), area_twice / (2 * n_pos * n_neg), n_pos, n_neg


def _numpy_stratify(rows, percentile):
    """One (population, n, mean_raw, sd_raw, mean_adjusted, sd_adjusted,
    n_highrisk_raw, n_highrisk_adjusted) per population: groups and counts
    by numpy, means and SDs by the exact oracle."""
    raw = np.array([r.raw_prs for r in rows])
    adjusted = np.array([r.adjusted_prs for r in rows])
    threshold_raw = _numpy_percentile_threshold(raw, percentile)
    threshold_adjusted = _numpy_percentile_threshold(adjusted, percentile)
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.population if row.population is not None else ".", []).append(i)
    summaries = []
    for label in sorted(groups):
        idx = np.asarray(groups[label], dtype=int)
        r, a = raw[idx], adjusted[idx]
        summaries.append((
            label,
            idx.size,
            *_exact_mean_sd(r.tolist()),
            *_exact_mean_sd(a.tolist()),
            int(np.count_nonzero(r > threshold_raw)),
            int(np.count_nonzero(a > threshold_adjusted)),
        ))
    return summaries


def _bits(value):
    """The float's bytes, with every NaN the same."""
    return struct.pack("<d", math.nan if math.isnan(value) else value)


_REALS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _vectors(draw, max_size=10_000):
    """Float64 vectors of 1 to ``max_size`` values, with signed zeros, ties,
    magnitudes mixed over up to 60 decades, and some draws up to
    ``sys.float_info.max``, whose sums leave float64's range."""
    n = draw(st.one_of(
        st.integers(1, 7), st.integers(8, 128), st.integers(129, max(129, max_size))
    ).filter(lambda size: size <= max_size))
    if n <= 128 and draw(st.booleans()):
        return draw(st.lists(_REALS | st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    values = rng.normal(size=n) * 10.0 ** rng.integers(-low, high + 1, size=n)
    if draw(st.booleans()):
        values = np.round(values, 1)  # ties
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    huge = rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.01, 0.5]))
    values[huge] = rng.uniform(-1.0, 1.0, size=int(huge.sum())) * sys.float_info.max
    return values.tolist()


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(_vectors())
    def test_sum_mean_and_sd_are_exact_sums_rounded_once(self, values):
        assert _bits(_sum(values)) == _bits(_exact_sum(values))
        assert list(map(_bits, _mean_sd(values))) == list(map(_bits, _exact_mean_sd(values)))

    @pytest.mark.parametrize("values, expected", [
        ([1e308, 1e308, -1e308], 1e308),  # only an intermediate sum leaves the range
        ([1e308, 1e308], math.inf),
        ([-1e308, -1e308], -math.inf),
        ([math.inf, 1e308, 1e308], math.inf),
        ([math.inf, -math.inf], math.nan),
    ])
    def test_out_of_range_sums_do_not_raise(self, values, expected):
        assert _bits(_sum(values)) == _bits(expected)


class TestNumpyOracle:
    @settings(deadline=None)
    @given(_vectors(max_size=400), st.floats(min_value=0.01, max_value=99.99))
    def test_percentile_threshold_matches(self, values, percentile):
        # == rather than bitwise: numpy's sort leaves the order of tied 0.0
        # and -0.0 unspecified, so either may be the value at the rank.
        assert percentile_threshold(values, percentile) == _numpy_percentile_threshold(
            values, percentile
        )

    @settings(deadline=None)
    @given(_vectors(max_size=400), st.integers(0, 2**32 - 1))
    def test_roc_auc_matches(self, values, seed):
        if len(values) < 2:
            values = values * 2
        labels = np.random.default_rng(seed).random(len(values)) < 0.5
        labels[:2] = [True, False]
        result = roc_auc(values, labels.tolist())
        points, auc, n_pos, n_neg = _numpy_roc_auc(values, labels)
        assert np.asarray(result.points).tobytes() == points.tobytes()
        assert (result.auc, result.n_pos, result.n_neg) == (auc, n_pos, n_neg)

    @settings(deadline=None)
    @given(
        _vectors(max_size=400),
        st.integers(0, 2**32 - 1),
        st.sampled_from([50.0, 76.0, 90.0]),
    )
    def test_stratify_matches(self, values, seed, percentile):
        rng = np.random.default_rng(seed)
        pops = ("POPA", "POPB", "POPC", None)
        labels = rng.integers(len(pops), size=len(values)).tolist()
        adjusted = rng.permutation(values).tolist()
        rows = [
            _row(f"S{i}", pops[label], raw, adj)
            for i, (label, raw, adj) in enumerate(zip(labels, values, adjusted))
        ]
        expected = _numpy_stratify(rows, percentile)
        got = [
            (s.population, s.n, s.mean_raw, s.sd_raw, s.mean_adjusted, s.sd_adjusted,
             s.n_highrisk_raw, s.n_highrisk_adjusted)
            for s in stratify_by_population(rows, percentile)
        ]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert (g[0], g[1], g[6], g[7]) == (e[0], e[1], e[6], e[7])
            assert [_bits(v) for v in g[2:6]] == [_bits(v) for v in e[2:6]]
