"""Raw PRS accumulation, alone and behind the weight path that feeds it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust.errors import (
    AlleleMismatch,
    AllMissingVariant,
    EmptyIntersection,
    NoUsableVariants,
)
from prsadjust.genotypes import (
    PanelDefinition,
    ScoreWeightTable,
    WeightRow,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from prsadjust.scoring import compute_raw_prs
from conftest import make_matrix


def _table(*pairs):
    return ScoreWeightTable(
        rows=tuple(WeightRow(vid, "G", "A", w) for vid, w in pairs)
    )


def test_weighted_sum_hand_case():
    m = make_matrix([[2.0, 1.0], [0.0, 1.0]])
    prs = compute_raw_prs(m, _table(("rs1", 0.2), ("rs2", -0.1)))
    assert prs.scores == pytest.approx([0.3, -0.1], rel=1e-15)
    assert prs.sample_ids == ("S1", "S2")


def test_absent_weight_variants_are_skipped():
    m = make_matrix([[1.0]])
    prs = compute_raw_prs(m, _table(("rs1", 0.5), ("rs9", 1.0)))
    assert prs.scores[0] == 0.5


def test_no_overlap_raises():
    m = make_matrix([[1.0]])
    with pytest.raises(NoUsableVariants):
        compute_raw_prs(m, _table(("rs8", 0.5)))


def test_missing_dosage_on_scored_variant_rejected():
    m = make_matrix([[1.0, 0.0]], missing=[(0, 1)])
    with pytest.raises(ValueError, match="missing"):
        compute_raw_prs(m, _table(("rs2", 0.5)))


def test_unweighted_matrix_columns_are_ignored():
    m = make_matrix([[1.0, 2.0]], missing=[(0, 1)])
    prs = compute_raw_prs(m, _table(("rs1", 0.5)))  # rs2 untouched despite mask
    assert prs.scores[0] == 0.5


def test_matches_matrix_product_oracle(rng):
    dosage = rng.integers(0, 3, size=(40, 25)).astype(float)
    weights = rng.normal(size=25)
    m = make_matrix(dosage)
    table = ScoreWeightTable(
        rows=tuple(
            WeightRow(f"rs{j + 1}", "G", "A", float(weights[j])) for j in range(25)
        )
    )
    prs = compute_raw_prs(m, table)
    np.testing.assert_allclose(prs.scores, dosage @ weights, rtol=1e-12, atol=1e-12)


def test_weight_row_order_does_not_change_scores(rng):
    dosage = rng.integers(0, 3, size=(10, 8)).astype(float)
    m = make_matrix(dosage)
    pairs = [(f"rs{j + 1}", float(rng.normal())) for j in range(8)]
    forward = compute_raw_prs(m, _table(*pairs))
    backward = compute_raw_prs(m, _table(*pairs[::-1]))
    np.testing.assert_allclose(forward.scores, backward.scores, rtol=1e-12, atol=1e-14)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_dyadic_weights_accumulate_exactly(rows):
    # weights representable in base 2 make the sum exact, so equality is ==
    m = make_matrix([[float(d) for d in row] for row in rows])
    table = _table(("rs1", 0.5), ("rs2", -0.25), ("rs3", 1.5))
    prs = compute_raw_prs(m, table)
    expected = [0.5 * r[0] - 0.25 * r[1] + 1.5 * r[2] for r in rows]
    assert list(prs.scores) == expected


# --- the weight path: filter_by_panel -> align_effect_alleles -> fill_missing_mean
# -> compute_raw_prs, as the fit and score commands run it ---------------------

_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A"}
_ABSENT_IDS = ("rs90", "rs91", "rs92")


@st.composite
def _weight_path_cases(draw):
    """A small matrix with missing calls and weights over it.

    Dosages and weights are dyadic, so every column sum is exact and the
    oracle's arithmetic can be compared bit for bit.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    ids = [f"rs{j + 1}" for j in range(m)]
    # One in three ordered pairs of distinct bases is strand-ambiguous (A/T, C/G).
    alleles = {vid: tuple(draw(st.permutations("ACGT"))[:2]) for vid in ids}
    cells = draw(
        st.lists(
            st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, None)), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    chosen = draw(st.lists(st.sampled_from(ids + list(_ABSENT_IDS)), min_size=1, unique=True))
    rows = []
    for vid in chosen:
        ref, alt = alleles.get(vid, ("A", "G"))
        # alt, ref or either reverse complement; one draw in twenty matches nothing.
        how = draw(st.integers(min_value=0, max_value=19))
        effect = "CC" if how == 19 else (alt, ref, _COMPLEMENT[alt], _COMPLEMENT[ref])[how % 4]
        weight = draw(st.integers(min_value=-8, max_value=8)) / 4
        rows.append(WeightRow(vid, effect, None, weight))
    matrix = make_matrix(
        [[0.0 if d is None else d for d in row] for row in cells],
        alleles=alleles,
        missing=[(i, j) for i, row in enumerate(cells) for j, d in enumerate(row) if d is None],
    )
    return matrix, cells, alleles, ScoreWeightTable(tuple(rows))


def _per_sample_oracle(cells, alleles, weights):
    """Each sample's score in weight-table order, or the error the path must raise."""
    columns = []  # (column, flip, weight) for every weight row that is scored
    if not any(row.variant_id in alleles for row in weights.rows):
        return EmptyIntersection
    for row in weights.rows:
        if row.variant_id not in alleles:
            continue
        ref, alt = alleles[row.variant_id]
        if ref == _COMPLEMENT[alt]:  # strand-ambiguous: dropped
            continue
        matches = (alt, ref, _COMPLEMENT[alt], _COMPLEMENT[ref])
        if row.effect_allele not in matches:
            return AlleleMismatch
        flip = matches.index(row.effect_allele) % 2 == 1
        columns.append((int(row.variant_id[2:]) - 1, flip, row.weight))
    means = []
    for j, flip, _ in columns:
        observed = [2.0 - r[j] if flip else r[j] for r in cells if r[j] is not None]
        if not observed:
            return AllMissingVariant
        means.append(sum(observed) / len(observed))
    if not columns:
        return NoUsableVariants
    scores = []
    for r in cells:
        total = 0.0
        for (j, flip, weight), mean in zip(columns, means):
            dosage = mean if r[j] is None else (2.0 - r[j] if flip else r[j])
            total += weight * dosage
        scores.append(total)
    return scores


@settings(max_examples=300, deadline=None)
@given(_weight_path_cases())
def test_weight_path_matches_per_sample_loop(case):
    matrix, cells, alleles, weights = case
    expected = _per_sample_oracle(cells, alleles, weights)
    try:
        sub, coverage = filter_by_panel(matrix, PanelDefinition("weights", weights.variant_ids))
        aligned, alignment = align_effect_alleles(sub, weights)
        raw = compute_raw_prs(fill_missing_mean(aligned), weights)
    except (EmptyIntersection, AlleleMismatch, AllMissingVariant, NoUsableVariants) as exc:
        assert type(exc) is expected
        return
    assert list(raw.scores) == expected
    assert raw.sample_ids == matrix.sample_ids
    # Weights absent from the matrix are named once, by the panel filter.
    assert coverage.missing_ids == tuple(v for v in weights.variant_ids if v not in alleles)
    ambiguous = tuple(
        v for v in weights.variant_ids
        if v in alleles and alleles[v][0] == _COMPLEMENT[alleles[v][1]]
    )
    assert alignment.excluded == ambiguous
