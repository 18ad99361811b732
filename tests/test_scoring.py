"""Raw PRS accumulation, alone and behind the weight path that feeds it."""

import io as stdio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust.errors import AlleleMismatch, AllMissingVariant, NoUsableVariants
from prsadjust.genotypes import (
    PanelDefinition,
    ScoreWeightTable,
    WeightRow,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from prsadjust.io import parse_vcf, write_vcf
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


# --- the weight path: align_effect_alleles -> fill_missing_mean -> compute_raw_prs,
# as the fit and score commands run it on a parsed VCF ---------------------------

_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A"}
_ABSENT_IDS = ("rs90", "rs91", "rs92")


@st.composite
def _weight_path_cases(draw):
    """A matrix with missing calls and dyadic weights over it.

    Dosages are dyadic (every sum exact) or 3-decimal (sums round), on
    1-40 samples, so a mean's last bits show the order its column is summed
    in. The cells come from a drawn seed, which keeps 240-cell draws cheap.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=6))
    ids = [f"rs{j + 1}" for j in range(m)]
    # One in three ordered pairs of distinct bases is strand-ambiguous (A/T, C/G).
    alleles = {vid: tuple(draw(st.permutations("ACGT"))[:2]) for vid in ids}
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.integers(0, 5, (n, m)) / 2 if exact else rng.integers(0, 2001, (n, m)) / 1000
    missing = rng.random((n, m)) < draw(st.sampled_from((0.0, 0.2, 0.6)))
    cells = [
        [None if missing[i, j] else float(values[i, j]) for j in range(m)] for i in range(n)
    ]
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
    """Each sample's score in weight-table order, or the error the path must raise.

    Each mean is np.add.reduce of its recoded column as a 1-D float64 array,
    with 0.0 at missing calls, over the observed count.
    """
    columns = []  # (column, flip, weight) for every weight row that is scored
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
        column = [0.0 if r[j] is None else 2.0 - r[j] if flip else r[j] for r in cells]
        count = sum(r[j] is not None for r in cells)
        if not count:
            return AllMissingVariant
        means.append(float(np.add.reduce(np.array(column, dtype=np.float64))) / count)
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
    text = stdio.StringIO()
    write_vcf(matrix, text)
    parsed, _ = parse_vcf(stdio.BytesIO(text.getvalue().encode()))
    assert parsed.dosage.flags.f_contiguous  # the layout fit and score read
    for source in (matrix, parsed):
        try:
            aligned, alignment = align_effect_alleles(source, weights)
            raw = compute_raw_prs(fill_missing_mean(aligned), weights)
        except (AlleleMismatch, AllMissingVariant, NoUsableVariants) as exc:
            assert type(exc) is expected
            continue
        assert list(raw.scores) == expected
        assert raw.sample_ids == matrix.sample_ids
        # One report accounts for every weight row that is not scored as is.
        assert alignment.absent == tuple(v for v in weights.variant_ids if v not in alleles)
        ambiguous = tuple(
            v for v in weights.variant_ids
            if v in alleles and alleles[v][0] == _COMPLEMENT[alleles[v][1]]
        )
        assert alignment.excluded == ambiguous
        # perfbench's checker scores the weight submatrix: the same bits.
        sub, _ = filter_by_panel(source, PanelDefinition("weights", weights.variant_ids))
        filtered = compute_raw_prs(fill_missing_mean(align_effect_alleles(sub, weights)[0]), weights)
        assert filtered.scores.tobytes() == raw.scores.tobytes()
