"""Domain types, panel filtering, allele alignment, missing-data fill."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust import genotypes
from prsadjust.errors import AlleleMismatch, AllMissingVariant, EmptyIntersection
from prsadjust.genotypes import (
    OBESITY_BMI_THRESHOLD,
    AlignmentReport,
    GenotypeMatrix,
    PanelDefinition,
    SampleRecord,
    ScoreWeightTable,
    Variant,
    WeightRow,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
    is_strand_ambiguous,
    reverse_complement,
    _BLOCK_CELLS,
    _observed_means,
)
from conftest import make_matrix

# Rows of the multi-block matrices. The range check takes an F-ordered matrix
# _WIDTH columns at a time and a C-ordered one in runs of whole rows, so each
# cell here sits in the first, a middle or the last block in either layout.
_ROWS = 1024
_WIDTH = _BLOCK_CELLS // _ROWS
_BLOCK_CELLS_AT = [(0, 0), (_ROWS // 2, _WIDTH + _WIDTH // 2), (_ROWS - 1, 3 * _WIDTH - 1)]


def _multi_block_dosage(layout, blocks=3):
    """In-range dosages of _ROWS samples by ``blocks`` column blocks, in ``layout`` order."""
    dosage = np.random.default_rng(2).integers(0, 3, size=(_ROWS, blocks * _WIDTH))
    return np.asarray(dosage, dtype=float, order=layout)


class TestDomainTypes:
    def test_variant_rejects_lowercase_allele(self):
        with pytest.raises(ValueError, match="allele"):
            Variant(id="rs1", chromosome="1", position=5, ref_allele="a", alt_allele="G")

    def test_variant_rejects_identical_alleles(self):
        with pytest.raises(ValueError, match="identical"):
            Variant(id="rs1", chromosome="1", position=5, ref_allele="A", alt_allele="A")

    def test_variant_rejects_nonpositive_position(self):
        with pytest.raises(ValueError, match="position"):
            Variant(id="rs1", chromosome="1", position=0, ref_allele="A", alt_allele="G")

    @given(st.none() | st.floats(min_value=0.0, max_value=80.0) | st.just(np.nextafter(27.0, 28.0)))
    def test_sample_obese_is_bmi_above_threshold(self, bmi):
        rec = SampleRecord(sample_id="S1", bmi=bmi)
        assert rec.obese == (None if bmi is None else bmi > 27.0)
        # threshold is strict: 27.0 exactly is not obese
        assert SampleRecord(sample_id="S1", bmi=OBESITY_BMI_THRESHOLD).obese is False

    @pytest.mark.parametrize("bmi", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_sample_refuses_negative_or_non_finite_bmi(self, bmi):
        with pytest.raises(ValueError, match="sample S1: bmi"):
            SampleRecord(sample_id="S1", bmi=bmi)

    def test_weight_table_rejects_duplicate_variant(self):
        row = WeightRow(variant_id="rs1", effect_allele="A", other_allele="G", weight=0.1)
        with pytest.raises(ValueError, match="rs1"):
            ScoreWeightTable(rows=(row, row))

    def test_panel_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            PanelDefinition(name="p", variant_ids=("rs1", "rs1"))
        with pytest.raises(ValueError, match="empty"):
            PanelDefinition(name="p", variant_ids=())

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("value", [2.5, -0.1, np.nan, np.inf])
    @pytest.mark.parametrize("at", _BLOCK_CELLS_AT)
    def test_matrix_rejects_out_of_range_dosage(self, layout, value, at):
        dosage = _multi_block_dosage(layout)
        dosage[at] = value
        with pytest.raises(ValueError, match=r"observed dosages must lie in \[0, 2\]"):
            make_matrix(dosage)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("value", [2.5, -0.1, np.nan, np.inf, 7.0])
    @pytest.mark.parametrize("at", _BLOCK_CELLS_AT)
    def test_matrix_allows_anything_under_missing_mask(self, layout, value, at):
        dosage = _multi_block_dosage(layout)
        dosage[at] = value
        m = make_matrix(dosage, missing=[at])  # a C-ordered mask, whatever the layout
        assert m.missing_mask[at] and m.missing_mask.sum() == 1

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_construction_checks_a_block_at_a_time(self, layout):
        """Checking _ROWS rows x 20 blocks of _WIDTH columns traces at most
        half a byte a cell; checking them all at once takes 2 bytes a cell of
        bool temporaries."""
        dosage = _multi_block_dosage(layout, 20)
        template = make_matrix(dosage)
        mask = np.zeros(dosage.shape, dtype=bool, order=layout)
        tracemalloc.start()
        try:
            GenotypeMatrix(template.samples, template.variants, dosage, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * dosage.size

    def test_matrix_rejects_duplicate_sample_ids(self):
        with pytest.raises(ValueError):
            make_matrix([[0.0], [1.0]], sample_ids=["S1", "S1"])

    def test_matrix_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_matrix([[0.0, 1.0]], variant_ids=["rs1"])


def test_reverse_complement_examples():
    assert reverse_complement("A") == "T"
    assert reverse_complement("ACGT") == "ACGT"
    assert reverse_complement("AAC") == "GTT"


@given(st.text(alphabet="ACGT", min_size=1, max_size=12))
def test_reverse_complement_is_an_involution(s):
    assert reverse_complement(reverse_complement(s)) == s


def test_strand_ambiguous_pairs():
    ambiguous = {("A", "T"), ("T", "A"), ("C", "G"), ("G", "C")}
    bases = "ACGT"
    for ref in bases:
        for alt in bases:
            if ref == alt:
                continue
            assert is_strand_ambiguous(ref, alt) == ((ref, alt) in ambiguous)


class TestFilterByPanel:
    def setup_method(self):
        self.matrix = make_matrix(
            [[0, 1, 2, 0], [2, 1, 0, 1]],
            variant_ids=["rs1", "rs2", "rs3", "rs4"],
        )

    def test_selects_columns_in_panel_order(self):
        panel = PanelDefinition(name="p", variant_ids=("rs3", "rs1"))
        sub, report = filter_by_panel(self.matrix, panel)
        assert sub.variant_ids == ("rs3", "rs1")
        assert np.array_equal(sub.dosage, [[2, 0], [0, 2]])
        assert (report.n_matched, report.n_panel, report.missing_ids) == (2, 2, ())

    def test_reports_missing_panel_ids(self):
        panel = PanelDefinition(name="p", variant_ids=("rs2", "rs9"))
        sub, report = filter_by_panel(self.matrix, panel)
        assert sub.variant_ids == ("rs2",)
        assert report.missing_ids == ("rs9",)
        assert (report.n_matched, report.n_panel) == (1, 2)

    def test_no_overlap_raises(self):
        panel = PanelDefinition(name="p", variant_ids=("rs8", "rs9"))
        with pytest.raises(EmptyIntersection):
            filter_by_panel(self.matrix, panel)

    def test_input_matrix_unchanged(self):
        before = self.matrix.dosage.copy()
        panel = PanelDefinition(name="p", variant_ids=("rs4",))
        filter_by_panel(self.matrix, panel)
        assert np.array_equal(self.matrix.dosage, before)
        assert self.matrix.variant_ids == ("rs1", "rs2", "rs3", "rs4")

    def test_idempotent_under_full_coverage(self):
        panel = PanelDefinition(name="p", variant_ids=("rs4", "rs2"))
        once, _ = filter_by_panel(self.matrix, panel)
        twice, _ = filter_by_panel(once, panel)
        assert np.array_equal(once.dosage, twice.dosage)
        assert once.variant_ids == twice.variant_ids


def _weights(*rows):
    return ScoreWeightTable(rows=tuple(WeightRow(*r) for r in rows))


class TestAlignEffectAlleles:
    def test_effect_equals_alt_is_a_noop(self):
        m = make_matrix([[0.0], [1.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "G", "A", 0.5))
        aligned, report = align_effect_alleles(m, w)
        assert np.array_equal(aligned.dosage, m.dosage)
        assert report.flipped == () and report.excluded == ()

    def test_effect_equals_ref_flips_and_swaps_alleles(self):
        m = make_matrix([[0.0], [1.0], [2.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "A", "G", 0.5))
        aligned, report = align_effect_alleles(m, w)
        assert np.array_equal(aligned.dosage.ravel(), [2.0, 1.0, 0.0])
        assert report.flipped == ("rs1",)
        v = aligned.variants[0]
        assert (v.ref_allele, v.alt_allele) == ("G", "A")

    def test_missing_entries_stay_missing(self):
        m = make_matrix([[0.0], [1.0]], alleles={"rs1": ("A", "G")}, missing=[(1, 0)])
        w = _weights(("rs1", "A", "G", 0.5))
        aligned, _ = align_effect_alleles(m, w)
        assert aligned.missing_mask[1, 0]

    def test_opposite_strand_alt_needs_no_flip(self):
        # effect C is the alt allele G read from the other strand
        m = make_matrix([[1.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "C", "T", 0.5))
        aligned, report = align_effect_alleles(m, w)
        assert np.array_equal(aligned.dosage, m.dosage)
        assert report.flipped == ()

    def test_opposite_strand_ref_flips(self):
        # effect T is the ref allele A read from the other strand
        m = make_matrix([[1.0], [2.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "T", "C", 0.5))
        aligned, report = align_effect_alleles(m, w)
        assert np.array_equal(aligned.dosage.ravel(), [1.0, 0.0])
        assert report.flipped == ("rs1",)

    def test_ambiguous_variant_is_excluded(self):
        m = make_matrix(
            [[0.0, 1.0]],
            variant_ids=["rs1", "rs2"],
            alleles={"rs1": ("A", "T"), "rs2": ("A", "G")},
        )
        w = _weights(("rs1", "A", "T", 0.3), ("rs2", "G", "A", 0.2))
        aligned, report = align_effect_alleles(m, w)
        assert aligned.variant_ids == ("rs2",)
        assert report.excluded == ("rs1",)

    def test_multibase_mismatch_raises(self):
        m = make_matrix([[0.0]], alleles={"rs1": ("AT", "G")})
        w = _weights(("rs1", "TT", "G", 0.3))
        with pytest.raises(AlleleMismatch):
            align_effect_alleles(m, w)

    def test_weight_rows_absent_from_matrix_are_not_fatal(self):
        m = make_matrix([[0.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "G", "A", 0.5), ("rs9", "A", "G", 0.4))
        aligned, report = align_effect_alleles(m, w)
        assert aligned.variant_ids == ("rs1",)
        assert (report.flipped, report.excluded, report.absent) == ((), (), ("rs9",))

    def test_keeps_only_weight_columns_in_weight_order(self):
        m = make_matrix(
            [[0.0, 1.5, 0.5], [2.0, 1.0, 1.0]],
            variant_ids=["rs1", "rs2", "rs3"],
            missing=[(1, 0)],
        )
        w = _weights(("rs3", "A", "G", 0.5), ("rs1", "G", "A", 0.5))
        aligned, report = align_effect_alleles(m, w)
        assert aligned.variant_ids == ("rs3", "rs1")
        assert np.array_equal(aligned.dosage[:, 0], [1.5, 1.0])
        assert aligned.dosage[0, 1] == 0.0 and aligned.missing_mask[1, 1]
        assert not aligned.missing_mask[:, 0].any()
        assert report == AlignmentReport(flipped=("rs3",), excluded=(), absent=())

    def test_flipping_twice_restores_the_original(self):
        m = make_matrix([[0.0], [1.0], [2.0]], alleles={"rs1": ("A", "G")})
        flip_a = _weights(("rs1", "A", "G", 0.5))
        once, _ = align_effect_alleles(m, flip_a)
        # after the swap the ref is G; flipping toward G undoes the recode
        flip_g = _weights(("rs1", "G", "A", 0.5))
        twice, _ = align_effect_alleles(once, flip_g)
        assert np.array_equal(twice.dosage, m.dosage)
        assert twice.variants == m.variants

    def test_realigning_aligned_matrix_is_a_noop(self):
        m = make_matrix([[0.0], [2.0]], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "A", "G", 0.5))
        once, _ = align_effect_alleles(m, w)
        again, report = align_effect_alleles(once, w)
        assert np.array_equal(once.dosage, again.dosage)
        assert report.flipped == ()

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=20))
    def test_flip_recodes_integer_dosages_exactly(self, dosages):
        m = make_matrix([[float(d)] for d in dosages], alleles={"rs1": ("A", "G")})
        w = _weights(("rs1", "A", "G", 1.0))
        aligned, _ = align_effect_alleles(m, w)
        assert np.array_equal(aligned.dosage.ravel(), [2.0 - d for d in dosages])


@st.composite
def _mean_fill_cases(draw):
    """Dosages and a missing mask in which every column holds an observed call.

    3-decimal dosages make the sums round, so a mean's last bits show the
    order its column was summed in. Some columns keep one observed call; a
    300 x 120 draw spans more than one block of _BLOCK_CELLS cells, and any
    draw of two or more columns does at the test's smaller block size.
    """
    n = draw(st.sampled_from((1, 2, 7, 8, 9, 40, 129, 300)))
    m = draw(st.integers(min_value=1, max_value=120))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dosage = rng.integers(0, 2001, (n, m)) / 1000
    missing = rng.random((n, m)) < draw(st.sampled_from((0.0, 0.2, 0.6)))
    single = draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
    for j in range(m):
        if j in single or missing[:, j].all():
            missing[:, j] = True
            missing[rng.integers(n), j] = False
    return dosage, missing


class TestFillMissingMean:
    @settings(max_examples=200, deadline=None)
    @given(_mean_fill_cases(), st.sampled_from((1, _BLOCK_CELLS)))
    def test_means_do_not_depend_on_the_layout(self, case, cells):
        """Each mean is np.add.reduce of its column as a 1-D float64 array,
        with 0.0 at missing calls, over the observed count: for a C-ordered
        matrix, an F-ordered one and each column taken alone, whatever the
        block size."""
        dosage, missing = case
        means = [
            np.add.reduce(np.where(missing[:, j], 0.0, dosage[:, j])) / np.sum(~missing[:, j])
            for j in range(dosage.shape[1])
        ]
        expected = np.where(missing, means, dosage)
        base = make_matrix(dosage, missing=zip(*np.nonzero(missing)))
        with mock.patch.object(genotypes, "_BLOCK_CELLS", cells):
            for layout in ("C", "F"):
                matrix = GenotypeMatrix(
                    base.samples,
                    base.variants,
                    np.array(dosage, order=layout),
                    np.array(missing, order=layout),
                )
                assert fill_missing_mean(matrix).dosage.tobytes() == expected.tobytes()
                got = _observed_means(matrix.dosage, matrix.missing_mask, matrix.variant_ids)
                assert got.tobytes() == np.array(means).tobytes()
            for j in range(dosage.shape[1]):
                alone = fill_missing_mean(base.take_variants([j])).dosage
                assert alone.tobytes() == expected[:, [j]].tobytes()

    def test_fills_with_observed_column_mean(self):
        m = make_matrix([[0.0], [2.0], [0.0]], missing=[(2, 0)])
        filled = fill_missing_mean(m)
        assert filled.dosage[2, 0] == 1.0
        assert not filled.missing_mask.any()

    def test_observed_entries_untouched(self):
        m = make_matrix([[0.5, 1.0], [1.5, 0.0]], missing=[(0, 1)])
        filled = fill_missing_mean(m)
        assert filled.dosage[0, 0] == 0.5
        assert filled.dosage[1, 1] == 0.0

    def test_no_missing_returns_identical_values(self):
        m = make_matrix([[0.0, 1.0], [2.0, 1.0]])
        filled = fill_missing_mean(m)
        assert np.array_equal(filled.dosage, m.dosage)

    def test_all_missing_column_raises(self):
        m = make_matrix([[0.0, 0.0], [1.0, 0.0]], missing=[(0, 1), (1, 1)])
        with pytest.raises(AllMissingVariant, match="rs2"):
            fill_missing_mean(m)

    def test_column_mean_is_preserved(self, rng):
        dosage = rng.integers(0, 3, size=(30, 5)).astype(float)
        mask_rows = rng.choice(30, size=8, replace=False)
        m = make_matrix(dosage, missing=[(int(i), 2) for i in mask_rows])
        filled = fill_missing_mean(m)
        observed = dosage[[i for i in range(30) if i not in set(mask_rows)], 2]
        assert filled.dosage[:, 2].mean() == pytest.approx(observed.mean(), rel=1e-12)

    def test_input_not_mutated(self):
        m = make_matrix([[0.0], [2.0]], missing=[(0, 0)])
        before = m.dosage.copy()
        fill_missing_mean(m)
        assert np.array_equal(m.dosage, before)
        assert m.missing_mask[0, 0]
