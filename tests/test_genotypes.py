"""Domain types, panel filtering, allele alignment, missing-data fill."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prsadjust.errors import AlleleMismatch, AllMissingVariant, EmptyIntersection
from prsadjust.genotypes import (
    OBESITY_BMI_THRESHOLD,
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
)
from conftest import make_matrix


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

    def test_weight_table_rejects_duplicate_variant(self):
        row = WeightRow(variant_id="rs1", effect_allele="A", other_allele="G", weight=0.1)
        with pytest.raises(ValueError, match="rs1"):
            ScoreWeightTable(rows=(row, row))

    def test_panel_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            PanelDefinition(name="p", variant_ids=("rs1", "rs1"))
        with pytest.raises(ValueError, match="empty"):
            PanelDefinition(name="p", variant_ids=())

    def test_matrix_rejects_out_of_range_dosage(self):
        with pytest.raises(ValueError):
            make_matrix([[0.0, 2.5]])

    def test_matrix_allows_anything_under_missing_mask(self):
        m = make_matrix([[0.0, 7.0]], missing=[(0, 1)])
        assert m.missing_mask[0, 1]

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
        assert (report.flipped, report.excluded) == ((), ())

    def test_matrix_variants_without_weights_pass_through(self):
        m = make_matrix([[0.0, 1.5]], variant_ids=["rs1", "rs2"])
        w = _weights(("rs1", "G", "A", 0.5))
        aligned, _ = align_effect_alleles(m, w)
        assert aligned.variant_ids == ("rs1", "rs2")
        assert aligned.dosage[0, 1] == 1.5

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


class TestFillMissingMean:
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
