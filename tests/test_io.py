"""File formats: VCF subset, weights, panel, phenotypes, report CSV."""

import io as stdio
import logging
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prsadjust.errors import (
    DuplicateSample,
    DuplicateVariant,
    EmptyPanel,
    MalformedRow,
    NegativeBmi,
    NonNumericWeight,
    ParseAbort,
    UnknownSexToken,
)
from prsadjust.evaluation import CohortReport, ReportRow
from prsadjust.genotypes import SampleRecord, ScoreWeightTable, WeightRow
from prsadjust.io import (
    SKIP_DUPLICATE_VARIANT,
    SKIP_MULTI_ALLELIC,
    SKIP_UNSUPPORTED_ALLELES,
    parse_panel,
    parse_phenotypes,
    parse_vcf,
    parse_weights,
    read_report_csv,
    write_panel,
    write_parse_report,
    write_phenotypes,
    write_report_csv,
    write_vcf,
    write_weights,
)
from conftest import make_matrix

VCF_TEXT = (
    "##fileformat=VCFv4.2\n"
    "##source=unit-test\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\n"
    "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0/0\t0/1\t1/1\n"
    "1\t200\trs2\tC\tT\t.\t.\t.\tGT\t0|1\t./.\t1|1\n"
    "1\t300\trs3\tG\tA\t.\t.\t.\tGT:DS\t0/1:1.5\t1/1:.\t0/0\n"
    "1\t400\t.\tT\tC\t.\t.\t.\tGT\t0/0\t0/0\t0/1\n"
    "1\t500\trs4\tA\tG,T\t.\t.\t.\tGT\t0/0\t0/0\t0/0\n"
    "1\t600\trs1\tA\tC\t.\t.\t.\tGT\t0/0\t0/0\t0/0\n"
    "1\t700\trs5\tA\t<DEL>\t.\t.\t.\tGT\t0/0\t0/0\t0/0\n"
)


class TestParseVcf:
    def test_dosages_and_missing_mask(self):
        matrix, _ = parse_vcf(stdio.StringIO(VCF_TEXT))
        assert matrix.sample_ids == ("S1", "S2", "S3")
        assert matrix.variant_ids == ("rs1", "rs2", "rs3", "1:400:T:C")
        expected = np.array(
            [
                [0.0, 1.0, 1.5, 0.0],
                [1.0, 0.0, 0.0, 0.0],  # masked entries read as 0
                [2.0, 2.0, 0.0, 1.0],
            ]
        )
        observed = np.where(matrix.missing_mask, 0.0, matrix.dosage)
        assert np.array_equal(observed, expected)
        mask = np.zeros((3, 4), dtype=bool)
        mask[1, 1] = True  # ./.
        mask[1, 2] = True  # DS token "."
        assert np.array_equal(matrix.missing_mask, mask)

    def test_ds_subfield_overrides_gt_and_falls_back_when_absent(self):
        matrix, _ = parse_vcf(stdio.StringIO(VCF_TEXT))
        col = matrix.variant_ids.index("rs3")
        assert matrix.dosage[0, col] == 1.5  # DS wins over GT 0/1
        assert matrix.dosage[2, col] == 0.0  # trailing DS absent -> GT

    def test_parse_accounting_invariant(self):
        _, report = parse_vcf(stdio.StringIO(VCF_TEXT))
        assert report.rows_total == 7
        assert report.rows_parsed == 4
        assert report.rows_parsed + report.rows_skipped == report.rows_total

    def test_skip_reasons_with_line_numbers(self):
        _, report = parse_vcf(stdio.StringIO(VCF_TEXT))
        assert report.skipped[SKIP_MULTI_ALLELIC] == (8,)
        assert report.skipped[SKIP_DUPLICATE_VARIANT] == (9,)
        assert report.skipped[SKIP_UNSUPPORTED_ALLELES] == (10,)

    def test_alt_dot_is_unsupported(self):
        text = VCF_TEXT + "1\t800\trs6\tA\t.\t.\t.\t.\tGT\t0/0\t0/0\t0/0\n"
        _, report = parse_vcf(stdio.StringIO(text))
        assert 11 in report.skipped[SKIP_UNSUPPORTED_ALLELES]

    @pytest.mark.parametrize(
        "row",
        [
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/3\t0/0\t0/0",  # bad GT allele index
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0",  # short row
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:3.5\t0/0:0\t0/0:0",  # DS out of range
            "1\t900\trs7\tA\tG\t.\t.\t.\tDS:GT\t0:0/0\t0:0/0\t0:0/0",  # FORMAT must lead with GT
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\tx/y\t0/0",  # unparseable GT
            "x\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0",  # short + bad, still malformed
            "1\t0\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",  # POS below 1
            "\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",  # empty CHROM
            # POS that int() would accept but is not a run of ASCII digits
            "1\t1_000\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",
            "1\t+7\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",
            "1\t 7\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",
            "1\t\u0663\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",
            # fixed-width calls that are still invalid
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/2\t0/0",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t./1\t0/0",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t1/.",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0\\1\t0/0\t0/0",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/\u00e9\t0/0",
        ],
    )
    def test_malformed_rows_raise_with_line_number(self, row):
        text = VCF_TEXT + row + "\n"
        with pytest.raises(MalformedRow) as exc:
            parse_vcf(stdio.StringIO(text))
        assert exc.value.line_no == 11

    def test_gt_row_with_subfields_decodes_per_entry(self):
        text = VCF_TEXT + "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/1:35\t1|1\t./.\n"
        matrix, _ = parse_vcf(stdio.StringIO(text))
        assert np.array_equal(matrix.dosage[:, -1], [1.0, 2.0, 0.0])
        assert np.array_equal(matrix.missing_mask[:, -1], [False, False, True])

    def test_crlf_file_parses_like_lf(self):
        lf, lf_report = parse_vcf(stdio.StringIO(VCF_TEXT))
        crlf, crlf_report = parse_vcf(stdio.BytesIO(VCF_TEXT.replace("\n", "\r\n").encode()))
        assert crlf.variant_ids == lf.variant_ids
        assert np.array_equal(crlf.dosage, lf.dosage)
        assert np.array_equal(crlf.missing_mask, lf.missing_mask)
        assert crlf_report == lf_report

    def test_header_required_before_data(self):
        with pytest.raises(ParseAbort):
            parse_vcf(stdio.StringIO("1\t100\trs1\tA\tG\t.\t.\t.\tGT\t0/0\n"))

    def test_duplicate_sample_names_abort(self):
        text = VCF_TEXT.replace("S1\tS2\tS3", "S1\tS1\tS3")
        with pytest.raises(ParseAbort):
            parse_vcf(stdio.StringIO(text))

    def test_header_without_samples_aborts(self):
        text = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n"
        with pytest.raises(ParseAbort):
            parse_vcf(stdio.StringIO(text))

    def test_empty_input_aborts(self):
        with pytest.raises(ParseAbort):
            parse_vcf(stdio.StringIO(""))


class TestVcfRoundTrip:
    def test_integer_dosages_with_missing(self):
        m = make_matrix(
            [[0.0, 2.0], [1.0, 0.0], [2.0, 1.0]],
            missing=[(1, 1)],
            alleles={"rs1": ("A", "G"), "rs2": ("C", "T")},
        )
        buf = stdio.StringIO()
        write_vcf(m, buf)
        back, report = parse_vcf(stdio.StringIO(buf.getvalue()))
        assert report.rows_parsed == 2
        assert back.variant_ids == m.variant_ids
        assert np.array_equal(back.missing_mask, m.missing_mask)
        keep = ~m.missing_mask
        assert np.array_equal(back.dosage[keep], m.dosage[keep])

    def test_fractional_dosages_round_trip_exactly(self):
        vals = [[0.1234567890123456, 1.999999999999999], [2.0, 0.0]]
        m = make_matrix(vals, alleles={"rs1": ("A", "G"), "rs2": ("C", "T")})
        buf = stdio.StringIO()
        write_vcf(m, buf)
        text = buf.getvalue()
        assert "GT:DS" in text
        back, _ = parse_vcf(stdio.StringIO(text))
        assert np.array_equal(back.dosage, m.dosage)

    def test_written_text_uses_lf_only(self):
        m = make_matrix([[1.0]])
        buf = stdio.StringIO()
        write_vcf(m, buf)
        assert "\r" not in buf.getvalue()
        assert buf.getvalue().startswith("##fileformat=VCFv4.2\n")


def _gt_oracle(call):
    """Per-entry reference decoding of a GT call: (dosage, missing) or None."""
    if call in ("./.", ".|."):
        return 0.0, True
    if len(call) == 3 and call[0] in "01" and call[1] in "/|" and call[2] in "01":
        return float(int(call[0]) + int(call[2])), False
    return None


def _render_gt_vcf(matrix):
    """Per-entry reference rendering of a hard-call matrix as write_vcf's text."""
    lines = [
        "##fileformat=VCFv4.2",
        "##source=prsadjust",
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(matrix.sample_ids),
    ]
    for j, v in enumerate(matrix.variants):
        calls = [
            "./." if matrix.missing_mask[i, j] else ("0/0", "0/1", "1/1")[int(matrix.dosage[i, j])]
            for i in range(matrix.n_samples)
        ]
        fixed = [v.chromosome, str(v.position), v.id, v.ref_allele, v.alt_allele]
        lines.append("\t".join(fixed + [".", "PASS", ".", "GT"] + calls))
    return "\n".join(lines) + "\n"


@st.composite
def hard_call_matrices(draw):
    """Hard-call matrices with missing entries; NaN is stored under the mask."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    calls = draw(st.lists(st.sampled_from([0, 1, 2, None]), min_size=n * m, max_size=n * m))
    grid = np.array([np.nan if c is None else c for c in calls], dtype=float).reshape(n, m)
    missing = list(zip(*np.nonzero(np.isnan(grid))))
    return make_matrix(grid, missing=missing)


class TestGtBytePath:
    @given(hard_call_matrices())
    def test_write_then_parse_is_exact(self, matrix):
        buf = stdio.StringIO()
        write_vcf(matrix, buf)
        back, _ = parse_vcf(stdio.StringIO(buf.getvalue()))
        assert back.variant_ids == matrix.variant_ids
        assert np.array_equal(back.missing_mask, matrix.missing_mask)
        expected = np.where(matrix.missing_mask, 0.0, matrix.dosage)
        assert back.dosage.tobytes() == expected.tobytes()

    @given(hard_call_matrices())
    def test_written_text_matches_per_entry_rendering(self, matrix):
        buf = stdio.StringIO()
        write_vcf(matrix, buf)
        assert buf.getvalue() == _render_gt_vcf(matrix)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from(["0/0", "0|1", "1/0", "1|1", "./.", ".|."]),
                        st.text(alphabet="012./|x", min_size=3, max_size=3),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_three_byte_calls_match_per_entry_oracle(self, rows):
        n = len(rows[0])
        names = [f"S{i}" for i in range(n)]
        header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(names)
        lines = [header] + [
            f"1\t{100 * (r + 1)}\trs{r}\tA\tG\t.\t.\t.\tGT\t" + "\t".join(calls)
            for r, calls in enumerate(rows)
        ]
        text = "\n".join(lines) + "\n"
        decoded = [[_gt_oracle(c) for c in calls] for calls in rows]
        bad = [r for r, row in enumerate(decoded) if None in row]
        if bad:
            first = bad[0]
            i = decoded[first].index(None)
            with pytest.raises(MalformedRow) as exc:
                parse_vcf(stdio.StringIO(text))
            assert exc.value.line_no == first + 2
            assert str(exc.value) == f"line {first + 2}: sample S{i}: bad GT {rows[first][i]!r}"
            return
        matrix, _ = parse_vcf(stdio.StringIO(text))
        expected = np.array([[d for d, _ in row] for row in decoded]).T
        expected_mask = np.array([[miss for _, miss in row] for row in decoded]).T
        assert matrix.dosage.tobytes() == expected.tobytes()
        assert np.array_equal(matrix.missing_mask, expected_mask)


def test_write_parse_report_counts_and_detail(tmp_path):
    _, report = parse_vcf(stdio.StringIO(VCF_TEXT))
    summary, detail = tmp_path / "report.csv", tmp_path / "detail.csv"
    write_parse_report(report, summary, detail)
    lines = summary.read_text().splitlines()
    assert lines[0] == "reason,count"
    counted = dict(line.split(",") for line in lines[1:])
    assert counted[SKIP_MULTI_ALLELIC] == "1"
    assert sum(int(v) for v in counted.values()) >= report.rows_skipped
    assert "8" in detail.read_text()


WEIGHTS_TEXT = (
    "variant_id\teffect_allele\tother_allele\tweight\n"
    "rs1\tG\tA\t0.25\n"
    "rs2\tT\t.\t-0.125\n"
)


class TestWeights:
    def test_parse_example(self):
        table = parse_weights(stdio.StringIO(WEIGHTS_TEXT))
        assert table.variant_ids == ("rs1", "rs2")
        assert table.rows[0].weight == 0.25
        assert table.rows[1].other_allele is None

    def test_round_trip_preserves_weights_exactly(self):
        table = ScoreWeightTable(
            rows=(
                WeightRow("rs1", "G", "A", 0.1 + 0.2),  # 0.30000000000000004
                WeightRow("rs2", "T", None, -1.4e-17),
            )
        )
        buf = stdio.StringIO()
        write_weights(table, buf)
        back = parse_weights(stdio.StringIO(buf.getvalue()))
        assert back.rows[0].weight == table.rows[0].weight
        assert back.rows[1].weight == table.rows[1].weight
        assert back.rows[1].other_allele is None

    def test_duplicate_variant_rejected(self):
        text = WEIGHTS_TEXT + "rs1\tA\tG\t0.5\n"
        with pytest.raises(DuplicateVariant, match="rs1"):
            parse_weights(stdio.StringIO(text))

    @pytest.mark.parametrize("bad", ["abc", "inf", "nan"])
    def test_non_numeric_or_non_finite_weight_rejected(self, bad):
        text = WEIGHTS_TEXT + f"rs9\tA\tG\t{bad}\n"
        with pytest.raises(NonNumericWeight) as exc:
            parse_weights(stdio.StringIO(text))
        assert exc.value.line_no == 4

    def test_header_must_match(self):
        with pytest.raises(ParseAbort):
            parse_weights(stdio.StringIO("id\teffect\tother\tw\nrs1\tA\tG\t0.1\n"))


class TestPanel:
    def test_parse_skips_blanks_and_comments(self):
        panel = parse_panel(stdio.StringIO("# top hits\nrs1\n\nrs2\n"), name="demo")
        assert panel.name == "demo"
        assert panel.variant_ids == ("rs1", "rs2")

    def test_duplicates_keep_first_and_warn(self, caplog):
        with caplog.at_level(logging.WARNING):
            panel = parse_panel(stdio.StringIO("rs1\nrs2\nrs1\n"), name="p")
        assert panel.variant_ids == ("rs1", "rs2")
        assert any("duplicate" in rec.getMessage() for rec in caplog.records)

    def test_empty_panel_raises(self):
        with pytest.raises(EmptyPanel):
            parse_panel(stdio.StringIO("# nothing here\n"), name="p")

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "aims_v2.txt"
        path.write_text("rs1\n")
        assert parse_panel(path).name == "aims_v2"
        assert parse_panel(str(path)).name == parse_panel(os.fsencode(path)).name == "aims_v2"

    def test_round_trip(self, tmp_path):
        panel = parse_panel(stdio.StringIO("rs1\nrs2\n"), name="p")
        path = tmp_path / "p.txt"
        write_panel(panel, path)
        assert parse_panel(path).variant_ids == panel.variant_ids

    def test_large_panel_parses_in_order(self):
        ids = [f"rs{i}" for i in range(20000)]
        panel = parse_panel(stdio.StringIO("\n".join(ids) + "\n"), name="big")
        assert len(panel) == 20000
        assert panel.variant_ids[19999] == "rs19999"


PHENO_TEXT = (
    "sample_id\tpopulation\tsex\tbmi\n"
    "S1\tPOPA\tfemale\t31.5\n"
    "S2\tPOPB\tmale\t27.0\n"
    "S3\t.\t.\t.\n"
    "S4\tPOPA\tfemale\t27.000001\n"
)


class TestPhenotypes:
    def test_parse_example(self):
        recs = parse_phenotypes(stdio.StringIO(PHENO_TEXT))
        assert [r.sample_id for r in recs] == ["S1", "S2", "S3", "S4"]
        assert recs[0].obese is True
        assert recs[1].obese is False  # threshold is strict
        assert recs[2].population is None and recs[2].bmi is None and recs[2].obese is None
        assert recs[3].obese is True

    def test_unknown_sex_token(self):
        text = PHENO_TEXT + "S5\tPOPA\tX\t20.0\n"
        with pytest.raises(UnknownSexToken):
            parse_phenotypes(stdio.StringIO(text))

    def test_negative_bmi(self):
        text = PHENO_TEXT + "S5\tPOPA\tfemale\t-1.0\n"
        with pytest.raises(NegativeBmi):
            parse_phenotypes(stdio.StringIO(text))

    def test_duplicate_sample(self):
        text = PHENO_TEXT + "S1\tPOPA\tfemale\t20.0\n"
        with pytest.raises(DuplicateSample, match="S1"):
            parse_phenotypes(stdio.StringIO(text))

    def test_round_trip_bmi_exact(self):
        recs = [
            SampleRecord(sample_id="S1", population="POPA", sex="female", bmi=27.000000000000004),
            SampleRecord(sample_id="S2"),
        ]
        buf = stdio.StringIO()
        write_phenotypes(recs, buf)
        back = parse_phenotypes(stdio.StringIO(buf.getvalue()))
        assert back[0].bmi == recs[0].bmi
        assert back[1].bmi is None


class TestReportCsv:
    def _report(self):
        rows = (
            ReportRow("S1", "POPA", (0.123456789012, -1.5), 2.25, 0.0625, True),
            ReportRow("S2", None, (0.5, 0.25), -1.0, -0.5, None),
        )
        return CohortReport(rows=rows)

    def test_round_trip_close_to_written_precision(self):
        buf = stdio.StringIO()
        write_report_csv(self._report(), buf)
        back = read_report_csv(stdio.StringIO(buf.getvalue()))
        assert len(back.rows) == 2
        r0, r1 = back.rows
        assert r0.sample_id == "S1" and r0.population == "POPA"
        assert r0.obese is True and r1.obese is None
        assert r1.population is None
        for got, want in zip(r0.pcs, (0.123456789012, -1.5)):
            assert got == pytest.approx(want, rel=1e-9)
        assert r0.raw_prs == pytest.approx(2.25, rel=1e-9)

    def test_header_names_pc_columns(self):
        buf = stdio.StringIO()
        write_report_csv(self._report(), buf)
        assert buf.getvalue().splitlines()[0] == (
            "sample_id,population,pc1,pc2,raw_prs,adjusted_prs,obese"
        )

    def test_reader_rejects_wrong_header(self):
        with pytest.raises(ParseAbort):
            read_report_csv(stdio.StringIO("sample,pop,pc1,raw,adj,obese\n"))
