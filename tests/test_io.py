"""File formats: VCF subset, weights, panel, phenotypes, report CSV, model files."""

import io as stdio
import logging
import os
import re
import stat
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prsadjust.genotypes
import prsadjust.io
import prsadjust.text
from prsadjust.adjust import AdjustmentModel, load_adjustment_model, serialize_adjustment_model
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
    write_phenotypes,
    write_report_csv,
    write_vcf,
    write_weights,
)
from prsadjust.pca import (
    PcaModel,
    StandardizationParams,
    fit_pca,
    load_pca_model,
    pca_model_fingerprint,
    serialize_pca_model,
    standardize,
)
from conftest import make_matrix

_VCF_FIXED_COLUMNS = ("#CHROM", "POS", "ID", "REF", "ALT", "QUAL", "FILTER", "INFO", "FORMAT")
_VCF_HEADER = "\t".join(_VCF_FIXED_COLUMNS) + "\tS1\tS2\tS3"
VCF_TEXT = (
    "##fileformat=VCFv4.2\n"
    "##source=unit-test\n"
    + _VCF_HEADER + "\n"
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
            "1\t900\trs 7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",  # an ID with a space
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
            # DS tokens that float() would accept but are not an ASCII VCF Float
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:0\t0/0:0_5e-1\t0/0:0",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:0\t0/0: 0.5\t0/0:0",
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:0\t0/0:\u0661.\u0665\t0/0:0",
        ],
    )
    def test_malformed_rows_raise_with_line_number(self, row):
        text = VCF_TEXT + row + "\n"
        with pytest.raises(MalformedRow) as exc:
            parse_vcf(stdio.StringIO(text))
        assert exc.value.line_no == 11

    @pytest.mark.parametrize("wanted", [None, {"rs0"}])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_non_ascii_rows_count_their_columns(self, extra, wanted):
        """A row's tabs are counted in its UTF-8 bytes: non-ASCII text and a
        lone surrogate in it, used or not, give the same count and error."""
        n = 4
        text = _vcf_text(n, [("GT", ["0/1"] * n), ("GT", ["0/0"] * (n + extra))])
        text = text.replace("\t.\t.\t.\tGT", "\t.\t.\t\u00e9\ud800\tGT")
        if extra:
            message = f"^line 3: expected {9 + n} columns, got {9 + n + extra}$"
            with pytest.raises(MalformedRow, match=message):
                parse_vcf(stdio.StringIO(text), wanted)
        else:
            matrix, report = parse_vcf(stdio.StringIO(text), wanted)
            assert (report.rows_total, report.rows_parsed) == (2, 1 if wanted else 2)
            assert matrix.dosage[:, 0].tolist() == [1.0] * n

    @pytest.mark.parametrize(
        "row",
        [
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/3\t0/0\t0/0",  # bad GT
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:0\t0/0:0_5\t0/0:0",  # bad DS token
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT:DS\t0/0:3.5\t0/0:0\t0/0:0",  # DS out of range
        ],
    )
    def test_unused_row_entries_are_not_read(self, row):
        wanted = {"rs1", "rs2", "rs3", "1:400:T:C"}
        full, full_report = parse_vcf(stdio.StringIO(VCF_TEXT))
        matrix, report = parse_vcf(stdio.StringIO(VCF_TEXT + row + "\n"), wanted)
        assert matrix.variants == full.variants
        assert matrix.dosage.tobytes() == full.dosage.tobytes()
        assert (report.rows_total, report.rows_parsed, report.rows_unused) == (8, 4, 1)
        assert report.skipped == full_report.skipped

    @pytest.mark.parametrize(
        "row",
        [
            "1\t900\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0",  # short row
            "1\t+7\trs7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",  # POS not ASCII digits
            "1\t900\trs7\tA\tG\t.\t.\t.\tDS:GT\t0:0/0\t0:0/0\t0:0/0",  # FORMAT without leading GT
            "1\t900\trs 7\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",  # an ID with a space
        ],
    )
    def test_unused_row_fixed_fields_are_still_checked(self, row):
        with pytest.raises(MalformedRow) as exc:
            parse_vcf(stdio.StringIO(VCF_TEXT + row + "\n"), {"rs1"})
        assert exc.value.line_no == 11

    def test_unused_rows_are_still_skipped_by_reason(self):
        """rs1 is not wanted, yet its second row is still a duplicate."""
        _, full_report = parse_vcf(stdio.StringIO(VCF_TEXT))
        matrix, report = parse_vcf(stdio.StringIO(VCF_TEXT), {"rs2"})
        assert matrix.variant_ids == ("rs2",)
        assert report.skipped == full_report.skipped
        assert (report.rows_total, report.rows_parsed, report.rows_unused) == (7, 1, 3)

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("S1\tS2\tS3", "S1\tS1\tS3", "line 3: duplicate sample names in header"),
            ("S1\tS2\tS3", "S1\tS\r2\tS3", "line 3: sample name 'S\\r2' holds a line break"),
            ("#CHROM\tPOS\t", "#CHROM\tPOSITION\t",
             "line 3: header must start with " + "\t".join(_VCF_FIXED_COLUMNS)),
            ("1\t100\t", _VCF_HEADER + "\n1\t100\t", "line 4: second header line"),
        ],
        ids=["duplicate_names", "broken_name", "fixed_columns", "second_header"],
    )
    def test_bad_header_line_aborts(self, old, new, message):
        with pytest.raises(ParseAbort) as exc:
            parse_vcf(stdio.StringIO(VCF_TEXT.replace(old, new, 1)))
        assert str(exc.value) == message

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
        # a tab or line break in an id or chromosome would split its row when written
        for bad in ("\t", "\r", "\n"):
            with pytest.raises(ValueError, match="tab or line break"):
                replace(m.variants[0], id=f"rs{bad}1")
            with pytest.raises(ValueError, match="tab or line break"):
                replace(m.variants[0], chromosome=f"1{bad}")

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

    def test_call_table_accepts_exactly_the_valid_calls(self):
        """Every 3-byte ASCII call and its tab, 128^3 words: _gt_rows accepts a
        word exactly when its call is valid, with that call's dosage and flag."""
        calls = (*prsadjust.io._GT_DOSAGE, *prsadjust.io._GT_MISSING)
        valid = np.frombuffer("".join(c + "\t" for c in calls).encode("ascii"), "<u4")
        assert len(set(prsadjust.io._gt_slots(valid).tolist())) == len(calls) == 10
        order = np.argsort(valid)
        valid = valid[order]
        dosage = np.array([prsadjust.io._GT_DOSAGE.get(c, 0.0) for c in calls])[order]
        flag = np.array([c in prsadjust.io._GT_MISSING for c in calls])[order]
        byte = np.arange(128, dtype="<u4")
        accepted = 0
        for first in byte.tolist():  # a block of 128^2 words, so no call list is large
            words = (first | (byte[:, None] << 8) | (byte[None, :] << 16) | np.uint32(9 << 24)).ravel()
            text = words.tobytes().decode("ascii")
            ok, got_dosage, got_flag = prsadjust.io._gt_rows(
                [text[i : i + 3] for i in range(0, len(text), 4)], 1
            )
            expected = np.isin(words, valid)
            assert np.array_equal(ok, expected)
            at = np.searchsorted(valid, words[expected])
            assert got_dosage[expected, 0].tobytes() == dosage[at].tobytes()
            assert np.array_equal(got_flag[expected, 0], flag[at])
            accepted += int(ok.sum())
        assert accepted == 10


# The DS token grammar: a VCF Float in ASCII.
_VCF_FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)
# Exact decimal codes: a digit, alone or with a point and 1 to 14 more (15 digits at most)...
_EXACT_DS_TOKENS = ["0", "2", "0.5", "1.25", "0.125", "0.00001", "1.99999999999999", "."]
# ...and tokens the per-entry decoder reads: other VCF Floats, 16 and 17 digits.
_OTHER_DS_TOKENS = ["-0.0", "1e-05", ".5", "2.", "+1", "1E0", "00.5", "1.234567890123456",
                    "0.1234567890123456"]
_DS_TOKENS = _EXACT_DS_TOKENS * 2 + _OTHER_DS_TOKENS
_BAD_DS_TOKENS = ["0_5e-1", " 0.5", "\u0661.\u0665", "nan", "inf", "2.5", "-1", "x", "", "1e",
                  "2.00000000000001"]
_GT_TOKENS = ["0/0", "0|1", "1/0", "1/1", "./.", ".|."]
_BAD_GT_TOKENS = ["0/2", "x/y"]
# Block budgets: one row a block, a few rows a block, and the real budget.
_BUDGETS = st.sampled_from([1, 24, prsadjust.io._BLOCK_BYTES])
# The writer's block sizes in cells: one variant a block, a few, and the real size.
_WRITE_CELLS = st.sampled_from([1, 8, prsadjust.genotypes._BLOCK_CELLS])


def _entry_oracle(entry, ds_index):
    """Per-entry reference decoding: (dosage, missing), or the error's text."""
    subfields = entry.split(":")
    if ds_index is not None and ds_index < len(subfields):
        token = subfields[ds_index]
        if token == ".":
            return 0.0, True
        if not _VCF_FLOAT.fullmatch(token):
            return f"bad DS {token!r}"
        value = float(token)
        if not 0.0 <= value <= 2.0:
            return f"DS {token} outside [0, 2]"
        return value, False
    decoded = _gt_oracle(subfields[0])
    return f"bad GT {subfields[0]!r}" if decoded is None else decoded


def _gt_entry(d):
    return f"{('0/0', '0/1', '1/1')[int(np.rint(d))]}:{d!r}"


def _vcf_text(n, rows, pos_text=None):
    """A VCF of rows (FORMAT, entries) over samples S0..; ``pos_text`` maps a
    row index to the POS written in place of its own."""
    header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(
        f"S{i}" for i in range(n)
    )
    pos_text = pos_text or {}
    lines = [header] + [
        f"1\t{pos_text.get(r, 100 * (r + 1))}\trs{r}\tA\tG\t.\t.\t.\t{fmt}\t" + "\t".join(entries)
        for r, (fmt, entries) in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


@st.composite
def dosage_vcf_rows(draw):
    """(sample count, [(FORMAT, entries)]) over small token pools, some invalid.

    Most entries hold every subfield FORMAT names, so whole rows can take
    the exact decimal path; the others drop trailing subfields or add some.
    "DS:GT" does not start with GT, so its rows are refused.
    """
    n = draw(st.integers(min_value=1, max_value=5))

    def row(fmt):
        full = fmt.count(":")
        subfields = st.sampled_from([full, full, 0, 1, 2, 3]).flatmap(
            lambda k: st.lists(st.sampled_from(_DS_TOKENS * 8 + _BAD_DS_TOKENS), min_size=k, max_size=k)
        )
        entry = st.tuples(st.sampled_from(_GT_TOKENS * 4 + _BAD_GT_TOKENS), subfields).map(
            lambda parts: ":".join([parts[0], *parts[1]])
        )
        return st.tuples(st.just(fmt), st.lists(entry, min_size=n, max_size=n))

    formats = st.sampled_from(["GT:DS", "GT:DS", "GT", "GT:GQ:DS", "GT:DS:GP", "DS:GT"])
    return n, draw(st.lists(formats.flatmap(row), min_size=1, max_size=8))


_SPECIAL_DOSAGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1 + 0.2, 1.5, 2.0]


def _decimals(places):
    """Dosages that are exact decimals of ``places`` places."""
    return st.integers(0, 2 * 10**places).map(lambda code: code / 10**places)


@st.composite
def dosage_matrices(draw):
    """Matrices with a fractional observed dosage, so write_vcf takes GT:DS.

    Each variant draws its dosages as decimals of 0 to 7 places (up to
    _WRITE_DECIMALS places a table renders them; beyond, each distinct one
    is formatted in its block), from special values (-0.0, subnormals, a
    sum that is no short decimal) or as any float in [0, 2]; some variants
    then get one special value among their decimals. Under the mask
    dosages are NaN or any value.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    pools = [_decimals(p) for p in range(8)] + [st.sampled_from(_SPECIAL_DOSAGES), st.floats(0.0, 2.0)]
    grid = np.empty((n, m))
    for j in range(m):
        grid[:, j] = draw(st.lists(draw(st.sampled_from(pools)), min_size=n, max_size=n))
        if draw(st.booleans()):
            grid[draw(st.integers(0, n - 1)), j] = draw(st.sampled_from(_SPECIAL_DOSAGES))
    flags = st.lists(st.booleans(), min_size=n * m, max_size=n * m)
    mask = np.array(draw(flags)).reshape(n, m)
    grid[mask & np.array(draw(flags)).reshape(n, m)] = np.nan
    if np.all((grid == np.rint(grid)) | mask):
        grid[0, 0], mask[0, 0] = 0.5, False
    return make_matrix(grid, missing=list(zip(*np.nonzero(mask))))


class TestDosageBlockCodec:
    @given(dosage_vcf_rows(), st.none() | st.integers(0, 7), _BUDGETS)
    def test_parse_matches_per_entry_oracle(self, drawn, broken, budget):
        """The first bad row in the file raises, whether its entries or its
        POS ("x" in row ``broken``) are bad, though earlier rows are still
        pending in a block; else every value is bitwise the oracle's."""
        n, rows = drawn
        text = _vcf_text(n, rows, {broken: "x"})
        decoded = []
        for fmt, entries in rows:
            keys = fmt.split(":")
            ds_index = keys.index("DS") if "DS" in keys else None
            decoded.append([_entry_oracle(e, ds_index) for e in entries])
        with mock.patch.object(prsadjust.io, "_BLOCK_BYTES", budget):
            for r, (row, (fmt, _)) in enumerate(zip(decoded, rows)):
                errors = [f"sample S{i}: {d}" for i, d in enumerate(row) if isinstance(d, str)]
                if r == broken:
                    errors = ["POS 'x' is not a run of ASCII digits"]
                elif not fmt.startswith("GT:") and fmt != "GT":
                    errors = [f"FORMAT {fmt!r} must start with GT"]
                if errors:
                    with pytest.raises(MalformedRow) as exc:
                        parse_vcf(stdio.StringIO(text))
                    assert exc.value.line_no == r + 2
                    assert str(exc.value) == f"line {r + 2}: {errors[0]}"
                    return
            matrix, _ = parse_vcf(stdio.StringIO(text))
        expected = np.array([[d for d, _ in row] for row in decoded]).T
        expected_mask = np.array([[miss for _, miss in row] for row in decoded]).T
        assert matrix.dosage.tobytes() == expected.tobytes()
        assert np.array_equal(matrix.missing_mask, expected_mask)

    @pytest.mark.parametrize("token", _EXACT_DS_TOKENS)
    def test_exact_tokens_skip_the_per_entry_decoder(self, token):
        text = _vcf_text(2, [("GT:DS", [f"0/1:{token}", "./.:."]), ("GT:DS:GP", [f"0/1:{token}:x"] * 2)])
        with mock.patch.object(
            prsadjust.io, "_decode_entries", wraps=prsadjust.io._decode_entries
        ) as per_entry:
            matrix, _ = parse_vcf(stdio.StringIO(text))
        assert per_entry.call_count == 0
        value = 0.0 if token == "." else float(token)
        assert matrix.dosage[0].tobytes() == np.array([value, value]).tobytes()
        assert matrix.missing_mask.tolist() == [[token == "."] * 2, [True, token == "."]]

    @pytest.mark.parametrize("token", ["2.5", "3", "2.00000000000001", "9.99999999999999"])
    def test_exact_tokens_above_two_raise(self, token):
        text = _vcf_text(2, [("GT:DS", ["0/1:0.5", "0/0:0"]), ("GT:DS", ["0/1:0.5", f"0/0:{token}"])])
        with pytest.raises(MalformedRow) as exc:
            parse_vcf(stdio.StringIO(text))
        assert str(exc.value) == f"line 3: sample S1: DS {token} outside [0, 2]"

    @pytest.mark.parametrize("token", _OTHER_DS_TOKENS)
    def test_other_tokens_are_read_without_the_per_entry_decoder(self, token):
        text = _vcf_text(2, [("GT:DS", ["0/1:0.5", "0/0:0"]), ("GT:DS", [f"0/1:{token}", "0/0:0"])])
        with mock.patch.object(
            prsadjust.io, "_decode_entries", wraps=prsadjust.io._decode_entries
        ) as per_entry:
            matrix, _ = parse_vcf(stdio.StringIO(text))
        assert per_entry.call_count == 0
        assert matrix.dosage[0, 1] == float(token)
        assert str(matrix.dosage[0, 1]) == str(float(token))  # -0.0 keeps its sign

    @pytest.mark.parametrize("token", _BAD_DS_TOKENS)
    def test_bad_tokens_take_the_per_entry_decoder(self, token):
        text = _vcf_text(2, [("GT:DS", ["0/1:0.5", "0/0:0"]), ("GT:DS", ["0/1:1", f"0/0:{token}"])])
        with mock.patch.object(
            prsadjust.io, "_decode_entries", wraps=prsadjust.io._decode_entries
        ) as per_entry, pytest.raises(MalformedRow) as exc:
            parse_vcf(stdio.StringIO(text))
        assert per_entry.call_count == 1
        assert str(exc.value) == f"line 3: sample S1: {_entry_oracle(f'0/0:{token}', 1)}"

    @given(dosage_matrices(), _WRITE_CELLS, _BUDGETS)
    def test_write_matches_per_entry_rendering_and_round_trips(self, matrix, cells, budget):
        buf = stdio.StringIO()
        with mock.patch.object(prsadjust.genotypes, "_BLOCK_CELLS", cells):
            write_vcf(matrix, buf)
        with mock.patch.object(prsadjust.io, "_BLOCK_BYTES", budget):
            back, _ = parse_vcf(stdio.StringIO(buf.getvalue()))
        rows = buf.getvalue().splitlines()[3:]
        assert len(rows) == matrix.n_variants
        for j, line in enumerate(rows):
            fields = line.split("\t")
            assert fields[8] == "GT:DS"
            assert fields[9:] == [
                "./.:." if matrix.missing_mask[i, j] else _gt_entry(float(matrix.dosage[i, j]))
                for i in range(matrix.n_samples)
            ]
        assert np.array_equal(back.missing_mask, matrix.missing_mask)
        expected = np.where(matrix.missing_mask, 0.0, matrix.dosage)
        assert back.dosage.tobytes() == expected.tobytes()

    def test_write_formats_each_table_entry_once_per_file(self):
        """Rows of 3-place dosages share one table of 2,001 entries; a
        5-place dosage beside them is formatted once in its block."""
        grid = np.array([[0.125, 0.5, 0.00001], [1.0, 1.999, 1.0], [0.0, 0.25, 0.5]] * 4)
        matrix = make_matrix(grid, missing=[(0, 1)])
        with mock.patch.object(prsadjust.io, "_ds_entry", wraps=prsadjust.io._ds_entry) as entry:
            write_vcf(matrix, stdio.StringIO())
            assert entry.call_count == 2001 + 1
            write_vcf(matrix, stdio.StringIO())
            assert entry.call_count == 2 * (2001 + 1)


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
        # a tab or line break in an id would split its row when written
        for bad in ("\t", "\r", "\n"):
            with pytest.raises(ValueError, match="tab or line break"):
                replace(table.rows[0], variant_id=f"rs1{bad}x")

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("rs1\tA\tG\t0.5", DuplicateVariant, "line 4: variant rs1 repeated"),
            ("rs9\tN\tG\t0.5", MalformedRow,
             "line 4: weight row rs9: effect allele 'N' is not an uppercase ACGT run"),
        ],
        ids=["duplicate_variant", "effect_allele_N"],
    )
    def test_bad_row_rejected(self, row, error, message):
        with pytest.raises(error) as exc:
            parse_weights(stdio.StringIO(WEIGHTS_TEXT + row + "\n"))
        assert type(exc.value) is error
        assert str(exc.value) == message

    # float() takes "0_5" as 5.0 and Arabic-Indic "1.5"; a weight is an ASCII VCF Float.
    @pytest.mark.parametrize("bad", ["abc", "inf", "nan", "1e999", "0_5", "\u0661.\u0665"])
    def test_non_numeric_or_non_finite_weight_rejected(self, bad):
        text = WEIGHTS_TEXT + f"rs9\tA\tG\t{bad}\n"
        with pytest.raises(NonNumericWeight) as exc:
            parse_weights(stdio.StringIO(text))
        assert exc.value.line_no == 4
        assert isinstance(exc.value, MalformedRow)
        assert str(exc.value).startswith(f"line 4: weight {bad!r} is not ")

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
        # a tab or line break in an id would split its line when written
        for bad in ("\t", "\r", "\n"):
            with pytest.raises(ValueError, match="tab or line break"):
                replace(panel, variant_ids=("rs1", f"rs2{bad}rs3"))

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

    # float() takes "2_8" as 28.0, which would label the sample obese; "1e999"
    # is a VCF Float that reads as inf.
    @pytest.mark.parametrize(
        "row, message",
        [(f"S5\tPOPA\tfemale\t{bad}", f"bmi {bad!r} is not a number")
         for bad in ["2_8", "\u0662\u0668", " 28", "nan", "inf"]]
        + [
            ("S5\tPOPA\tfemale\t1e999", "bmi '1e999' is not finite"),
            (".\tPOPA\tfemale\t20.0", "sample_id is missing"),
        ],
    )
    def test_bad_row_is_refused_by_line(self, row, message):
        with pytest.raises(MalformedRow) as exc:
            parse_phenotypes(stdio.StringIO(PHENO_TEXT + row + "\n"))
        assert exc.value.line_no == 6
        assert str(exc.value) == f"line 6: {message}"

    def test_negative_bmi(self):
        text = PHENO_TEXT + "S5\tPOPA\tfemale\t-1.0\n"
        with pytest.raises(NegativeBmi) as exc:
            parse_phenotypes(stdio.StringIO(text))
        assert str(exc.value) == "line 6: sample S5: bmi -1.0 is negative"

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
        # a tab or line break in an id or label would split its row when written
        for bad in ("\t", "\r", "\n"):
            with pytest.raises(ValueError, match="tab or line break"):
                replace(recs[0], sample_id=f"S{bad}1")
            with pytest.raises(ValueError, match="tab or line break"):
                replace(recs[0], population=f"POP{bad}A")


@pytest.mark.parametrize(
    "parse, kind, text",
    [(parse_weights, "weights", WEIGHTS_TEXT), (parse_phenotypes, "phenotypes", PHENO_TEXT)],
    ids=["weights", "phenotypes"],
)
@pytest.mark.parametrize("case", ["wrong_header", "no_header", "3_columns", "5_columns"])
def test_headed_table_layout_errors(parse, kind, text, case):
    header, row = text.splitlines()[:2]
    lead = "# leading comment\n\n"
    body, error, message, line_no = {
        "wrong_header": (
            lead + "\t".join(reversed(header.split("\t"))) + "\n" + row + "\n",
            ParseAbort, f"{kind} header must be {header}", None,
        ),
        "no_header": ("# only\n\n# comments\n", ParseAbort, f"{kind} file has no header line", None),
        "3_columns": (
            lead + header + "\n" + row.rsplit("\t", 1)[0] + "\n",
            MalformedRow, "line 4: expected 4 columns, got 3", 4,
        ),
        "5_columns": (
            lead + header + "\n# mid\n" + row + "\t.\n",
            MalformedRow, "line 5: expected 4 columns, got 5", 5,
        ),
    }[case]
    with pytest.raises(error) as exc:
        parse(stdio.StringIO(body))
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert getattr(exc.value, "line_no", None) == line_no


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

    _HEADER = "sample_id,population,pc1,pc2,raw_prs,adjusted_prs,obese"
    _ROW = "S1,POPA,0.5,-1.5,2.25,0.0625,1"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("", ParseAbort, "report CSV is empty"),
            ("sample,pop,pc1,raw,adj,obese\n" + _ROW + "\n", ParseAbort,
             "report CSV header is not in the expected layout"),
            (_HEADER.replace("pc1,pc2", "pc2,pc1") + "\n" + _ROW + "\n", ParseAbort,
             "report CSV pc columns must be pc1..pck"),
            (_HEADER + "\n" + _ROW + ",0\n", MalformedRow, "line 2: expected 7 fields"),
            (_HEADER + "\n" + _ROW[:-1] + "2\n", MalformedRow, "line 2: obese '2' must be 0, 1 or ."),
            (_HEADER + "\n", ParseAbort, "report CSV has no data rows"),
        ],
        ids=["empty", "wrong_header", "pc_columns", "row_width", "obese_token", "no_rows"],
    )
    def test_reader_refuses_bad_layout(self, text, error, message):
        with pytest.raises(error) as exc:
            read_report_csv(stdio.StringIO(text))
        assert type(exc.value) is error
        assert str(exc.value) == message

    # float() would read "1_0" as 10.0; report numbers are ASCII VCF Floats.
    @pytest.mark.parametrize("column", [2, 4, 5])
    @pytest.mark.parametrize("bad", ["1_0", "nan", " 2", "\u0661"])
    def test_reader_reads_numbers_strictly(self, column, bad):
        buf = stdio.StringIO()
        write_report_csv(self._report(), buf)
        header, first, *rest = buf.getvalue().splitlines()
        fields = first.split(",")
        fields[column] = bad
        text = "\n".join([header, ",".join(fields), *rest]) + "\n"
        with pytest.raises(MalformedRow) as exc:
            read_report_csv(stdio.StringIO(text))
        assert str(exc.value) == "line 2: non-numeric score field"


class TestOutputReplacement:
    """Every writer opens its path through ``text._text_dest``: an existing
    regular file is replaced by a new one, anything else is written as it is."""

    @staticmethod
    def _write(dest, text):
        with prsadjust.text._text_dest(dest) as handle:
            handle.write(text)

    def test_regular_file_is_replaced_by_a_new_inode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old text, longer than the new one\n")
        path.chmod(0o600)
        os.link(path, tmp_path / "old_link")  # keeps the old inode alive
        old_inode = path.stat().st_ino
        self._write(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_ino != old_inode
        assert (tmp_path / "old_link").read_text() == "old text, longer than the new one\n"
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_symlink_keeps_its_link_and_its_target_is_rewritten(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old text, longer than the new one\n")
        target_inode = target.stat().st_ino
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        self._write(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"
        assert target.stat().st_ino == target_inode

    def test_devnull_is_written_and_not_removed(self, monkeypatch):
        # Record unlinks instead of making them: run as root, a broken rule
        # would otherwise delete the real device.
        unlinked = []
        monkeypatch.setattr(prsadjust.text.os, "unlink", unlinked.append)
        before = os.stat(os.devnull)
        self._write(os.devnull, "discarded\n")
        assert unlinked == []
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)

    def test_refused_unlink_rewrites_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old text, longer than the new one\n")
        old_inode = path.stat().st_ino
        refused = []

        def refuse(target, *args, **kwargs):
            refused.append(target)
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(prsadjust.text.os, "unlink", refuse)
        self._write(path, "new\n")
        assert refused == [path]
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_ino == old_inode

    def test_stream_is_written_as_given(self):
        stream = stdio.StringIO()
        stream.write("kept\n")
        self._write(stream, "new\n")
        assert not stream.closed
        assert stream.getvalue() == "kept\nnew\n"


@st.composite
def mixed_vcf_rows(draw):
    """(sample count, [(ALT, FORMAT, entries)]): fixed-width GT rows, GT rows
    with subfields, GT:DS rows and multi-allelic rows, which are skipped."""
    n = draw(st.integers(min_value=1, max_value=5))
    gt = st.sampled_from(_GT_TOKENS)
    kinds = {
        "GT": st.lists(gt, min_size=n, max_size=n),
        "GT:GQ": st.lists(gt.map(lambda call: call + ":30"), min_size=n, max_size=n),
        "GT:DS": st.lists(
            st.tuples(gt, st.sampled_from(_DS_TOKENS)).map(":".join), min_size=n, max_size=n
        ),
    }
    alt = st.sampled_from(["G", "G", "G", "G,T"])
    row = st.sampled_from(sorted(kinds)).flatmap(lambda f: st.tuples(alt, st.just(f), kinds[f]))
    return n, draw(st.lists(row, min_size=0, max_size=8))


class TestParseVcfLayout:
    @given(mixed_vcf_rows())
    def test_matches_stacked_per_row_decodes(self, drawn):
        """One F-ordered float64 matrix and bool mask (views of the row
        buffers), bitwise what stacking each parsed row's decode gives, also
        with no parsed row: (n, 0)."""
        n, rows = drawn
        names = tuple(f"S{i}" for i in range(n))
        header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(names)
        lines = [header] + [
            f"1\t{100 * (r + 1)}\trs{r}\tA\t{alt}\t.\t.\t.\t{fmt}\t" + "\t".join(entries)
            for r, (alt, fmt, entries) in enumerate(rows)
        ]
        matrix, report = parse_vcf(stdio.StringIO("\n".join(lines) + "\n"))
        decoded = [
            prsadjust.io._decode_entries(entries, 1 if fmt == "GT:DS" else None, names, r + 2)
            for r, (alt, fmt, entries) in enumerate(rows)
            if "," not in alt
        ]
        if decoded:
            dosage = np.stack([dose for dose, _ in decoded], axis=1)
            missing = np.stack([miss for _, miss in decoded], axis=1)
        else:
            dosage, missing = np.empty((n, 0)), np.empty((n, 0), dtype=bool)
        assert report.rows_parsed == len(decoded)
        for got, want in ((matrix.dosage, dosage), (matrix.missing_mask, missing)):
            assert got.dtype == want.dtype and got.shape == (n, len(decoded))
            assert got.flags["F_CONTIGUOUS"]
            assert got.tobytes() == want.tobytes()


# Row ids drawn with repeats, so some rows are duplicates; "." falls back
# to chrom:pos:ref:alt.
_ROW_IDS = ["rs0", "rs1", "rs2", "rs3", "."]


@st.composite
def vcf_rows_and_wanted(draw):
    """(sample count, [(ID, ALT, FORMAT, entries)], wanted ids): rows of
    mixed_vcf_rows or, with invalid entries, of dosage_vcf_rows, and a subset
    of their resolved ids plus one no row has."""
    n, rows = draw(st.one_of(
        mixed_vcf_rows(),
        dosage_vcf_rows().map(lambda d: (d[0], [("G", fmt, e) for fmt, e in d[1]])),
    ))
    ids = draw(st.lists(st.sampled_from(_ROW_IDS), min_size=len(rows), max_size=len(rows)))
    rows = [(vid, *row) for vid, row in zip(ids, rows)]
    resolved = {_resolved_id(r, vid, alt) for r, (vid, alt, _, _) in enumerate(rows)}
    wanted = draw(st.sets(st.sampled_from(sorted(resolved | {"rs_absent"}))))
    return n, rows, wanted


def _resolved_id(r, vid, alt):
    return f"1:{100 * (r + 1)}:A:{alt}" if vid == "." else vid


class TestParseVcfWanted:
    @given(vcf_rows_and_wanted(), _BUDGETS)
    def test_equals_the_full_parse_restricted_to_wanted(self, drawn, budget):
        """With wanted, the full parse of the same file with every unwanted
        row's calls made valid, restricted to the wanted ids in file order:
        the same variants, dosage and mask bits and skip lines, or the same
        error. Unwanted rows are counted, not decoded."""
        n, rows, wanted = drawn
        header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(
            f"S{i}" for i in range(n)
        )

        def text(valid_unwanted):
            lines = [header]
            for r, (vid, alt, fmt, entries) in enumerate(rows):
                if valid_unwanted and _resolved_id(r, vid, alt) not in wanted:
                    entries = ["./."] * n
                lines.append(f"1\t{100 * (r + 1)}\t{vid}\tA\t{alt}\t.\t.\t.\t{fmt}\t"
                             + "\t".join(entries))
            return "\n".join(lines) + "\n"

        with mock.patch.object(prsadjust.io, "_BLOCK_BYTES", budget):
            try:
                full, full_report = parse_vcf(stdio.StringIO(text(True)))
            except MalformedRow as error:
                with pytest.raises(MalformedRow) as exc:
                    parse_vcf(stdio.StringIO(text(False)), wanted)
                assert str(exc.value) == str(error)
                return
            matrix, report = parse_vcf(stdio.StringIO(text(False)), wanted)
        keep = [j for j, v in enumerate(full.variants) if v.id in wanted]
        assert matrix.variants == tuple(full.variants[j] for j in keep)
        assert matrix.dosage.tobytes() == full.dosage[:, keep].tobytes()
        assert matrix.missing_mask.tobytes() == full.missing_mask[:, keep].tobytes()
        assert matrix.dosage.flags["F_CONTIGUOUS"]
        assert report.skipped == full_report.skipped
        assert report.rows_total == full_report.rows_total
        assert report.rows_parsed == len(keep)
        assert report.rows_unused == full_report.rows_parsed - len(keep)
        assert report.rows_parsed + report.rows_skipped + report.rows_unused == report.rows_total


# Model files: every float64 the writer can meet, subnormals and -0.0 included.
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_NONNEGATIVE = st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_IDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_:.", min_size=1, max_size=8)


@st.composite
def pca_models(draw):
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    names = draw(st.lists(_IDS, min_size=m, max_size=m + 3, unique=True))
    params = StandardizationParams(
        variant_ids=tuple(names[:m]),
        mean=draw(st.lists(_FLOATS, min_size=m, max_size=m)),
        scale=draw(st.lists(_POSITIVE, min_size=m, max_size=m)),
        dropped_variants=tuple(names[m:]),
    )
    return PcaModel(
        loadings=np.reshape(draw(st.lists(_FLOATS, min_size=m * k, max_size=m * k)), (m, k)),
        eigenvalues=sorted(draw(st.lists(_NONNEGATIVE, min_size=k, max_size=k)), reverse=True),
        total_variance=draw(_FLOATS),
        n_train=draw(st.integers(0, 10**6)),
        params=params,
    )


@st.composite
def adjustment_models(draw):
    k = draw(st.integers(1, 5))
    return AdjustmentModel(
        intercept=draw(_FLOATS),
        coefficients=np.array(draw(st.lists(_FLOATS, min_size=k, max_size=k))),
        r_squared=draw(_FLOATS),
        n_train=draw(st.integers(0, 10**6)),
        pca_fingerprint=draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
    )


def _bits(*values):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def _mutations(text):
    """(name, text) for the text with a line appended, and with each line
    duplicated or deleted in turn."""
    lines = text.splitlines(keepends=True)
    yield "appended line", text + "extra 1\n"
    for i in range(len(lines)):
        yield f"line {i + 1} duplicated", "".join(lines[: i + 1] + lines[i:])
        yield f"line {i + 1} deleted", "".join(lines[:i] + lines[i + 1:])


def _saved_pca_model():
    dosage = np.random.default_rng(5).integers(0, 3, size=(12, 5)).astype(float)
    dosage[:, 1] = 1.0  # constant: dropped, so the dropped list is not empty
    X, params = standardize(make_matrix(dosage))
    return serialize_pca_model(fit_pca(X, 2, params))


def _saved_adjustment_model():
    model = AdjustmentModel(0.25, np.array([1.0, -2.0]), 0.5, 9, "a" * 64)
    return serialize_adjustment_model(model)


class TestModelFiles:
    @given(pca_models())
    def test_pca_round_trip_is_bitwise(self, model):
        text = serialize_pca_model(model)
        loaded = load_pca_model(stdio.StringIO(text))
        p, q = model.params, loaded.params
        assert loaded.loadings.shape == model.loadings.shape
        assert _bits(loaded.loadings, loaded.eigenvalues, q.mean, q.scale, loaded.total_variance) == (
            _bits(model.loadings, model.eigenvalues, p.mean, p.scale, model.total_variance)
        )
        assert (q.variant_ids, q.dropped_variants) == (p.variant_ids, p.dropped_variants)
        assert loaded.n_train == model.n_train
        assert pca_model_fingerprint(loaded) == pca_model_fingerprint(model)
        assert serialize_pca_model(loaded) == text

    @given(adjustment_models())
    def test_adjustment_round_trip_is_bitwise(self, model):
        text = serialize_adjustment_model(model)
        loaded = load_adjustment_model(stdio.StringIO(text))
        assert _bits(loaded.intercept, loaded.coefficients, loaded.r_squared) == (
            _bits(model.intercept, model.coefficients, model.r_squared)
        )
        assert (loaded.n_train, loaded.pca_fingerprint) == (model.n_train, model.pca_fingerprint)
        assert serialize_adjustment_model(loaded) == text

    @pytest.mark.parametrize(
        "saved, load",
        [(_saved_pca_model, load_pca_model), (_saved_adjustment_model, load_adjustment_model)],
    )
    def test_any_added_or_lost_line_is_refused(self, saved, load):
        text = saved()
        load(stdio.StringIO(text))
        accepted = []
        for name, mutated in _mutations(text):
            try:
                load(stdio.StringIO(mutated))
            except ValueError:
                continue
            accepted.append(name)
        assert accepted == []

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("prsadjust-pca v3", "prsadjust-pca v2", "not a prsadjust-pca v3 file"),
            ("n_variants 4", "n_variants 3", "PCA model has 4 rows, expected 3"),
            ("dropped rs2", "drop rs2", "PCA model has an unknown 'drop' line"),
            ("\nrs1 ", "\nrs1  ", "a PCA model row does not hold an id and 4 numbers"),
        ],
    )
    def test_pca_model_layout_errors(self, old, new, message):
        text = _saved_pca_model()
        assert old in text
        with pytest.raises(ValueError) as exc:
            load_pca_model(stdio.StringIO(text.replace(old, new, 1)))
        assert str(exc.value) == message

    def test_pca_model_without_variants_is_refused(self):
        lines = _saved_pca_model().replace("n_variants 4", "n_variants 0").splitlines()
        header = [line for line in lines if not line.startswith("rs")]
        with pytest.raises(ValueError, match="^PCA model has no variants$"):
            load_pca_model(stdio.StringIO("\n".join(header) + "\n"))
