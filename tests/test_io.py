"""File formats: VCF subset, weights, panel, phenotypes, report CSV, model files."""

import io as stdio
import logging
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prsadjust.io
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
    SCALE_MODES,
    PcaModel,
    StandardizationParams,
    fit_pca,
    load_pca_model,
    pca_model_fingerprint,
    serialize_pca_model,
    standardize,
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


# The DS token grammar: a VCF Float in ASCII.
_VCF_FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)
_DS_TOKENS = ["0", "0.5", "1.25", "2", "-0.0", "1e-05", ".5", "2.", "+1", "1E0", ".", "0.125"]
_BAD_DS_TOKENS = ["0_5e-1", " 0.5", "\u0661.\u0665", "nan", "inf", "2.5", "-1", "x", "", "1e"]
_GT_TOKENS = ["0/0", "0|1", "1/0", "1/1", "./.", ".|."]
_BAD_GT_TOKENS = ["0/2", "x/y"]
# The real cap, and caps small enough that these examples exceed them.
_CAPS = st.sampled_from([0, 1, 3, prsadjust.io._MEMO_CAP])


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


@st.composite
def dosage_vcf_rows(draw):
    """(sample count, [(FORMAT, entries)]) over small token pools, some invalid."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.tuples(
        st.sampled_from(_GT_TOKENS * 4 + _BAD_GT_TOKENS),
        st.lists(st.sampled_from(_DS_TOKENS * 8 + _BAD_DS_TOKENS), max_size=2),
    ).map(lambda parts: ":".join([parts[0], *parts[1]]))
    row = st.tuples(
        st.sampled_from(["GT:DS", "GT", "GT:GQ:DS"]),
        st.lists(entry, min_size=n, max_size=n),
    )
    return n, draw(st.lists(row, min_size=1, max_size=8))


_SPECIAL_DOSAGES = [-0.0, 0.0, 1e-05, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1.5, 2.0]


@st.composite
def dosage_matrices(draw):
    """Matrices with a fractional observed dosage, so write_vcf takes GT:DS.

    Values come from a small pool (so rows repeat entries) or are all
    distinct; under the mask they are NaN or any dosage.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    size = n * m
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(0.0, 2.0), min_size=size, max_size=size, unique=True))
    else:
        pool = st.one_of(st.sampled_from(_SPECIAL_DOSAGES), st.floats(0.0, 2.0))
        values = draw(st.lists(pool, min_size=size, max_size=size))
    grid = np.array(values, dtype=float).reshape(n, m)
    flags = st.lists(st.booleans(), min_size=size, max_size=size)
    mask = np.array(draw(flags)).reshape(n, m)
    grid[mask & np.array(draw(flags)).reshape(n, m)] = np.nan
    if np.all((grid == np.rint(grid)) | mask):
        grid[0, 0], mask[0, 0] = 0.5, False
    return make_matrix(grid, missing=list(zip(*np.nonzero(mask))))


class TestDosageMemoTables:
    @given(dosage_vcf_rows(), _CAPS)
    def test_parse_matches_per_entry_oracle(self, drawn, cap):
        n, rows = drawn
        header = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + "\t".join(
            f"S{i}" for i in range(n)
        )
        lines = [header] + [
            f"1\t{100 * (r + 1)}\trs{r}\tA\tG\t.\t.\t.\t{fmt}\t" + "\t".join(entries)
            for r, (fmt, entries) in enumerate(rows)
        ]
        text = "\n".join(lines) + "\n"
        decoded = []
        for fmt, entries in rows:
            keys = fmt.split(":")
            ds_index = keys.index("DS") if "DS" in keys else None
            decoded.append([_entry_oracle(e, ds_index) for e in entries])
        with mock.patch.object(prsadjust.io, "_MEMO_CAP", cap):
            for r, row in enumerate(decoded):
                errors = [(i, d) for i, d in enumerate(row) if isinstance(d, str)]
                if errors:
                    i, tail = errors[0]
                    with pytest.raises(MalformedRow) as exc:
                        parse_vcf(stdio.StringIO(text))
                    assert exc.value.line_no == r + 2
                    assert str(exc.value) == f"line {r + 2}: sample S{i}: {tail}"
                    return
            matrix, _ = parse_vcf(stdio.StringIO(text))
        expected = np.array([[d for d, _ in row] for row in decoded]).T
        expected_mask = np.array([[miss for _, miss in row] for row in decoded]).T
        assert matrix.dosage.tobytes() == expected.tobytes()
        assert np.array_equal(matrix.missing_mask, expected_mask)

    @given(dosage_matrices(), _CAPS)
    def test_write_matches_per_entry_rendering_and_round_trips(self, matrix, cap):
        buf = stdio.StringIO()
        with mock.patch.object(prsadjust.io, "_MEMO_CAP", cap):
            write_vcf(matrix, buf)
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

    # float() takes "2_8" as 28.0, which would label the sample obese.
    @pytest.mark.parametrize("bad", ["2_8", "\u0662\u0668", " 28", "nan"])
    def test_bmi_must_be_an_ascii_vcf_float(self, bad):
        text = PHENO_TEXT + f"S5\tPOPA\tfemale\t{bad}\n"
        with pytest.raises(MalformedRow) as exc:
            parse_phenotypes(stdio.StringIO(text))
        assert exc.value.line_no == 6
        assert str(exc.value) == f"line 6: bmi {bad!r} is not a number"

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

    def test_reader_rejects_wrong_header(self):
        with pytest.raises(ParseAbort):
            read_report_csv(stdio.StringIO("sample,pop,pc1,raw,adj,obese\n"))

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
        scale_mode=draw(st.sampled_from(SCALE_MODES)),
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
        assert (q.variant_ids, q.dropped_variants, q.scale_mode) == (
            p.variant_ids, p.dropped_variants, p.scale_mode
        )
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
            ("prsadjust-pca v2", "prsadjust-pca v1", "not a prsadjust-pca v2 file"),
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
