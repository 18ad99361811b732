"""Readers and writers for the pipeline's on-disk formats.

Parsers stream line by line and never hold the file in memory. They also
never drop a data row silently: every skipped row is itemized by reason
and line number in a parse report, and every row left undecoded because
its variant is not wanted (``parse_vcf``'s ``wanted``) is counted, so

    rows parsed + rows skipped + rows unused == data rows in the file

always holds. Variant identity is the VCF ID column when present; rows
with ID "." fall back to a ``chrom:pos:ref:alt`` key, so positional ids in
panels and weight tables still match.

Text is UTF-8; both LF and CRLF line endings are accepted. Writers emit LF
only, so output bytes are identical across platforms.

VCF rows whose FORMAT is exactly ``GT`` and whose calls are all three
ASCII bytes (``0/1``, ``1|1``, ``./.``, ...) are decoded and written as
whole rows of bytes with numpy. Every byte is still validated; a row that
fails a check, or any other row (DS, subfields, irregular widths), goes
through a memo table instead.

Imputed GT:DS files hold few distinct entries (a few thousand for
3-decimal dosages), so both directions memoize them per file. The parser
keeps one table per position of DS in FORMAT, from entry text to its
value (NaN for a missing call); the GT:DS writer keeps one from the bit
pattern of a dosage (NaN for a missing call) to the text of its entry.
Entries not yet in a table are decoded by :func:`_decode_entries`, the
only per-entry decoder, or formatted by the writer's one f-string, and
then stored. Values and text therefore come from the same code with or
without the tables, so results are bitwise and byte-for-byte the same.
Each table stops growing at ``_MEMO_CAP`` entries; later rows with new
entries are decoded or written whole, uncached.

Both model files share one codec: a magic line, a ``key value`` line per
field, then the table rows (:func:`_model_text`, :func:`_read_model`).
"""

from __future__ import annotations

import csv
import logging
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from io import TextIOBase, TextIOWrapper
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    ConfigInvalid,
    DuplicateSample,
    DuplicateVariant,
    EmptyPanel,
    MalformedRow,
    NegativeBmi,
    NonNumericWeight,
    ParseAbort,
    UnknownSexToken,
)
from .genotypes import (
    GenotypeMatrix,
    PanelDefinition,
    SampleRecord,
    ScoreWeightTable,
    Variant,
    WeightRow,
    SEX_TOKENS,
    _ALLELE_RE,
)

logger = logging.getLogger(__name__)

Source = str | bytes | os.PathLike | IO

# Reasons a VCF data row can be skipped without aborting the parse.
SKIP_MULTI_ALLELIC = "multi_allelic"
SKIP_UNSUPPORTED_ALLELES = "unsupported_alleles"
SKIP_DUPLICATE_VARIANT = "duplicate_variant_id"

_VCF_FIXED_COLUMNS = ("#CHROM", "POS", "ID", "REF", "ALT", "QUAL", "FILTER", "INFO", "FORMAT")
_WEIGHTS_HEADER = ("variant_id", "effect_allele", "other_allele", "weight")
_PHENOTYPES_HEADER = ("sample_id", "population", "sex", "bmi")

# Hard genotype calls. Dosage counts alt alleles; phasing is irrelevant here.
_GT_DOSAGE = {
    "0/0": 0.0, "0|0": 0.0,
    "0/1": 1.0, "0|1": 1.0, "1/0": 1.0, "1|0": 1.0,
    "1/1": 2.0, "1|1": 2.0,
}
_GT_MISSING = ("./.", ".|.")
# A VCF Float, as DS carries it; float() alone would also take "0_5", " 1",
# "nan" and non-ASCII digits.
_VCF_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)
# A row of VCF Floats joined by single spaces, as the model files hold them.
_REAL_ROW = re.compile(rf"{_VCF_FLOAT.pattern}(?: {_VCF_FLOAT.pattern})*", re.ASCII)
# A VCF row's DS tokens joined by tabs. No token holds a tab, so this matches
# exactly when each token is a VCF Float (a token may hold a space).
_DS_ROW = re.compile(rf"{_VCF_FLOAT.pattern}(?:\t{_VCF_FLOAT.pattern})*", re.ASCII)
# Entries a VCF memo table holds at most before it stops growing (a
# 3-decimal GT:DS file has about 2,000 distinct entries).
_MEMO_CAP = 1 << 16


# Byte path for fixed-width GT rows: each call plus the tab after it is one
# little-endian 4-byte word, looked up in the sorted table of valid words.
def _gt_word_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    calls = (*_GT_DOSAGE, *_GT_MISSING)
    words = np.frombuffer("".join(c + "\t" for c in calls).encode("ascii"), dtype="<u4")
    order = np.argsort(words)
    dosage = np.array([_GT_DOSAGE.get(c, 0.0) for c in calls])
    missing = np.array([c in _GT_MISSING for c in calls])
    return words[order], dosage[order], missing[order]


_GT_WORDS, _GT_WORD_DOSAGE, _GT_WORD_MISSING = _gt_word_table()
# The written GT call for codes 0, 1, 2 (dosage) and 3 (missing), each with
# the tab that separates it from the field before.
_GT_CALL_BYTES = np.frombuffer(b"\t0/0\t0/1\t1/1\t./.", dtype=np.uint8).reshape(4, 4)


# The one rule for each kind of number read from a file, config value or
# flag: int() and float() that raise their ValueError outside that rule.
def _ascii_int(text: str) -> int:
    """int() of ASCII digits only: no sign, space, "_" or other digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _vcf_float(text: str) -> float:
    """float() of an ASCII VCF Float (``_VCF_FLOAT``) only."""
    if not _VCF_FLOAT.fullmatch(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _reals(text: str) -> list[float]:
    """float() of each value of a ``_REAL_ROW``; else _vcf_float's error for the first bad one."""
    if not _REAL_ROW.fullmatch(text):
        for token in text.split(" "):
            _vcf_float(token)
    return list(map(float, text.split(" ")))


def _real(value: float) -> str:
    """A real in the model and metrics files: 17 significant digits round-trip a float64."""
    return format(float(value), ".17g")


def _format_real(value: float) -> str:
    """A real in the report and table files: 10 significant digits, "." if not finite."""
    return format(value, ".10g") if math.isfinite(value) else "."


@contextmanager
def _text_source(source: Source) -> Iterator[IO]:
    """Yield a text stream for a path, text stream or byte stream."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            yield handle
    elif isinstance(source, TextIOBase) or hasattr(source, "encoding"):
        yield source
    else:
        # Byte stream: wrap without closing the caller's handle.
        wrapper = TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()


@contextmanager
def _text_dest(dest: Source) -> Iterator[IO]:
    """Yield a text stream writing LF to a path, or the caller's stream."""
    if isinstance(dest, (str, bytes, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
    else:
        yield dest


def _data_lines(stream: IO) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without trailing newline)."""
    for line_no, raw in enumerate(stream, start=1):
        yield line_no, raw.rstrip("\r\n")


def _key_values(source: Source, repeatable: tuple[str, ...] = ()) -> Iterator[tuple[str, str]]:
    """Yield (key, value), both stripped, for each ``key=value`` line of a config
    file; blank and ``#`` lines are skipped, and a line with no "=" is refused,
    as is a second line for a key not in ``repeatable``."""
    seen: set[str] = set()
    with _text_source(source) as stream:
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigInvalid(f"{key}: expected key=value")
            if key in seen and key not in repeatable:
                raise ConfigInvalid(f"{key}: repeated config key")
            seen.add(key)
            yield key, value.strip()


def _write_key_values(pairs: Iterable[tuple[str, object]], dest: Source) -> None:
    """Write one ``key=value`` line per pair, "." for a None value: the lines
    :func:`_key_values` reads. Callers format their own numbers."""
    with _text_dest(dest) as handle:
        handle.write("".join(f"{key}={'.' if value is None else value}\n" for key, value in pairs))


def _headed_rows(stream: IO, header: tuple[str, ...], kind: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each data row of a headed TSV table.

    Blank and ``#`` lines are skipped. The first other line must equal
    ``header`` (else ParseAbort, also when there is none) and every later
    one must have as many fields (else MalformedRow).
    """
    header_seen = False
    for line_no, line in _data_lines(stream):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if not header_seen:
            if tuple(fields) != header:
                raise ParseAbort(f"{kind} header must be " + "\t".join(header))
            header_seen = True
            continue
        if len(fields) != len(header):
            raise MalformedRow(line_no, f"expected {len(header)} columns, got {len(fields)}")
        yield line_no, fields
    if not header_seen:
        raise ParseAbort(f"{kind} file has no header line")


# ---------------------------------------------------------------------------
# VCF subset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VcfParseReport:
    """Accounting of one VCF parse: nothing is dropped off the books."""

    sample_names: tuple[str, ...]
    rows_total: int
    rows_parsed: int
    rows_unused: int  # checked, but not decoded: their id is not wanted
    skipped: dict[str, tuple[int, ...]]  # reason -> 1-based line numbers

    @property
    def rows_skipped(self) -> int:
        return sum(len(lines) for lines in self.skipped.values())


def parse_vcf(
    source: Source, wanted: Iterable[str] | None = None
) -> tuple[GenotypeMatrix, VcfParseReport]:
    """Parse a biallelic VCF subset into a dosage matrix.

    Supports the fields the pipeline needs: a ``#CHROM`` header with at
    least one sample column, GT as the first FORMAT key, and an optional
    DS (dosage) key that overrides GT counting when declared. ``./.`` and
    ``.|.`` genotypes become missing entries. Multi-allelic rows, rows
    with non-ACGT alleles and rows repeating an already-seen variant id
    are skipped and itemized in the report.

    With ``wanted``, a set of variant ids, only rows whose id (after the
    ``chrom:pos:ref:alt`` fallback) is wanted are decoded and kept; the
    matrix is the full parse's restricted to them, in file order. Every
    other row still has its column count, POS, FORMAT and ``Variant``
    fields checked, is still skipped by reason, and still counts towards
    the duplicate-id check, but its sample entries are not read: a bad
    call there raises nothing. The report counts it in ``rows_unused``, so

        rows_parsed + rows_skipped + rows_unused == rows_total

    Rows whose FORMAT is exactly ``GT`` with every call three ASCII bytes
    are decoded as one byte array per row. Any other row, or one with an
    invalid byte, is looked up entry by entry in a table kept for the
    whole parse, one per position of DS in FORMAT, from entry text to
    value. Entries not in the table are decoded by :func:`_decode_entries`,
    which raises the error decoding the whole row would raise, and are
    stored while the table holds fewer than ``_MEMO_CAP``.

    Each row's dosages and mask are appended to one byte buffer apiece.
    The (samples, variants) arrays are F-ordered views of those buffers,
    so the parse never holds a second copy of the matrix.

    A DS token is "." (missing) or an ASCII VCF Float: an optional sign,
    digits with an optional point and fraction (or a point and digits),
    and an optional exponent. "0_5", " 1", "nan" or non-ASCII digits are
    rejected even though ``float()`` takes them.

    Parameters
    ----------
    source : path or stream
        VCF text. Byte streams are decoded as UTF-8.
    wanted : set of str, optional
        The variant ids to decode; all of them when omitted.

    Returns
    -------
    (GenotypeMatrix, VcfParseReport)

    Raises
    ------
    ParseAbort
        If the header line is absent, malformed or has duplicate samples.
    MalformedRow
        If a data row has the wrong column count, an undecodable field, a
        POS that is not ASCII digits or is below 1, or an empty CHROM.
    """
    wanted = None if wanted is None else frozenset(wanted)
    with _text_source(source) as stream:
        sample_names: tuple[str, ...] | None = None
        # Each parsed row's dosages and mask, appended in row order.
        dosage_rows, mask_rows = bytearray(), bytearray()
        variants: list[Variant] = []
        seen_ids: set[str] = set()
        skipped: dict[str, list[int]] = {}
        rows_total = rows_unused = 0
        memo: dict[int | None, dict[str, float]] = {}

        for line_no, line in _data_lines(stream):
            if not line:
                continue
            if line.startswith("##"):
                continue
            if line.startswith("#"):
                if sample_names is not None:
                    raise ParseAbort(f"line {line_no}: second header line")
                fields = line.split("\t")
                if tuple(fields[: len(_VCF_FIXED_COLUMNS)]) != _VCF_FIXED_COLUMNS:
                    raise ParseAbort(
                        f"line {line_no}: header must start with "
                        + "\t".join(_VCF_FIXED_COLUMNS)
                    )
                names = fields[len(_VCF_FIXED_COLUMNS):]
                if not names:
                    raise ParseAbort(f"line {line_no}: header has no sample columns")
                if len(set(names)) != len(names):
                    raise ParseAbort(f"line {line_no}: duplicate sample names in header")
                sample_names = tuple(names)
                continue
            if sample_names is None:
                raise ParseAbort(f"line {line_no}: data row before #CHROM header")

            rows_total += 1
            n_columns = line.count("\t") + 1
            if n_columns != len(_VCF_FIXED_COLUMNS) + len(sample_names):
                raise MalformedRow(
                    line_no,
                    f"expected {len(_VCF_FIXED_COLUMNS) + len(sample_names)} columns, "
                    f"got {n_columns}",
                )
            chrom, pos_text, vid, ref, alt, _, _, _, fmt, calls = line.split(
                "\t", len(_VCF_FIXED_COLUMNS)
            )

            if "," in alt:
                skipped.setdefault(SKIP_MULTI_ALLELIC, []).append(line_no)
                continue
            if not _ALLELE_RE.match(ref) or not _ALLELE_RE.match(alt) or ref == alt:
                skipped.setdefault(SKIP_UNSUPPORTED_ALLELES, []).append(line_no)
                continue
            try:
                pos = _ascii_int(pos_text)
            except ValueError:
                raise MalformedRow(line_no, f"POS {pos_text!r} is not a run of ASCII digits") from None
            if vid == "." or not vid:
                vid = f"{chrom}:{pos}:{ref}:{alt}"
            if vid in seen_ids:
                skipped.setdefault(SKIP_DUPLICATE_VARIANT, []).append(line_no)
                continue

            fmt_keys = fmt.split(":")
            if not fmt_keys or fmt_keys[0] != "GT":
                raise MalformedRow(line_no, f"FORMAT {fmt!r} must start with GT")
            used = wanted is None or vid in wanted
            if used:
                decoded = _decode_fixed_gt(calls, len(sample_names)) if fmt == "GT" else None
                if decoded is None:
                    ds_index = fmt_keys.index("DS") if "DS" in fmt_keys else None
                    decoded = _decode_memo(
                        calls.split("\t"), memo.setdefault(ds_index, {}), ds_index,
                        sample_names, line_no,
                    )
            try:
                variant = Variant(vid, chrom, pos, ref, alt)
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            seen_ids.add(vid)
            if not used:
                rows_unused += 1
                continue
            variants.append(variant)
            dosage_rows += decoded[0].data
            mask_rows += decoded[1].data

        if sample_names is None:
            raise ParseAbort("no #CHROM header line found")

    shape = (len(variants), len(sample_names))
    matrix = GenotypeMatrix(
        samples=tuple(SampleRecord(sample_id=name) for name in sample_names),
        variants=tuple(variants),
        dosage=np.frombuffer(dosage_rows, np.float64).reshape(shape).T,
        missing_mask=np.frombuffer(mask_rows, bool).reshape(shape).T,
    )
    report = VcfParseReport(
        sample_names=sample_names,
        rows_total=rows_total,
        rows_parsed=len(variants),
        rows_unused=rows_unused,
        skipped={reason: tuple(lines) for reason, lines in skipped.items()},
    )
    return matrix, report


def _decode_fixed_gt(calls: str, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode a GT-only sample section of n 3-byte calls as bytes.

    Returns (dosage, missing), or None when the section is not n valid
    3-byte calls, so the caller falls back to :func:`_decode_memo`.
    """
    if len(calls) != 4 * n - 1 or not calls.isascii():
        return None
    words = np.frombuffer((calls + "\t").encode("ascii"), dtype="<u4")
    slots = np.searchsorted(_GT_WORDS, words)
    np.minimum(slots, len(_GT_WORDS) - 1, out=slots)
    if not np.array_equal(_GT_WORDS[slots], words):
        return None
    return _GT_WORD_DOSAGE[slots], _GT_WORD_MISSING[slots]


def _decode_memo(
    entries: list[str],
    table: dict[str, float],
    ds_index: int | None,
    sample_names: tuple[str, ...],
    line_no: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a row's entries through the memo table of its DS position.

    The table maps entry text to the value :func:`_decode_entries` gave
    it, NaN for a missing call (no observed value is NaN). When a row has
    entries not in the table, :func:`_decode_entries` decodes the first
    occurrence of each, in row order and under its own sample name; an
    entry in the table cannot fail, so it raises what decoding the whole
    row would. They are then stored. Once the table holds ``_MEMO_CAP``
    entries, such rows are decoded whole and nothing more is stored.
    """
    try:
        values = np.fromiter(map(table.__getitem__, entries), np.float64, len(entries))
    except KeyError:
        if len(table) >= _MEMO_CAP:
            return _decode_entries(entries, ds_index, sample_names, line_no)
        new: dict[str, str] = {}
        for entry, name in zip(entries, sample_names):
            if entry not in table:
                new.setdefault(entry, name)
        dose, miss = _decode_entries(list(new), ds_index, tuple(new.values()), line_no)
        table.update(zip(new, np.where(miss, np.nan, dose).tolist()))
        values = np.fromiter(map(table.__getitem__, entries), np.float64, len(entries))
    miss = np.isnan(values)
    values[miss] = 0.0
    return values, miss


def _decode_entries(
    entries: list[str], ds_index: int | None, sample_names: tuple[str, ...], line_no: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a row's sample entries one at a time: (dosage, missing).

    The row's DS tokens are checked as VCF Floats in one match; only a row
    that fails it checks them one by one, to name the first bad sample.
    """
    dose = np.empty(len(sample_names), dtype=np.float64)
    miss = np.zeros(len(sample_names), dtype=bool)
    split = [entry.split(":") for entry in entries]
    tokens = [] if ds_index is None else [
        s[ds_index] for s in split if ds_index < len(s) and s[ds_index] != "."
    ]
    floats_checked = bool(_DS_ROW.fullmatch("\t".join(tokens)))
    for i, subfields in enumerate(split):
        value: float | None
        if ds_index is not None and ds_index < len(subfields):
            token = subfields[ds_index]
            if token == ".":
                value = None
            else:
                if not (floats_checked or _VCF_FLOAT.fullmatch(token)):
                    raise MalformedRow(
                        line_no, f"sample {sample_names[i]}: bad DS {token!r}"
                    )
                value = float(token)
                if not (0.0 <= value <= 2.0):
                    raise MalformedRow(
                        line_no,
                        f"sample {sample_names[i]}: DS {token} outside [0, 2]",
                    )
        else:
            gt = subfields[0]
            if gt in _GT_MISSING:
                value = None
            else:
                value = _GT_DOSAGE.get(gt)
                if value is None:
                    raise MalformedRow(
                        line_no, f"sample {sample_names[i]}: bad GT {gt!r}"
                    )
        if value is None:
            dose[i] = 0.0
            miss[i] = True
        else:
            dose[i] = value
    return dose, miss


def write_vcf(matrix: GenotypeMatrix, dest: Source) -> None:
    """Write a matrix as a minimal VCF subset that ``parse_vcf`` reads back.

    Hard-call matrices (all observed dosages integral) are written with GT
    only, which round-trips exactly. Each of their rows is rendered from an
    int8 call code per sample in one numpy step, with the same bytes as
    the per-entry text. Matrices with fractional dosages are written as
    GT:DS with DS carrying the exact dosage (shortest text that round-trips
    the float) and GT the nearest hard call. Each entry's text is made
    once per distinct dosage bit pattern and then taken from a memo table
    of at most ``_MEMO_CAP`` entries; a row with a dosage not in the full
    table is formatted entry by entry.
    """
    hard = bool(
        np.all(
            (matrix.dosage == np.rint(matrix.dosage)) | matrix.missing_mask
        )
    )
    gt_text = {0: "0/0", 1: "0/1", 2: "1/1"}
    if hard:
        # Code 0-2 is the dosage, 3 a missing call (row 3 of _GT_CALL_BYTES).
        calls = np.full(matrix.dosage.shape, 3.0)
        np.rint(matrix.dosage, out=calls, where=~matrix.missing_mask)
        codes = np.ascontiguousarray(calls.T, dtype=np.int8)
    else:
        # One row per variant; a missing call is NaN, which no observed
        # dosage is (they lie in [0, 2]), so its bits key "./.:.".
        values = np.ascontiguousarray(np.where(matrix.missing_mask, np.nan, matrix.dosage).T)
        bits = values.view(np.uint64)
        texts: dict[int, str] = {}
    with _text_dest(dest) as out:
        out.write("##fileformat=VCFv4.2\n")
        out.write("##source=prsadjust\n")
        out.write("\t".join(_VCF_FIXED_COLUMNS) + "\t" + "\t".join(matrix.sample_ids) + "\n")
        fmt = "GT" if hard else "GT:DS"
        for j, variant in enumerate(matrix.variants):
            fixed = "\t".join(
                (
                    variant.chromosome,
                    str(variant.position),
                    variant.id,
                    variant.ref_allele,
                    variant.alt_allele,
                    ".",
                    "PASS",
                    ".",
                    fmt,
                )
            )
            if hard:
                out.write(fixed + _GT_CALL_BYTES[codes[j]].tobytes().decode("ascii") + "\n")
                continue
            keys = bits[j].tolist()
            try:
                row = "\t".join(map(texts.__getitem__, keys))
            except KeyError:
                entries = [
                    texts[key] if key in texts
                    else "./.:." if d != d
                    else f"{gt_text[int(np.rint(d))]}:{d!r}"
                    for key, d in zip(keys, values[j].tolist())
                ]
                if len(texts) < _MEMO_CAP:
                    texts.update(zip(keys, entries))
                row = "\t".join(entries)
            out.write(fixed + "\t" + row + "\n")


# ---------------------------------------------------------------------------
# score weights
# ---------------------------------------------------------------------------


def parse_weights(source: Source) -> ScoreWeightTable:
    """Parse a tab-separated weight table.

    Expected header: ``variant_id effect_allele other_allele weight``.
    ``other_allele`` may be ".". Weights must be finite reals.

    Raises
    ------
    ParseAbort, MalformedRow, DuplicateVariant, NonNumericWeight
    """
    rows: list[WeightRow] = []
    seen: set[str] = set()
    with _text_source(source) as stream:
        for line_no, fields in _headed_rows(stream, _WEIGHTS_HEADER, "weights"):
            vid, effect, other, weight_text = fields
            if vid in seen:
                raise DuplicateVariant(f"line {line_no}: variant {vid} repeated")
            try:
                weight = _vcf_float(weight_text)
            except ValueError:
                raise NonNumericWeight(line_no, f"weight {weight_text!r} is not a number") from None
            if not np.isfinite(weight):
                raise NonNumericWeight(line_no, f"weight {weight_text!r} is not finite")
            try:
                row = WeightRow(
                    variant_id=vid,
                    effect_allele=effect,
                    other_allele=None if other == "." else other,
                    weight=weight,
                )
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            seen.add(vid)
            rows.append(row)
    return ScoreWeightTable(rows=tuple(rows))


def write_weights(table: ScoreWeightTable, dest: Source) -> None:
    with _text_dest(dest) as out:
        out.write("\t".join(_WEIGHTS_HEADER) + "\n")
        for row in table.rows:
            out.write(
                "\t".join(
                    (
                        row.variant_id,
                        row.effect_allele,
                        row.other_allele if row.other_allele is not None else ".",
                        repr(row.weight),
                    )
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------


def parse_panel(source: Source, name: str | None = None) -> PanelDefinition:
    """Parse a panel file: one variant id per line, ``#`` comments allowed.

    Duplicate ids are logged and the first occurrence kept, so the panel
    order is the order of first appearance.

    Raises
    ------
    EmptyPanel
        If no variant id remains.
    """
    if name is None:
        is_path = isinstance(source, (str, bytes, os.PathLike))
        name = Path(os.fsdecode(source)).stem if is_path else "panel"
    ids: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    with _text_source(source) as stream:
        for _line_no, line in _data_lines(stream):
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            if token in seen:
                duplicates += 1
                continue
            seen.add(token)
            ids.append(token)
    if duplicates:
        logger.warning("panel %s: %d duplicate id(s) ignored", name, duplicates)
    if not ids:
        raise EmptyPanel(f"panel {name!r} contains no variant ids")
    return PanelDefinition(name=name, variant_ids=tuple(ids))


def write_panel(panel: PanelDefinition, dest: Source) -> None:
    with _text_dest(dest) as out:
        for vid in panel.variant_ids:
            out.write(vid + "\n")


# ---------------------------------------------------------------------------
# phenotypes
# ---------------------------------------------------------------------------


def parse_phenotypes(source: Source) -> list[SampleRecord]:
    """Parse a tab-separated phenotype table.

    Expected header: ``sample_id population sex bmi``; "." marks a missing
    value in any optional column. The obesity flag is derived as
    ``bmi > 27`` whenever BMI is present.

    Raises
    ------
    ParseAbort, MalformedRow, DuplicateSample, UnknownSexToken, NegativeBmi
    """
    records: list[SampleRecord] = []
    seen: set[str] = set()
    with _text_source(source) as stream:
        for line_no, fields in _headed_rows(stream, _PHENOTYPES_HEADER, "phenotypes"):
            sample_id, population, sex_text, bmi_text = fields
            if not sample_id or sample_id == ".":
                raise MalformedRow(line_no, "sample_id is missing")
            if sample_id in seen:
                raise DuplicateSample(f"line {line_no}: sample {sample_id} repeated")
            sex: str | None
            if sex_text == ".":
                sex = None
            else:
                sex = sex_text.lower()
                if sex not in SEX_TOKENS:
                    raise UnknownSexToken(
                        f"line {line_no}: sex {sex_text!r} not {'/'.join(SEX_TOKENS)}/."
                    )
            bmi: float | None
            if bmi_text == ".":
                bmi = None
            else:
                try:
                    bmi = _vcf_float(bmi_text)
                except ValueError:
                    raise MalformedRow(line_no, f"bmi {bmi_text!r} is not a number") from None
                if not np.isfinite(bmi):
                    raise MalformedRow(line_no, f"bmi {bmi_text!r} is not finite")
            try:
                record = SampleRecord(
                    sample_id=sample_id,
                    population=None if population == "." else population,
                    sex=sex,
                    bmi=bmi,
                )
            except ValueError as exc:  # every other field it checks is checked above
                raise NegativeBmi(f"line {line_no}: {exc}") from None
            seen.add(sample_id)
            records.append(record)
    return records


def write_phenotypes(records: list[SampleRecord], dest: Source) -> None:
    with _text_dest(dest) as out:
        out.write("\t".join(_PHENOTYPES_HEADER) + "\n")
        for rec in records:
            out.write(
                "\t".join(
                    (
                        rec.sample_id,
                        rec.population if rec.population is not None else ".",
                        rec.sex if rec.sex is not None else ".",
                        repr(rec.bmi) if rec.bmi is not None else ".",
                    )
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# per-sample report CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One scored sample: ancestry coordinates, both scores and the label."""

    sample_id: str
    population: str | None
    pcs: tuple[float, ...]
    raw_prs: float
    adjusted_prs: float
    obese: bool | None


@dataclass(eq=False)
class CohortReport:
    """Per-sample rows in a fixed order."""

    rows: tuple[ReportRow, ...]

    def __post_init__(self):
        self.rows = tuple(self.rows)
        seen: set[str] = set()
        for row in self.rows:
            if row.sample_id in seen:
                raise ValueError(f"report repeats sample {row.sample_id}")
            seen.add(row.sample_id)


def write_report_csv(report: CohortReport, dest: Source) -> None:
    """Write per-sample results: ids, PCs, raw and adjusted scores, label.

    Reals carry 10 significant digits; missing values are ".". Row order is
    the report's row order, so output is deterministic.
    """
    if not report.rows:
        raise ValueError("report has no rows")
    k = len(report.rows[0].pcs)
    with _text_dest(dest) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["sample_id", "population"]
            + [f"pc{i + 1}" for i in range(k)]
            + ["raw_prs", "adjusted_prs", "obese"]
        )
        for row in report.rows:
            if len(row.pcs) != k:
                raise ValueError(f"sample {row.sample_id}: expected {k} pcs")
            writer.writerow(
                [
                    row.sample_id,
                    row.population if row.population is not None else ".",
                    *[_format_real(pc) for pc in row.pcs],
                    _format_real(row.raw_prs),
                    _format_real(row.adjusted_prs),
                    "." if row.obese is None else ("1" if row.obese else "0"),
                ]
            )


def read_report_csv(source: Source) -> CohortReport:
    """Read back a report CSV written by :func:`write_report_csv`."""
    with _text_source(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseAbort("report CSV is empty") from None
        if (
            len(header) < 5
            or header[:2] != ["sample_id", "population"]
            or header[-3:] != ["raw_prs", "adjusted_prs", "obese"]
        ):
            raise ParseAbort("report CSV header is not in the expected layout")
        pc_names = header[2:-3]
        if pc_names != [f"pc{i + 1}" for i in range(len(pc_names))]:
            raise ParseAbort("report CSV pc columns must be pc1..pck")
        rows: list[ReportRow] = []
        for line_no, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields")
            try:
                pcs = tuple(_vcf_float(v) for v in fields[2:-3])
                raw = _vcf_float(fields[-3])
                adjusted = _vcf_float(fields[-2])
            except ValueError:
                raise MalformedRow(line_no, "non-numeric score field") from None
            obese_text = fields[-1]
            if obese_text == ".":
                obese = None
            elif obese_text in ("0", "1"):
                obese = obese_text == "1"
            else:
                raise MalformedRow(line_no, f"obese {obese_text!r} must be 0, 1 or .")
            rows.append(
                ReportRow(
                    sample_id=fields[0],
                    population=None if fields[1] == "." else fields[1],
                    pcs=pcs,
                    raw_prs=raw,
                    adjusted_prs=adjusted,
                    obese=obese,
                )
            )
    if not rows:
        raise ParseAbort("report CSV has no data rows")
    return CohortReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _model_text(magic: str, fields: dict[str, str], rows: Iterable[str] = ()) -> str:
    """A model file: the magic line, a ``key value`` line per field, then the rows."""
    lines = [magic, *(f"{key} {value}" for key, value in fields.items()), *rows]
    return "\n".join(lines) + "\n"


def _read_model(
    source: Source, magic: str, keys: tuple[str, ...], kind: str, count_key: str | None = None
) -> tuple[dict[str, str], list[str]]:
    """Read a :func:`_model_text` file back: (field values by key, rows).

    Each key must have exactly one line and no other key any. With
    ``count_key`` the fields are the ``len(keys)`` lines after the magic one
    and the rows must number that field's value; without, there are no rows.
    """
    with _text_source(source) as stream:
        lines = stream.read().removesuffix("\n").split("\n")
    if lines[0] != magic:
        raise ValueError(f"not a {magic} file")
    end = 1 + len(keys) if count_key else len(lines)
    fields: dict[str, str] = {}
    for key, _, value in (line.partition(" ") for line in lines[1:end]):
        if key not in keys:
            raise ValueError(f"{kind} has an unknown {key!r} line")
        if key in fields:
            raise ValueError(f"{kind} repeats its {key!r} line")
        fields[key] = value
    for key in keys:
        if key not in fields:
            raise ValueError(f"{kind} has no {key!r} line")
    rows = lines[end:]
    if count_key and len(rows) != _ascii_int(fields[count_key]):
        raise ValueError(f"{kind} has {len(rows)} rows, expected {fields[count_key]}")
    return fields, rows
