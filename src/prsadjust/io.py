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
only, so output bytes are identical across platforms. The formats that need
no numpy (numbers, config files, the report CSV and the model-file codec)
live in :mod:`prsadjust.text`; of those, ``read_report_csv``,
``write_report_csv``, ``_ascii_int`` and ``_vcf_float`` are importable from
here too.

VCF sample text goes through one block codec in both directions, with
numpy: the parser decodes its used rows about ``_BLOCK_BYTES`` of sample
text at a time, and the writer renders its rows a block of about
``genotypes._BLOCK_CELLS`` entries at a time.

- Reading, rows with no DS key decode their GT calls (the text before any
  ":") through a table of the valid 3-byte calls. Rows with DS decode each
  DS token that is a digit, or a digit, a point and at most
  ``_DS_DIGITS`` - 1 more digits, as the exact decimal code M / 10^F (M
  the digits, F those after the point), and "." as a missing call. M <
  2^53 and 10^F are exact doubles, so that one correctly rounded division
  equals ``float(token)`` bit for bit (Clinger's fast path). Any other
  VCF Float token (such as ".5", "2.", "1e-05" or 17 digits) is read by
  ``float()`` one token at a time. A row with a token that is no VCF
  Float, a value outside [0, 2], an entry lacking a subfield or any other
  entry shape goes to :func:`_decode_entries`, the one per-entry decoder,
  which raises the error of the row's first bad entry.
- Writing, a hard-call row is gathered from ``_GT_CALL_BYTES``. A GT:DS
  dosage that equals ``rint(v * 10^p) / 10^p`` bit for bit, for some p <=
  ``_WRITE_DECIMALS``, is gathered from a table of entries indexed by that
  code, which the writer's one f-string (:func:`_ds_entry`) fills once per
  file. Any other dosage (more places, -0.0, a subnormal) is formatted by
  the same f-string, once per distinct value in its block.

Values and text therefore equal the per-entry ones, bitwise and byte for
byte, whichever path a row takes.
"""

from __future__ import annotations

import logging
import os
import re
from contextlib import ExitStack
from functools import partial
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
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
    _SEPARATORS,
    _blocks,
    _cell_blocks,
)
from .text import (  # the report codec is re-exported, so io names every file format
    Source,
    _VCF_FLOAT,
    _ascii_int,
    _text_dest,
    _text_source,
    _vcf_float,
    read_report_csv,
    write_report_csv,
)

logger = logging.getLogger(__name__)

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
# A VCF row's DS tokens joined by tabs. No token holds a tab, so this matches
# exactly when each token is a VCF Float (a token may hold a space).
_DS_ROW = re.compile(rf"{_VCF_FLOAT.pattern}(?:\t{_VCF_FLOAT.pattern})*", re.ASCII)
# Sample text the VCF parser decodes at a time: enough rows that numpy's cost
# per call fades, few enough that the block's temporaries, which grow with the
# bytes of text, stay small beside the matrix.
_BLOCK_BYTES = 1 << 16
# Digits a DS token may hold for its exact decimal code: M < 10^15 < 2^53.
_DS_DIGITS = 15
_POW10 = np.array([float(10**f) for f in range(_DS_DIGITS + 1)])
_POW10_INT = np.array([10**f for f in range(_DS_DIGITS + 1)], dtype=np.uint64)
# Bytes of an ASCII word: all "0"s, every high nibble, and every byte 6.
_U64_ZEROS = np.uint64(0x3030303030303030)
_U64_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_U64_SIXES = np.uint64(0x0606060606060606)
# Decimal places a written dosage may carry to be gathered from an entry
# table: the benchmark's imputed-style dosages carry 3, and a table of
# 4 places, 20,002 entries, is the largest made in a few tens of ms.
_WRITE_DECIMALS = 4
# The subfields after GT in each sample entry.
_SUBFIELDS = re.compile(r":[^\t]*")


def _gt_slots(words: np.ndarray) -> np.ndarray:
    """The call-table slot of each little-endian 4-byte word: the low 2 bits of
    the first allele, those of the second, and bit 6 of the separator, which
    tell the 10 valid calls apart ("0" 0, "1" 1, "." 2; "/" 0, "|" 1). As
    indices, so the three gathers from the table convert them once."""
    return ((words & 3) | ((words >> 14) & 12) | ((words >> 10) & 16)).astype(np.intp)


# The call table: each call plus the tab after it is one little-endian 4-byte
# word, stored at its slot. Slots no call takes hold word 0, whose own slot is
# 0, where "0/0\t" is stored; so a word matches its slot only if it is a call.
def _gt_word_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    calls = (*_GT_DOSAGE, *_GT_MISSING)
    words = np.frombuffer("".join(c + "\t" for c in calls).encode("ascii"), dtype="<u4")
    slots = _gt_slots(words)
    table, dosage, missing = np.zeros(32, "<u4"), np.zeros(32), np.zeros(32, bool)
    table[slots] = words
    dosage[slots] = [_GT_DOSAGE.get(c, 0.0) for c in calls]
    missing[slots] = [c in _GT_MISSING for c in calls]
    return table, dosage, missing


_GT_WORDS, _GT_WORD_DOSAGE, _GT_WORD_MISSING = _gt_word_table()
# The written GT call for codes 0, 1, 2 (dosage) and 3 (missing), each with
# the tab that separates it from the field before.
_GT_CALL_BYTES = np.array([b"\t0/0", b"\t0/1", b"\t1/1", b"\t./."])
_GT_TEXT = ("0/0", "0/1", "1/1")


def _tabs(line: str) -> int:
    """``line.count("\\t")``, counted in the line's UTF-8 bytes, in which no
    other character holds a tab byte."""
    return int(np.count_nonzero(np.frombuffer(line.encode("utf-8", "surrogatepass"), np.uint8) == 9))


def _data_lines(stream: IO) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without trailing newline)."""
    for line_no, raw in enumerate(stream, start=1):
        yield line_no, raw.rstrip("\r\n")


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

    Used rows are decoded by the block codec, about ``_BLOCK_BYTES`` of
    sample text at a time. A row without DS goes through the table of
    3-byte GT calls. A GT:DS row reads each DS token that is a digit, or a
    digit, a point and up to 14 more digits, as the exact decimal code
    M / 10^F, which equals ``float(token)`` bit for bit, "." as missing,
    and any other VCF Float token by ``float()``, one at a time. Every row
    either path refuses (a token that is no VCF Float, a value outside
    [0, 2], an entry without every FORMAT subfield, a call the table
    lacks) is decoded by :func:`_decode_entries`. Rows still pending
    in a block are decoded before a later row's error is raised, so the
    first bad row in the file raises, as a row-by-row parse would.

    Each block's dosages and mask are appended to one byte buffer apiece.
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
    sample_names: tuple[str, ...] | None = None
    # Each parsed row's dosages and mask, appended in row order.
    dosage_rows, mask_rows = bytearray(), bytearray()
    variants: list[Variant] = []
    seen_ids: set[str] = set()
    skipped: dict[str, list[int]] = {}
    rows_total = rows_unused = 0
    # Used rows not decoded yet: (line number, FORMAT, sample entries).
    pending: list[tuple[int, str, str]] = []
    pending_bytes = 0

    def decode_pending() -> None:
        nonlocal pending_bytes, dosage_rows, mask_rows
        if pending:
            block = pending.copy()
            pending.clear()  # first, so that a block that raises is not decoded again
            pending_bytes = 0
            dose, miss = _decode_block(block, sample_names)
            dosage_rows += dose.data
            mask_rows += miss.data

    with _text_source(source) as stream, ExitStack() as leaving:
        # Decodes the last block on leaving; on an error, first, so that an
        # earlier row's bad entry is the error raised.
        leaving.callback(decode_pending)

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
                for name in names:  # a text stream that keeps "\r" can pass one in
                    if not _SEPARATORS.isdisjoint(name):
                        raise ParseAbort(f"line {line_no}: sample name {name!r} holds a line break")
                sample_names = tuple(names)
                continue
            if sample_names is None:
                raise ParseAbort(f"line {line_no}: data row before #CHROM header")

            rows_total += 1
            n_columns = _tabs(line) + 1
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
            if used:  # queued before the Variant check: its entries' error comes first
                pending.append((line_no, fmt, calls))
                pending_bytes += len(calls)
            try:
                variant = Variant(vid, chrom, pos, ref, alt)
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from None
            seen_ids.add(vid)
            if not used:
                rows_unused += 1
                continue
            variants.append(variant)
            if pending_bytes >= _BLOCK_BYTES:
                decode_pending()

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


def _decode_block(
    rows: list[tuple[int, str, str]], sample_names: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a block of rows, each (line number, FORMAT, sample entries).

    Returns (dosage, missing), one C-ordered row of each per VCF row. Rows
    are grouped by FORMAT: rows with DS go to :func:`_ds_rows`, the others,
    their GT calls stripped of later subfields, to :func:`_gt_rows`. A row
    its group refuses, or whose text cannot be laid out for it, is decoded
    by :func:`_decode_entries`, in file order, so the first bad row raises.
    """
    n = len(sample_names)
    dose = np.empty((len(rows), n))
    miss = np.empty((len(rows), n), dtype=bool)
    done = np.zeros(len(rows), dtype=bool)
    groups: dict[str, list[int]] = {}
    for i, (_, fmt, _) in enumerate(rows):
        groups.setdefault(fmt, []).append(i)
    for fmt, members in groups.items():
        keys = fmt.split(":")
        if "DS" in keys:
            colons = n * (len(keys) - 1)  # each entry holds every subfield
            sections = {i: rows[i][2] for i in members}
            laid_out = [i for i in members
                        if sections[i].isascii() and sections[i].count(":") == colons]
            decode = partial(_ds_rows, ds_index=keys.index("DS"), n_keys=len(keys))
        else:
            sections = {i: _SUBFIELDS.sub("", rows[i][2]) if ":" in rows[i][2] else rows[i][2]
                        for i in members}
            laid_out = [i for i in members
                        if sections[i].isascii() and len(sections[i]) == 4 * n - 1]
            decode = _gt_rows
        if laid_out:
            ok, values, missing = decode([sections[i] for i in laid_out], n)
            if len(laid_out) == len(rows) and ok.all():  # the usual block: one path decodes it
                return values, missing
            taken = np.array(laid_out)[ok]
            dose[taken], miss[taken], done[taken] = values[ok], missing[ok], True
    for i in np.flatnonzero(~done).tolist():
        line_no, fmt, calls = rows[i]
        keys = fmt.split(":")
        ds_index = keys.index("DS") if "DS" in keys else None
        dose[i], miss[i] = _decode_entries(calls.split("\t"), ds_index, sample_names, line_no)
    return dose, miss


def _gt_rows(sections: list[str], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, dosage, missing) of GT-only sections of n 3-byte ASCII calls.

    Each call and the tab after it form one word, which indexes the call
    table at its slot (:func:`_gt_slots`) and must equal the word stored
    there; ``ok`` is False for a row with any word the table lacks. So a word
    is accepted exactly when its call is a key of ``_GT_DOSAGE`` or in
    ``_GT_MISSING``, with that call's dosage and flag.
    """
    text = "\t".join(sections) + "\t"
    words = np.frombuffer(text.encode("ascii"), dtype="<u4").reshape(len(sections), n)
    slots = _gt_slots(words)
    ok = (_GT_WORDS[slots] == words).all(axis=1)
    return ok, _GT_WORD_DOSAGE[slots], _GT_WORD_MISSING[slots]


def _ds_rows(
    sections: list[str], n: int, ds_index: int, n_keys: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, dosage, missing) of ASCII sections of n entries whose colons number
    n * (n_keys - 1), decoding the subfield at ``ds_index``.

    A DS token that is one digit, or a digit, a point and 1 to
    ``_DS_DIGITS`` - 1 digits, is M / 10^F; "." is a missing call. Any
    other token (such as "2.", ".5", "1e-05" or 17 digits) of a row whose
    entries all hold ``n_keys`` subfields is read by :func:`_vcf_float`'s
    rule, one token at a time. ``ok`` is False for a row with an entry of
    other than ``n_keys`` subfields, a token that is no VCF Float or a value
    outside [0, 2]; :func:`_decode_entries` raises its error.
    """
    r = len(sections)
    text = "\t".join(sections) + "\t"
    # Spaces around it, so the 16 bytes before a token and the one after the
    # first byte of an empty one are in the buffer.
    buf = np.frombuffer((" " * 16 + text + " ").encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((buf == ord("\t")) | (buf == ord(":"))).reshape(r * n, n_keys)
    # Each row has n tabs, so every entry has n_keys subfields when every
    # group of n_keys separators ends with a tab.
    ok = (buf[seps[:, -1]] == ord("\t")).reshape(r, n).all(axis=1)
    start, end = seps[:, ds_index - 1] + 1, seps[:, ds_index]
    length = end - start
    places = np.clip(length - 2, 0, _DS_DIGITS - 1)
    first = buf[start]
    missing = (length == 1) & (first == ord("."))
    lead = first - np.uint8(ord("0"))  # wraps: a digit is below 10
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))  # unaligned
    low, low_digits = _eight_digits(_last_bytes(words, end, np.minimum(places, 8)))
    exact = (lead < 10) & low_digits & (
        (length == 1) | ((length >= 3) & (length <= _DS_DIGITS + 1) & (buf[start + 1] == ord(".")))
    )
    mantissa = lead.astype(np.uint64) * _POW10_INT[places] + low
    if (places > 8).any():
        high, high_digits = _eight_digits(_last_bytes(words, end - 8, np.clip(places - 8, 0, 8)))
        exact &= high_digits
        mantissa += high * np.uint64(10**8)
    value = mantissa / _POW10[places]
    exact &= value <= 2.0
    # Other tokens of rows laid out right are read one by one by _vcf_float's
    # rule; a bad one or a value outside [0, 2] leaves its row to the fallback.
    other = np.flatnonzero(~(exact | missing) & np.repeat(ok, n))
    if len(other):
        tokens = [text[a:b] for a, b in zip((start[other] - 16).tolist(), (end[other] - 16).tolist())]
        if _DS_ROW.fullmatch("\t".join(tokens)):  # all VCF Floats: one match
            read = np.fromiter(map(float, tokens), np.float64, len(tokens))
        else:
            read = np.array([float(t) if _VCF_FLOAT.fullmatch(t) else np.nan for t in tokens])
        fine = (read >= 0.0) & (read <= 2.0)  # False for NaN
        value[other[fine]] = read[fine]
        exact[other[fine]] = True
    ok &= (exact | missing).reshape(r, n).all(axis=1)
    return ok, np.where(exact, value, 0.0).reshape(r, n), missing.reshape(r, n)


def _last_bytes(words: np.ndarray, end: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ``count`` (0 to 8) bytes before each ``end``, after as many "0"s as
    make 8, as one little-endian uint64 each (``words`` holds the uint64 at
    every byte offset of the buffer)."""
    below = np.uint64(64) - count.astype(np.uint64) * np.uint64(8)
    return ((words[end - 8] >> below) << below) | (_U64_ZEROS >> (np.uint64(64) - below))


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, all digits) of each uint64 read as 8 ASCII bytes, the most
    significant digit first, by SWAR: pairs, then fours, then all eight."""
    digits = ((words & _U64_HIGH_NIBBLES) == _U64_ZEROS) & (
        ((words + _U64_SIXES) & _U64_HIGH_NIBBLES) == _U64_ZEROS
    )
    v = words - _U64_ZEROS
    v = (v * np.uint64(10) + (v >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v * np.uint64(100) + (v >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v * np.uint64(10000) + (v >> np.uint64(32))) & np.uint64(0xFFFFFFFF)
    return v, digits


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
    only, which round-trips exactly. Matrices with fractional dosages are
    written as GT:DS with DS carrying the exact dosage (shortest text that
    round-trips the float) and GT the nearest hard call.

    Rows are rendered by the block codec, about ``genotypes._BLOCK_CELLS``
    entries at a time. Hard-call rows are gathered from ``_GT_CALL_BYTES``. A
    GT:DS dosage that equals ``rint(v * 10^p) / 10^p`` bit for bit, for
    some p <= ``_WRITE_DECIMALS``, is gathered from a table of entries
    indexed by the code ``rint(v * 10^p)``, made on first use in the file,
    each entry once, by :func:`_ds_entry`. Every other dosage of a block
    is formatted by :func:`_ds_entry` once per distinct value. Nothing the
    size of the matrix is allocated.
    """
    hard = _hard_calls(matrix)
    fmt = "GT" if hard else "GT:DS"
    tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    with _text_dest(dest) as out:
        out.write("##fileformat=VCFv4.2\n")
        out.write("##source=prsadjust\n")
        out.write("\t".join(_VCF_FIXED_COLUMNS) + "\t" + "\t".join(matrix.sample_ids) + "\n")
        for cols in _blocks(*matrix.dosage.shape):
            # One row per variant, copied once so the work on it reads memory in order.
            values = np.ascontiguousarray(matrix.dosage[:, cols].T)
            missing = np.ascontiguousarray(matrix.missing_mask[:, cols].T)
            if hard:
                # Code 0-2 is the dosage, 3 a missing call.
                codes = np.where(missing, 3, np.rint(values)).astype(np.int8)
                rows = _gather_rows(_GT_CALL_BYTES, codes)
            else:
                rows = _ds_block(values, missing, tables)
            out.write("".join(
                "\t".join((
                    variant.chromosome, str(variant.position), variant.id, variant.ref_allele,
                    variant.alt_allele, ".", "PASS", ".", fmt,
                )) + row + "\n"
                for variant, row in zip(matrix.variants[cols], rows)
            ))


def _hard_calls(matrix: GenotypeMatrix) -> bool:
    """Whether every observed dosage is integral, checked a block at a time."""
    for block, missing in _cell_blocks(matrix.dosage, matrix.missing_mask):
        if not np.all((block == np.rint(block)) | missing):
            return False
    return True


def _ds_entry(d: float) -> str:
    """The GT:DS entry of an observed dosage after its tab: its nearest hard
    call, then its repr."""
    return f"\t{_GT_TEXT[round(d)]}:{d!r}"  # round() breaks ties to even, as np.rint does


def _entries(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Entry texts as one NUL-padded bytes array, and the length of each."""
    return np.array(texts, dtype=bytes), np.fromiter(map(len, texts), np.int64, len(texts))


def _ds_table(places: int) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_entries` of codes c = 0 .. 2 * 10^places (dosage
    c / 10^places) and then of a missing call."""
    scale = 10**places
    return _entries([*map(_ds_entry, (np.arange(2 * scale + 1) / scale).tolist()), "\t./.:."])


def _ds_block(
    values: np.ndarray, missing: np.ndarray, tables: dict[int, tuple[np.ndarray, np.ndarray]]
) -> list[str]:
    """The GT:DS sample text, each entry after its tab, of a block of rows.

    Each observed dosage that equals ``rint(v * 10^p) / 10^p`` bit for bit,
    for some p <= ``_WRITE_DECIMALS``, is gathered from the entry table of
    the least p that holds all such dosages of the block (made on first use
    and kept in ``tables``). The block's other dosages (more places, -0.0, a
    subnormal) are formatted once per distinct value and gathered from an
    extension of that table made for the block.
    """
    observed = np.where(missing, 0.0, values)
    scale = 10**_WRITE_DECIMALS
    codes = np.rint(observed * scale).astype(np.int32)
    # Integer codes read back +0.0 for -0.0, so -0.0 is odd.
    odd = (codes / scale).view(np.uint64) != observed.view(np.uint64)
    codes[odd] = 0
    # Codes at p places are the ones at _WRITE_DECIMALS places over 10^(_WRITE_DECIMALS - p).
    places = _WRITE_DECIMALS
    while places and not (codes % 10 ** (_WRITE_DECIMALS - places + 1)).any():
        places -= 1
    if places not in tables:
        tables[places] = _ds_table(places)
    table, lengths = tables[places]
    codes //= 10 ** (_WRITE_DECIMALS - places)
    codes[missing] = len(table) - 1
    if odd.any():
        bits, slots = np.unique(observed[odd].view(np.uint64), return_inverse=True)
        extra, extra_lengths = _entries(list(map(_ds_entry, bits.view(np.float64).tolist())))
        codes[odd] = len(table) + slots
        table, lengths = np.concatenate((table, extra)), np.concatenate((lengths, extra_lengths))
    return _gather_rows(table, codes, lengths)


def _gather_rows(
    table: np.ndarray, codes: np.ndarray, lengths: np.ndarray | None = None
) -> list[str]:
    """Each row of ``codes`` as the text of its entries in ``table``, a bytes
    array, joined; ``lengths`` gives each entry's length before its NUL
    padding, and None means no entry is padded."""
    text = table[codes].tobytes()
    if lengths is None:
        width = table.itemsize * codes.shape[1]
        ends = range(width, len(text) + 1, width)
    else:
        ends = np.cumsum(lengths[codes].sum(axis=1)).tolist()
        # replace() costs ~15 ns a NUL and translate() ~1.3 ns a byte (2 vCPU
        # x86-64 host), so rows of short entries in a wide table use translate().
        nuls = len(text) - ends[-1]
        text = text.translate(None, b"\0") if 12 * nuls > len(text) else text.replace(b"\0", b"")
    text = text.decode("ascii")
    return [text[a:b] for a, b in zip([0, *ends], ends)]


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
            except ValueError as exc:  # it checks bmi before the separators in the ids
                if bmi is not None and bmi < 0:
                    raise NegativeBmi(f"line {line_no}: {exc}") from None
                raise MalformedRow(line_no, str(exc)) from None
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


