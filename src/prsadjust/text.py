"""The text formats that need no numpy: numbers, config files, the report
and the model-file codec.

``evaluate`` reads a report and writes tables and metrics through this
module alone, so it starts without loading numpy. :mod:`prsadjust.io`
re-exports the report's reader and writer and adds the genotype, weight,
panel and phenotype formats.

Text is UTF-8; writers emit LF only, so output bytes are identical across
platforms.

Both model files share one codec: a magic line, a ``key value`` line per
field, then the table rows (:func:`_model_text`, :func:`_read_model`).
"""

from __future__ import annotations

import csv
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from io import TextIOBase, TextIOWrapper
from typing import IO, Iterable, Iterator

from .errors import ConfigInvalid, MalformedRow, ParseAbort

Source = str | bytes | os.PathLike | IO

# A VCF Float, as DS carries it; float() alone would also take "0_5", " 1",
# "nan" and non-ASCII digits.
_VCF_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)
# A row of VCF Floats joined by single spaces, as the model files hold them.
_REAL_ROW = re.compile(rf"{_VCF_FLOAT.pattern}(?: {_VCF_FLOAT.pattern})*", re.ASCII)


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
