"""Layer spans for the traced run, recorded from outside the program.

The benchmark wraps each layer's public functions: on the defining module
and on every ``prsadjust`` module that bound the same function by name
(``cli`` does ``from .pca import fit_pca``, so wrapping ``pca.fit_pca``
alone would miss the CLI's calls). Spans stay in memory and are written
out when the traced process ends.

Run as a script, it executes one CLI command in-process under tracing:

    python3 perfbench/tracer.py SPANS.json USED_IDS.txt COMMAND_ID -- fit --train-vcf ...
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _path_size(target) -> int | None:
    if isinstance(target, (str, os.PathLike)) and os.path.isfile(target):
        return os.path.getsize(target)
    return None


def svd_flops(n: int, m: int) -> int:
    """Operation count of a thin SVD with both singular-vector sets.

    Golub and Van Loan's R-SVD count, 6*M*N**2 + 20*N**3 for M >= N. It is
    computed from the shape, not measured.
    """
    big, small = max(n, m), min(n, m)
    return 6 * big * small * small + 20 * small**3


class Counters:
    """Counts taken at a layer boundary, from the call's arguments and result."""

    def __init__(self, used_ids: frozenset[str] = frozenset()):
        self.used_ids = used_ids

    def parse_vcf(self, args, kwargs, result):
        matrix, report = result
        return {
            "cells": matrix.n_samples * report.rows_parsed,
            "rows": report.rows_parsed,
            "useful_rows": sum(1 for v in matrix.variants if v.id in self.used_ids),
            "bytes": _path_size(args[0]),
        }

    def write_vcf(self, args, kwargs, result):
        matrix, dest = args[0], args[1]
        return {"cells": matrix.n_samples * matrix.n_variants, "bytes": _path_size(dest)}

    def fill_missing_mean(self, args, kwargs, result):
        return {"cells_filled": int(args[0].missing_mask.sum())}

    def fit_pca(self, args, kwargs, result):
        n, m = args[0].shape
        return {"flops_computed": svd_flops(n, m), "components": int(args[1])}

    def save_pca_model(self, args, kwargs, result):
        return {"components": int(args[0].k)}


# (module, function, span name): one span name per layer metric prefix.
LAYERS = (
    ("io", "parse_vcf", "io.parse_vcf"),
    ("io", "write_vcf", "io.write_vcf"),
    ("io", "write_report_csv", "io.report_csv"),
    ("io", "read_report_csv", "io.report_csv"),
    ("io", "parse_weights", "io.small_tables"),
    ("io", "parse_panel", "io.small_tables"),
    ("io", "parse_phenotypes", "io.small_tables"),
    ("io", "write_weights", "io.small_tables"),
    ("io", "write_panel", "io.small_tables"),
    ("io", "write_phenotypes", "io.small_tables"),
    ("genotypes", "filter_by_panel", "genotypes.filter_by_panel"),
    ("genotypes", "align_effect_alleles", "genotypes.align_effect_alleles"),
    ("genotypes", "fill_missing_mean", "genotypes.fill_missing_mean"),
    ("pca", "standardize", "pca.standardize"),
    ("pca", "fit_pca", "pca.fit_pca"),
    ("pca", "project", "pca.project"),
    ("pca", "save_pca_model", "pca.model_io"),
    ("pca", "load_pca_model", "pca.model_io"),
    ("pca", "pca_model_fingerprint", "pca.model_io"),
    ("scoring", "compute_raw_prs", "scoring.compute_raw_prs"),
    ("adjust", "fit_adjustment", "adjust.fit_adjustment"),
    ("adjust", "apply_adjustment", "adjust.apply_adjustment"),
    ("evaluation", "scores_to_report", "evaluation.scores_to_report"),
    ("evaluation", "roc_auc", "evaluation.roc_auc"),
    ("evaluation", "stratify_by_population", "evaluation.stratify_by_population"),
    ("evaluation", "write_roc_csv", "evaluation.writers"),
    ("evaluation", "write_population_summary_csv", "evaluation.writers"),
    ("evaluation", "write_metrics", "evaluation.writers"),
    ("simulate", "generate_cohort", "simulate.generate_cohort"),
    ("simulate", "write_scenario", "simulate.write_scenario"),
)


class Tracer:
    """In-memory span recorder; one span per wrapped call."""

    def __init__(self, command_id: str, counters: Counters | None = None):
        self.command_id = command_id
        self.counters = counters or Counters()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, fn: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "fn": fn,
            "parent": self._stack[-1] if self._stack else None,
            "command": self.command_id,
            "rss_start_kb": _rss_kb(),
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_end_kb"] = _rss_kb()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = getattr(self.counters, fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function wherever a ``prsadjust`` module binds it."""
    for module, _, _ in LAYERS:
        importlib.import_module(f"prsadjust.{module}")
    importlib.import_module("prsadjust.cli")
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "prsadjust" or name.startswith("prsadjust."))
    ]
    replaced: list[tuple[object, str, object]] = []
    try:
        for module, fn_name, span_name in LAYERS:
            original = getattr(sys.modules[f"prsadjust.{module}"], fn_name)
            wrapped = tracer.wrap(original, span_name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        replaced.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(replaced):
            setattr(m, attr, original)


# ---------------------------------------------------------------------------
# span algebra
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children[span["id"]], key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass (setup plus each command)."""
    own = self_times(spans)
    selfs: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    rise: dict[str, float] = defaultdict(float)
    fingerprint_calls = 0
    for span in spans:
        name = span["name"]
        selfs[name] += own[span["id"]]
        rise[name] = max(rise[name], (span["rss_end_kb"] - span["rss_start_kb"]) / 1024.0)
        for key in ("cells", "rows", "useful_rows", "bytes", "cells_filled", "flops_computed"):
            if span.get(key) is not None:
                sums[f"{name}.{key}"] += span[key]
        if span["fn"] == "pca_model_fingerprint":
            fingerprint_calls += 1
        if span["fn"] in ("fit_pca", "save_pca_model"):
            sums[f"{span['fn']}.components"] += span["components"]

    def rate(name: str) -> float:
        return sums[f"{name}.cells"] / selfs[name] if selfs[name] > 0 else math.nan

    figures = {f"{name}.self_s": value for name, value in selfs.items()}
    figures.update(
        {
            "io.parse_vcf.cells": sums["io.parse_vcf.cells"],
            "io.parse_vcf.bytes": sums["io.parse_vcf.bytes"],
            "io.parse_vcf.cells_per_s": rate("io.parse_vcf"),
            "io.parse_vcf.peak_rss_rise_mb": rise["io.parse_vcf"],
            "io.parse_vcf.useful_ratio": sums["io.parse_vcf.useful_rows"]
            / sums["io.parse_vcf.rows"],
            "io.write_vcf.bytes": sums["io.write_vcf.bytes"],
            "io.write_vcf.cells_per_s": rate("io.write_vcf"),
            "genotypes.fill_missing_mean.cells_filled": sums[
                "genotypes.fill_missing_mean.cells_filled"
            ],
            "pca.fit_pca.peak_rss_rise_mb": rise["pca.fit_pca"],
            "pca.fit_pca.flops_computed": sums["pca.fit_pca.flops_computed"],
            "pca.fit_pca.kept_ratio": sums["save_pca_model.components"]
            / sums["fit_pca.components"],
            "pca.pca_model_fingerprint.calls": fingerprint_calls,
        }
    )
    return figures


def command_self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self times over each command's spans, keyed by command id."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["command"]] += own[span["id"]]
    return dict(totals)


def main(argv: list[str]) -> int:
    spans_path, used_ids_path, command_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS USED_IDS COMMAND_ID -- CLI ARGS...")
    with open(used_ids_path, encoding="utf-8") as handle:
        used = frozenset(line.strip() for line in handle if line.strip())
    from prsadjust import cli

    tracer = Tracer(command_id, Counters(used))
    with installed(tracer):
        root = tracer.begin(f"cli.{cli_argv[0]}", "main")
        try:
            code = cli.main(cli_argv)
        finally:
            tracer.end(root)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
