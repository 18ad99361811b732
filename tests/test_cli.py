"""Command line driver: simulate | fit | score | evaluate."""

import argparse
import csv
import io as stdio
import os
import re
import shutil
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prsadjust import adjust, pca
from prsadjust import io as pio
from prsadjust.adjust import apply_adjustment, fit_adjustment, load_adjustment_model
from prsadjust.cli import _build_parser, _resolve, main
from prsadjust.evaluation import scores_to_report
from prsadjust.genotypes import (
    PanelDefinition,
    ScoreWeightTable,
    WeightRow,
    align_effect_alleles,
    fill_missing_mean,
    filter_by_panel,
)
from prsadjust.io import read_report_csv
from prsadjust.scoring import compute_raw_prs

SMALL_SCENARIO = """\
seed=11
population=POPA:40:0.2:-0.5:40
population=POPB:40:0.2:-1.5:40
population=POPC:40:0.2:-1.0:40
n_ancestry_snps=250
n_trait_snps=40
trait_weight_sd=0.15
noise_sd=1.0
"""


# Each command's settings: its flags' dests, the only keys its --config file
# may set and, with "command", the keys of its run_config.txt.
SETTINGS = {
    "simulate": {"out", "scenario", "seed"},
    "fit": {"out", "train_vcf", "panel", "weights", "k"},
    "score": {"out", "test_vcf", "weights", "model_dir", "phenotypes"},
    "evaluate": {"out", "report", "percentile"},
}
# A value each key accepts, so that a refusal can only be of the key itself.
VALUES = {"seed": "5", "k": "9", "percentile": "90"}


def run(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_mismatched_weights(scenario_dir, dest):
    """The scenario's weights with the first effect allele made "AT", which
    matches neither allele of its variant, so fit and score fail at alignment."""
    weights = pio.parse_weights(scenario_dir / "weights.tsv")
    rows = (replace(weights.rows[0], effect_allele="AT"), *weights.rows[1:])
    pio.write_weights(ScoreWeightTable(rows), dest)
    return dest


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """One small simulated scenario shared read-only across tests."""
    root = tmp_path_factory.mktemp("scenario")
    config = root / "scenario.cfg"
    config.write_text(SMALL_SCENARIO)
    data = root / "data"
    assert main(["simulate", "--scenario", str(config), "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def model_dir(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = main(
        [
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def guard_cohort(tmp_path_factory):
    """A 900-sample x 990-variant cohort for the traced-memory guards."""
    root = tmp_path_factory.mktemp("guard")
    config = root / "scenario.cfg"
    config.write_text(
        "seed=5\n"
        + "".join(f"population=POP{c}:300:0.2:0\n" for c in "ABC")
        + "n_ancestry_snps=900\nn_trait_snps=90\n"
    )
    assert main(["simulate", "--scenario", str(config), "--out", str(root / "d")]) == 0
    return root / "d"


@pytest.fixture(scope="module")
def guard_dosage_vcf(guard_cohort):
    """The guard cohort as imputed GT:DS: 3-decimal dosages near the calls, 2% missing."""
    calls, _ = pio.parse_vcf(guard_cohort / "genotypes.vcf")
    rng = np.random.default_rng(5)
    noisy = calls.dosage + rng.normal(0.0, 0.1, calls.dosage.shape)
    dosage = np.round(np.clip(noisy, 0.0, 2.0), 3)
    missing = rng.random(dosage.shape) < 0.02
    dosage[missing] = 0.0
    path = guard_cohort.parent / "dosage.vcf"
    pio.write_vcf(replace(calls, dosage=dosage, missing_mask=missing), path)
    return path


class TestSimulate:
    def test_default_scenario_small_seedless_run(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("seed=3\npopulation=POPA:15:0.2:0\npopulation=POPB:15:0.2:0\n"
                          "n_ancestry_snps=50\nn_trait_snps=10\n")
        code, out, err = run(
            "simulate", "--scenario", str(config), "--out", str(tmp_path / "d"),
            capsys=capsys,
        )
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert names == [
            "genotypes.vcf", "panel.txt", "phenotypes.tsv",
            "run_config.txt", "scenario.txt", "weights.tsv",
        ]
        manifest = [line for line in out.splitlines() if line]
        assert len(manifest) == 4
        for line in manifest:
            digest, name = line.split("  ")
            assert len(digest) == 64 and (tmp_path / "d" / name).exists()

    def test_manifest_is_identical_on_rerun(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("seed=5\npopulation=POPA:10:0.2:0\npopulation=POPB:10:0.2:0\n"
                          "n_ancestry_snps=30\nn_trait_snps=8\n")
        _, first, _ = run("simulate", "--scenario", str(config),
                          "--out", str(tmp_path / "a"), capsys=capsys)
        _, second, _ = run("simulate", "--scenario", str(config),
                           "--out", str(tmp_path / "b"), capsys=capsys)
        assert first == second

    def test_seed_flag_overrides_scenario_seed(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("seed=5\npopulation=POPA:10:0.2:0\npopulation=POPB:10:0.2:0\n"
                          "n_ancestry_snps=30\nn_trait_snps=8\n")
        _, base, _ = run("simulate", "--scenario", str(config),
                         "--out", str(tmp_path / "a"), capsys=capsys)
        _, reseeded, _ = run("simulate", "--scenario", str(config), "--seed", "6",
                             "--out", str(tmp_path / "b"), capsys=capsys)
        assert base != reseeded
        echoed = (tmp_path / "b" / "scenario.txt").read_text()
        assert "seed=6" in echoed

    def test_invalid_scenario_exits_2_naming_field(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("seed=1\npopulation=POPA:10:1.5:0\n")
        code, _, err = run("simulate", "--scenario", str(config),
                           "--out", str(tmp_path / "d"), capsys=capsys)
        assert code == 2
        assert "fst" in err

    def test_negative_bmi_exits_3_naming_the_sample(self, tmp_path, capsys):
        """A BMI the phenotype reader refuses is refused when it is drawn."""
        config = tmp_path / "low.cfg"
        config.write_text("seed=3\npopulation=POPA:30:0.1:0\npopulation=POPB:30:0.1:0\n"
                          "n_ancestry_snps=200\nn_trait_snps=20\nbmi_base=1.0\n")
        code, out, err = run("simulate", "--scenario", str(config),
                             "--out", str(tmp_path / "d"), capsys=capsys)
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error: sample POP[AB]\d{4}: bmi -\d\S* is negative\n", err)
        assert not (tmp_path / "d").exists()

    def test_population_label_with_a_tab_exits_2(self, tmp_path, capsys):
        """A tab in a label would split the VCF header and the phenotype rows
        into extra fields, so the scenario is refused before anything is written."""
        config = tmp_path / "tab.cfg"
        config.write_text("seed=3\npopulation=PO\tPA:20:0.1:0:5\npopulation=POPB:20:0.1:0\n"
                          "n_ancestry_snps=30\nn_trait_snps=5\n")
        code, out, err = run("simulate", "--scenario", str(config),
                             "--out", str(tmp_path / "d"), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: label: population label 'PO\\tPA' holds a tab, line break or ':'\n"
        assert not (tmp_path / "d").exists()

    def test_population_label_with_trailing_whitespace_exits_2(self, tmp_path, capsys):
        """A space before the first ':' ends the label 'POPA ', and a label
        with whitespace at either end is refused before anything is written."""
        config = tmp_path / "space.cfg"
        config.write_text("seed=3\npopulation=POPA :20:0.1:0:5\npopulation=POPB:20:0.1:0\n"
                          "n_ancestry_snps=30\nn_trait_snps=5\n")
        code, out, err = run("simulate", "--scenario", str(config),
                             "--out", str(tmp_path / "d"), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: label: population label 'POPA ' has leading or trailing whitespace\n"
        assert not (tmp_path / "d").exists()

    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("seed=1\npopulation=POPA:10:0.2:0\nwidgets=9\n")
        code, _, err = run("simulate", "--scenario", str(config),
                           "--out", str(tmp_path / "d"), capsys=capsys)
        assert code == 2
        assert "widgets" in err


class TestFit:
    def test_writes_models_and_variance_table(self, model_dir, scenario_dir):
        assert (model_dir / "pca_model.txt").exists()
        assert (model_dir / "adjustment_model.txt").exists()
        lines = (model_dir / "explained_variance.csv").read_text().splitlines()
        assert lines[0] == "component,eigenvalue,explained_variance_ratio,cumulative"
        # the table lists the computed pairs: the 4 kept and the first dropped one
        assert len(lines) == 6
        cumulative = [float(line.split(",")[3]) for line in lines[1:]]
        assert cumulative == sorted(cumulative)

    def test_rerun_reproduces_model_files_byte_for_byte(self, scenario_dir, tmp_path):
        """fit gives the same model files in two directories; fit, score and
        evaluate each run three times into one --out, and every rerun
        replaces each output with a new file of the first run's bytes."""
        args = [
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", "4",
        ]
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        commands = {
            "a": args,
            "scores": [
                "score",
                "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--model-dir", str(tmp_path / "a"),
                "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
            ],
            "metrics": ["evaluate", "--report", str(tmp_path / "scores" / "report.csv")],
        }
        kept = tmp_path / "kept"
        kept.mkdir()
        for name, command in commands.items():
            out = tmp_path / name
            for run in range(3):
                assert main(command + ["--out", str(out)]) == 0
                paths = sorted(out.iterdir())
                if run == 0:
                    fresh = {path.name: path.read_bytes() for path in paths}
                else:
                    assert {path.name: path.read_bytes() for path in paths} == fresh
                    # A hard link to each earlier output keeps its inode in use,
                    # so a replaced file cannot be given the same number again.
                    assert all(path.stat().st_ino not in inodes for path in paths)
                for path in paths:
                    os.link(path, kept / f"{name}{run}_{path.name}")
                inodes = {path.stat().st_ino for path in paths}
        for name in ("pca_model.txt", "adjustment_model.txt", "explained_variance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_training_pcs_equal_projection_of_filled_panel(self, scenario_dir, tmp_path, monkeypatch):
        """fit's PCs are X @ loadings; projecting the filled panel gives the same bits."""
        matrix, _ = pio.parse_vcf(scenario_dir / "train_genotypes.vcf")
        panel = pio.parse_panel(scenario_dir / "panel.txt")
        dosage, missing = matrix.dosage.copy(), matrix.missing_mask.copy()
        missing[::7, ::5] = True
        constant = matrix.variant_index()[panel.variant_ids[3]]
        dosage[:, constant] = 1.0
        vcf = tmp_path / "train.vcf"
        pio.write_vcf(replace(matrix, dosage=dosage, missing_mask=missing), vcf)
        seen = []

        def record(raw, pcs):
            seen.append(pcs)
            return fit_adjustment(raw, pcs)

        monkeypatch.setattr(adjust, "fit_adjustment", record)
        assert main(
            [
                "fit",
                "--train-vcf", str(vcf),
                "--panel", str(scenario_dir / "panel.txt"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--k", "4",
                "--out", str(tmp_path / "m"),
            ]
        ) == 0
        model = pca.load_pca_model(tmp_path / "m" / "pca_model.txt")
        assert panel.variant_ids[3] in model.params.dropped_variants
        parsed, _ = pio.parse_vcf(vcf)
        assert parsed.missing_mask.any()
        filled = fill_missing_mean(filter_by_panel(parsed, panel)[0])
        expected = pca.project(model, filled)
        (pcs,) = seen
        assert pcs.scores.tobytes() == expected.scores.tobytes()
        assert pcs.sample_ids == expected.sample_ids
        assert pcs.model_fingerprint == expected.model_fingerprint

    def test_traced_peak_holds_one_full_size_genotype_copy(self, guard_cohort, tmp_path):
        """fit's traced peak stays within 3.5x the parsed dosage matrix.

        X, the Gram matrix and eigh's outputs come to about 3x; a second
        full-size copy of the genotypes alive through the eigensolve breaks it.
        """
        data = guard_cohort
        parsed, _ = pio.parse_vcf(data / "genotypes.vcf")
        assert parsed.dosage.shape == (900, 990)
        dosage_bytes = parsed.dosage.nbytes
        del parsed
        tracemalloc.start()
        try:
            assert main(
                [
                    "fit",
                    "--train-vcf", str(data / "genotypes.vcf"),
                    "--panel", str(data / "panel.txt"),
                    "--weights", str(data / "weights.tsv"),
                    "--k", "4",
                    "--out", str(tmp_path / "m"),
                ]
            ) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * dosage_bytes

    @pytest.mark.parametrize("vcf", ["genotypes", "dosages"])
    def test_score_traced_peak_holds_the_parse_and_a_few_row_blocks(
        self, vcf, guard_cohort, guard_dosage_vcf, tmp_path
    ):
        """score's traced peak stays within 1.85x the parsed dosage matrix.

        The parse takes about 1.35x; project reads the parsed matrix through
        a few 128-row blocks. A copy of the panel columns made to fill them
        takes about 2.55x.
        """
        data = guard_cohort
        path = data / "genotypes.vcf" if vcf == "genotypes" else guard_dosage_vcf
        assert main(
            [
                "fit",
                "--train-vcf", str(data / "genotypes.vcf"),
                "--panel", str(data / "panel.txt"),
                "--weights", str(data / "weights.tsv"),
                "--k", "4",
                "--out", str(tmp_path / "m"),
            ]
        ) == 0
        parsed, _ = pio.parse_vcf(path)
        assert parsed.dosage.shape == (900, 990)
        assert parsed.missing_mask.any() == (vcf == "dosages")
        dosage_bytes = parsed.dosage.nbytes
        del parsed
        tracemalloc.start()
        try:
            assert main(
                [
                    "score",
                    "--test-vcf", str(path),
                    "--weights", str(data / "weights.tsv"),
                    "--model-dir", str(tmp_path / "m"),
                    "--out", str(tmp_path / "s"),
                ]
            ) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * dosage_bytes

    def test_parse_peak_holds_no_second_copy(self, guard_cohort):
        """parse_vcf's traced peak stays within 1.45x the dosage matrix it returns.

        The row buffers the matrix views take about 1.35x (9 bytes a cell plus
        the buffers' growth); a copy of the matrix made from them takes 2.6x,
        and range-checking the whole matrix at once rather than a column block
        at a time about 1.53x.
        """
        tracemalloc.start()
        try:
            parsed, _ = pio.parse_vcf(guard_cohort / "genotypes.vcf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.dosage.shape == (900, 990)
        assert peak <= 1.45 * parsed.dosage.nbytes

    def test_dosage_parse_peak_holds_no_second_copy(self, guard_dosage_vcf):
        """The same bound on the guard cohort in GT:DS with missing calls."""
        tracemalloc.start()
        try:
            parsed, _ = pio.parse_vcf(guard_dosage_vcf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.dosage.shape == (900, 990)
        assert parsed.missing_mask.any() and not np.array_equal(parsed.dosage, np.rint(parsed.dosage))
        assert peak <= 1.45 * parsed.dosage.nbytes

    def test_k_auto_keeps_the_tracy_widom_count(self, tmp_path, capsys):
        # the built-in scenario: three populations, so two significant axes
        assert main(["simulate", "--out", str(tmp_path / "d")]) == 0
        code, _, err = run(
            "fit",
            "--train-vcf", str(tmp_path / "d" / "genotypes.vcf"),
            "--panel", str(tmp_path / "d" / "panel.txt"),
            "--weights", str(tmp_path / "d" / "weights.tsv"),
            "--k", "auto",
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 0
        assert "k auto: kept 2 components by the Tracy-Widom test at the 5% level" in err
        assert "n_components 2" in (tmp_path / "m" / "pca_model.txt").read_text().splitlines()
        assert "k 2" in (tmp_path / "m" / "adjustment_model.txt").read_text().splitlines()
        # the first 8 pairs already hold the first one that fails, so no more are computed
        table = (tmp_path / "m" / "explained_variance.csv").read_text().splitlines()
        assert len(table) == 9
        # score echoes the k its models keep, not fit's default
        assert main([
            "score",
            "--test-vcf", str(tmp_path / "d" / "genotypes.vcf"),
            "--weights", str(tmp_path / "d" / "weights.tsv"),
            "--model-dir", str(tmp_path / "m"),
            "--out", str(tmp_path / "s"),
        ]) == 0
        assert "k=2" in (tmp_path / "s" / "run_config.txt").read_text().splitlines()

    def test_k_auto_doubles_the_pairs_while_all_pass(self, tmp_path, capsys):
        # twelve populations: eleven significant axes, more than the first 8 pairs
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "seed=3\n"
            + "".join(f"population=P{i:02d}:25:0.2:0\n" for i in range(12))
            + "n_ancestry_snps=300\nn_trait_snps=20\n"
        )
        assert main(["simulate", "--scenario", str(config), "--out", str(tmp_path / "d")]) == 0
        code, _, err = run(
            "fit",
            "--train-vcf", str(tmp_path / "d" / "genotypes.vcf"),
            "--panel", str(tmp_path / "d" / "panel.txt"),
            "--weights", str(tmp_path / "d" / "weights.tsv"),
            "--k", "auto",
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 0
        assert "k auto: kept 11 components" in err
        # the 8 pairs that all passed were extended, not reported as all passing
        assert "pass the Tracy-Widom test" not in err
        assert len((tmp_path / "m" / "explained_variance.csv").read_text().splitlines()) == 17

    @pytest.mark.parametrize(
        "source, value",
        [("flag", v) for v in ("0", "-1", "1_0", "+4", " 4", "\u0663", "four")]
        + [("config", v) for v in ("0", "1_0", "+4", "\u0663", "four")],
    )
    def test_k_must_be_ascii_digits_or_auto(self, scenario_dir, tmp_path, capsys, source, value):
        config = tmp_path / "fit.cfg"
        config.write_text(f"k={value}\n", encoding="utf-8")
        k_args = ["--k", value] if source == "flag" else ["--config", str(config)]
        code, _, err = run(
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            *k_args,
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 2
        assert err.startswith("error: k:")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("case", ["panel_partly_found", "k_clamped"])
    def test_fit_notes_what_it_changed_on_stderr(self, scenario_dir, tmp_path, capsys, case):
        panel, k = scenario_dir / "panel.txt", "4"
        ids = pio.parse_panel(panel).variant_ids
        if case == "panel_partly_found":
            panel = tmp_path / "panel.txt"
            panel.write_text("\n".join((*ids, "rs_absent")) + "\n")
            expected = rf"panel panel: {len(ids)}/{len(ids) + 1} variants found"
        else:
            k = "500"  # above the 119 components 120 training samples support
            expected = r"k clamped from 500 to (\d+) \(data supports at most \1\)"
        code, _, err = run(
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(panel),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", k,
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 0
        assert len([line for line in err.splitlines() if re.fullmatch(expected, line)]) == 1

    def test_disjoint_panel_exits_3(self, scenario_dir, tmp_path, capsys):
        panel = tmp_path / "panel.txt"
        panel.write_text("rs999990\nrs999991\n")
        code, _, err = run(
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(panel),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 3
        assert "error:" in err

    def test_skipped_rows_are_counted_on_stderr(self, scenario_dir, model_dir, tmp_path, capsys):
        text = (scenario_dir / "train_genotypes.vcf").read_text()
        n_samples = text.splitlines()[-1].count("\t") - 8
        rows = sum(1 for line in text.splitlines() if not line.startswith("#"))
        vcf = tmp_path / "train.vcf"
        vcf.write_text(text + "1\t99\trs_multi\tA\tG,T\t.\tPASS\t.\tGT" + "\t0/1" * n_samples + "\n")
        code, _, err = run(
            "fit",
            "--train-vcf", str(vcf),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", "4",
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 0
        assert f"train.vcf: 1/{rows + 1} rows skipped (1 multi_allelic)" in err.splitlines()
        for name in ("pca_model.txt", "adjustment_model.txt", "explained_variance.csv"):
            assert (tmp_path / "m" / name).read_bytes() == (model_dir / name).read_bytes()

    def test_failing_fit_writes_nothing(self, scenario_dir, model_dir, tmp_path, capsys):
        """The allele check fails: a reused model directory (fitted at --k 4,
        so a k = 3 PCA model would differ) keeps its bytes, and a fresh
        --out is not created."""
        weights = _write_mismatched_weights(scenario_dir, tmp_path / "weights.tsv")
        reused = tmp_path / "reused"
        shutil.copytree(model_dir, reused)
        before = {path.name: path.read_bytes() for path in reused.iterdir()}
        for out in (reused, tmp_path / "fresh"):
            code, _, err = run(
                "fit",
                "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
                "--panel", str(scenario_dir / "panel.txt"),
                "--weights", str(weights),
                "--k", "3",
                "--out", str(out),
                capsys=capsys,
            )
            assert code == 3
            assert err.startswith("error: variant ") and "'AT'" in err
        assert {path.name: path.read_bytes() for path in reused.iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    def test_missing_required_input_exits_2(self, scenario_dir, tmp_path, capsys):
        code, _, err = run(
            "fit",
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 2
        assert "train" in err


class TestScore:
    def _score(self, scenario_dir, model_dir, out, vcf="test_genotypes.vcf"):
        return main(
            [
                "score",
                "--test-vcf", str(scenario_dir / vcf),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--model-dir", str(model_dir),
                "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
                "--out", str(out),
            ]
        )

    def test_scores_held_out_cohort(self, scenario_dir, model_dir, tmp_path):
        out = tmp_path / "scores"
        assert self._score(scenario_dir, model_dir, out) == 0
        report = read_report_csv(out / "report.csv")
        assert len(report.rows) == 120
        row = report.rows[0]
        assert len(row.pcs) == 4
        assert row.population in {"POPA", "POPB", "POPC"}
        assert row.obese in (True, False)

    def test_training_cohort_adjusted_scores_center_on_zero(
        self, scenario_dir, model_dir, tmp_path
    ):
        out = tmp_path / "scores"
        assert self._score(scenario_dir, model_dir, out, vcf="train_genotypes.vcf") == 0
        report = read_report_csv(out / "report.csv")
        adjusted = np.array([r.adjusted_prs for r in report.rows])
        # written at 10 significant digits, so centering survives only to ~1e-8
        assert abs(adjusted.mean()) < 1e-8

    def test_vcf_missing_model_variants_exits_3(self, scenario_dir, model_dir,
                                                tmp_path, capsys):
        config = tmp_path / "small.cfg"
        config.write_text("seed=11\npopulation=POPA:10:0.2:0\n"
                          "n_ancestry_snps=100\nn_trait_snps=40\n")
        other = tmp_path / "other"
        assert main(["simulate", "--scenario", str(config), "--out", str(other)]) == 0
        code, _, err = run(
            "score",
            "--test-vcf", str(other / "genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(model_dir),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert "rs100" in err  # names at least one absent model variant

    def test_mismatched_model_pair_exits_3(self, scenario_dir, model_dir,
                                           tmp_path, capsys):
        refit = tmp_path / "refit"
        assert main(
            [
                "fit",
                "--train-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--panel", str(scenario_dir / "panel.txt"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--k", "4",
                "--out", str(refit),
            ]
        ) == 0
        franken = tmp_path / "franken"
        franken.mkdir()
        shutil.copy(model_dir / "pca_model.txt", franken / "pca_model.txt")
        shutil.copy(refit / "adjustment_model.txt", franken / "adjustment_model.txt")
        code, _, err = run(
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(franken),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert "error:" in err
        assert "different PCA model" in err

    def test_failing_score_writes_nothing(self, scenario_dir, model_dir, tmp_path, capsys):
        reused = tmp_path / "reused"
        assert self._score(scenario_dir, model_dir, reused) == 0
        before = {path.name: path.read_bytes() for path in reused.iterdir()}
        weights = _write_mismatched_weights(scenario_dir, tmp_path / "weights.tsv")
        for out in (reused, tmp_path / "fresh"):
            code, _, err = run(
                "score",
                "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--weights", str(weights),
                "--model-dir", str(model_dir),
                "--out", str(out),
                capsys=capsys,
            )
            assert code == 3
            assert "'AT'" in err
        assert {path.name: path.read_bytes() for path in reused.iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    def test_truncated_adjustment_model_exits_3(self, scenario_dir, model_dir, tmp_path, capsys):
        truncated = tmp_path / "truncated"
        truncated.mkdir()
        shutil.copy(model_dir / "pca_model.txt", truncated / "pca_model.txt")
        head = (model_dir / "adjustment_model.txt").read_text().splitlines()[:3]
        (truncated / "adjustment_model.txt").write_text("\n".join(head) + "\n")
        code, _, err = run(
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(truncated),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert err == "error: adjustment model has no 'intercept' line\n"

    def test_score_drops_the_strand_ambiguous_weight_as_fit_did(self, scenario_dir, tmp_path):
        """An A/T weight variant is excluded by fit and by score alike, and
        score's report is the library's recomputation from the saved models."""
        weights = pio.parse_weights(scenario_dir / "weights.tsv")
        at_id = weights.rows[0].variant_id
        # The first weight variant becomes strand-ambiguous (A/T) everywhere.
        for name in ("train_genotypes.vcf", "test_genotypes.vcf"):
            matrix, _ = pio.parse_vcf(scenario_dir / name)
            variants = tuple(
                replace(v, ref_allele="A", alt_allele="T") if v.id == at_id else v
                for v in matrix.variants
            )
            pio.write_vcf(replace(matrix, variants=variants), tmp_path / name)
        rows = (replace(weights.rows[0], effect_allele="T", other_allele="A"), *weights.rows[1:])
        pio.write_weights(ScoreWeightTable(rows), tmp_path / "weights.tsv")
        models, scores = tmp_path / "m", tmp_path / "s"
        assert main(
            [
                "fit",
                "--train-vcf", str(tmp_path / "train_genotypes.vcf"),
                "--panel", str(scenario_dir / "panel.txt"),
                "--weights", str(tmp_path / "weights.tsv"),
                "--out", str(models),
            ]
        ) == 0
        assert main(
            [
                "score",
                "--test-vcf", str(tmp_path / "test_genotypes.vcf"),
                "--weights", str(tmp_path / "weights.tsv"),
                "--model-dir", str(models),
                "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
                "--out", str(scores),
            ]
        ) == 0

        def recompute():
            matrix, _ = pio.parse_vcf(tmp_path / "test_genotypes.vcf")
            model = pca.load_pca_model(models / "pca_model.txt")
            panel = PanelDefinition("model", model.params.variant_ids)
            pcs = pca.project(model, fill_missing_mean(filter_by_panel(matrix, panel)[0]))
            weights = pio.parse_weights(tmp_path / "weights.tsv")
            sub, _ = filter_by_panel(matrix, PanelDefinition("weights", weights.variant_ids))
            aligned, alignment = align_effect_alleles(sub, weights)
            assert alignment.excluded == (at_id,)
            raw = compute_raw_prs(fill_missing_mean(aligned), weights)
            adjusted = apply_adjustment(load_adjustment_model(models / "adjustment_model.txt"), raw, pcs)
            by_id = {rec.sample_id: rec for rec in pio.parse_phenotypes(scenario_dir / "phenotypes.tsv")}
            report = scores_to_report([by_id[s] for s in matrix.sample_ids], pcs, raw, adjusted)
            text = stdio.StringIO()
            pio.write_report_csv(report, text)
            return text.getvalue()

        assert (scores / "report.csv").read_text() == recompute()

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_older_adjustment_model_exits_3(self, scenario_dir, model_dir, tmp_path, capsys,
                                            version):
        old = tmp_path / "old"
        old.mkdir()
        shutil.copy(model_dir / "pca_model.txt", old / "pca_model.txt")
        lines = (model_dir / "adjustment_model.txt").read_text().splitlines()
        # v1 had no recipe lines, v2 ended with strand_policy and prs_mode,
        # v3 with strand_policy.
        body = lines[1:] + {"v1": [], "v2": ["strand_policy exclude", "prs_mode sum"],
                            "v3": ["strand_policy exclude"]}[version]
        (old / "adjustment_model.txt").write_text(
            "\n".join([f"prsadjust-adjust {version}"] + body) + "\n"
        )
        code, _, err = run(
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(old),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert err == "error: not a prsadjust-adjust v4 file\n"

    # v2 had a scale_mode line after n_components. A v2 file is refused by its
    # magic line, and a v3 file that keeps the line by its unknown key, both
    # before the cohort's VCF is opened.
    @pytest.mark.parametrize(
        "magic, message",
        [
            ("prsadjust-pca v2", "not a prsadjust-pca v3 file"),
            ("prsadjust-pca v3", "PCA model has an unknown 'scale_mode' line"),
        ],
    )
    def test_pca_model_with_a_scale_mode_line_exits_3(self, scenario_dir, model_dir, tmp_path,
                                                       capsys, magic, message):
        edited = tmp_path / "edited"
        shutil.copytree(model_dir, edited)
        lines = (edited / "pca_model.txt").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("n_components ")) + 1
        lines = [magic, *lines[1:i], "scale_mode sample-sd", *lines[i:]]
        (edited / "pca_model.txt").write_text("\n".join(lines) + "\n")
        code, _, err = run(
            "score",
            "--test-vcf", str(tmp_path / "absent.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(edited),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert err == f"error: {message}\n"
        assert not (tmp_path / "scores").exists()

    # Each number in a model file is ASCII digits or an ASCII VCF Float, which
    # may carry a sign; int() and float() would read all of these.
    @pytest.mark.parametrize(
        "name, key, value",
        [
            (name, key, value)
            for name, int_key, float_key in (
                ("pca_model.txt", "n_train", "total_variance"),
                ("adjustment_model.txt", "n_train", "intercept"),
            )
            for key, values in (
                (int_key, ("1_0", "+4", "\u0661", " 4")),
                (float_key, ("1_0", "\u0661", " 4")),
            )
            for value in values
        ]
        # a list of reals is read by one helper, which names the first bad value
        + [("adjustment_model.txt", "coefficients", "1_0"), ("pca_model.txt", "eigenvalues", "1_0")],
    )
    def test_model_numbers_are_read_strictly(self, scenario_dir, model_dir, tmp_path, capsys,
                                             name, key, value):
        edited = tmp_path / "edited"
        shutil.copytree(model_dir, edited)
        lines = (edited / name).read_text().splitlines()
        (i,) = [i for i, line in enumerate(lines) if line.split(" ")[0] == key]
        lines[i] = f"{key} {value}"
        (edited / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(edited),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert err.startswith("error: ") and repr(value) in err

    # Each is refused where its model is read, before the cohort's VCF is opened.
    # An adjustment model must name the PCA model it was fitted against.
    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("adjustment_model.txt", "pca_fingerprint", value,
             f"pca_fingerprint {value!r} is not 64 lowercase hex digits")
            for value in (".", "a" * 63)
        ],
    )
    def test_model_fields_are_checked_at_load(self, scenario_dir, model_dir, tmp_path, capsys,
                                               name, key, value, message):
        edited = tmp_path / "edited"
        shutil.copytree(model_dir, edited)
        lines = (edited / name).read_text().splitlines()
        (i,) = [i for i, line in enumerate(lines) if line.split(" ")[0] == key]
        lines[i] = f"{key} {value}"
        (edited / name).write_text("\n".join(lines) + "\n")
        code, _, err = run(
            "score",
            "--test-vcf", str(tmp_path / "absent.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(edited),
            "--out", str(tmp_path / "scores"),
            capsys=capsys,
        )
        assert code == 3
        assert err == f"error: {message}\n"

    def test_score_fingerprints_the_pca_model_once(self, scenario_dir, model_dir,
                                                   tmp_path, monkeypatch):
        original = pca.pca_model_fingerprint
        calls = []

        def counting(model):
            calls.append(model)
            return original(model)

        for name, module in list(sys.modules.items()):
            if name.startswith("prsadjust") and getattr(module, "pca_model_fingerprint", None) is original:
                monkeypatch.setattr(module, "pca_model_fingerprint", counting)
        assert self._score(scenario_dir, model_dir, tmp_path / "scores") == 0
        assert len(calls) == 1


class TestWeightAccounting:
    """fit and score name the weight variants they could not score, once."""

    def _weights(self, scenario_dir, dest, keep=True):
        """The scenario's weights (or none) and 10 rows for ids no VCF holds."""
        weights = pio.parse_weights(scenario_dir / "weights.tsv")
        absent = tuple(WeightRow(f"rs_absent{i}", "A", "G", 0.5) for i in range(10))
        pio.write_weights(ScoreWeightTable((weights.rows if keep else ()) + absent), dest)
        return dest

    def _argv(self, command, scenario_dir, model_dir, weights, out):
        if command == "fit":
            return [
                "fit",
                "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
                "--panel", str(scenario_dir / "panel.txt"),
                "--weights", str(weights),
                "--k", "4",
                "--out", str(out),
            ]
        return [
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(weights),
            "--model-dir", str(model_dir),
            "--out", str(out),
        ]

    @pytest.mark.parametrize("command", ["fit", "score"])
    def test_absent_weights_are_counted_once(self, scenario_dir, model_dir, tmp_path,
                                             capsys, command):
        weights = self._weights(scenario_dir, tmp_path / "weights.tsv")
        argv = self._argv(command, scenario_dir, model_dir, weights, tmp_path / "out")
        code, _, err = run(*argv, capsys=capsys)
        assert code == 0
        vcf = "train_genotypes.vcf" if command == "fit" else "test_genotypes.vcf"
        matrix, _ = pio.parse_vcf(scenario_dir / vcf)
        index = matrix.variant_index()
        table = pio.parse_weights(scenario_dir / "weights.tsv")
        flipped = sum(
            row.effect_allele == matrix.variants[index[row.variant_id]].ref_allele
            for row in table.rows
        )
        n = len(table)
        line = (
            f"scoring: {n}/{n + 10} weight variants found, "
            f"0 strand-ambiguous excluded, {flipped} flipped"
        )
        assert [text for text in err.splitlines() if text.startswith("scoring:")] == [line]
        if command == "fit":  # weights the cohort lacks change no score
            for name in ("pca_model.txt", "adjustment_model.txt"):
                assert (tmp_path / "out" / name).read_bytes() == (model_dir / name).read_bytes()

    @pytest.mark.parametrize("command", ["fit", "score"])
    def test_weights_sharing_no_variant_exit_3(self, scenario_dir, model_dir, tmp_path,
                                               capsys, command):
        weights = self._weights(scenario_dir, tmp_path / "weights.tsv", keep=False)
        argv = self._argv(command, scenario_dir, model_dir, weights, tmp_path / "out")
        code, out, err = run(*argv, capsys=capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: none of the 10 weight variants is present in the matrix"]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "score"])
def test_bad_call_outside_panel_and_weights_is_not_read(scenario_dir, model_dir, tmp_path,
                                                        capsys, command):
    """A row of neither a panel nor a weight variant, with a "0/9" call, is
    not decoded: the run exits 0 and writes what it writes without the row."""
    name, vcf_flag, flags = {
        "fit": ("train_genotypes.vcf", "--train-vcf",
                ["--panel", str(scenario_dir / "panel.txt"), "--k", "4"]),
        "score": ("test_genotypes.vcf", "--test-vcf",
                  ["--model-dir", str(model_dir), "--phenotypes", str(scenario_dir / "phenotypes.tsv")]),
    }[command]
    lines = (scenario_dir / name).read_text().splitlines(keepends=True)
    h = next(i for i, line in enumerate(lines) if line.startswith("#CHROM"))
    n_samples = lines[h].count("\t") - 8
    lines.insert(h + 1, "1\t99\trs_unused\tA\tG\t.\tPASS\t.\tGT\t0/9" + "\t0/1" * (n_samples - 1) + "\n")
    vcf = tmp_path / name
    vcf.write_text("".join(lines))
    outputs = {}
    for label, source in (("with", vcf), ("without", scenario_dir / name)):
        code, _, err = run(
            command, vcf_flag, str(source), *flags,
            "--weights", str(scenario_dir / "weights.tsv"),
            "--out", str(tmp_path / label), capsys=capsys,
        )
        assert (code, err) == (0, "")
        outputs[label] = {
            path.name: path.read_bytes()
            for path in (tmp_path / label).iterdir() if path.name != "run_config.txt"
        }
    assert outputs["with"] == outputs["without"]
    assert set(outputs["with"]) >= ({"pca_model.txt", "adjustment_model.txt"} if command == "fit"
                                    else {"report.csv"})


class TestEvaluate:
    @pytest.fixture()
    def report_path(self, scenario_dir, model_dir, tmp_path):
        out = tmp_path / "scores"
        code = main(
            [
                "score",
                "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--model-dir", str(model_dir),
                "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        return out / "report.csv"

    def test_writes_metrics_and_curves(self, report_path, tmp_path, capsys):
        out = tmp_path / "eval"
        code, stdout, _ = run(
            "evaluate", "--report", str(report_path), "--out", str(out),
            capsys=capsys,
        )
        assert code == 0
        for name in ("metrics.txt", "roc_raw.csv", "roc_adjusted.csv",
                     "population_summary.csv", "run_config.txt"):
            assert (out / name).exists()
        metrics = dict(
            line.split("=", 1)
            for line in (out / "metrics.txt").read_text().splitlines()
        )
        for key in ("auc_raw", "auc_adjusted", "auc_delta", "threshold_raw",
                    "threshold_adjusted", "n_pos", "n_neg"):
            assert key in metrics
        assert 0.0 <= float(metrics["auc_raw"]) <= 1.0
        assert stdout.encode("utf-8") == (out / "metrics.txt").read_bytes()

    def test_identical_columns_give_zero_delta(self, report_path, tmp_path):
        # rewrite the report with adjusted := raw
        text = report_path.read_text().splitlines()
        header = text[0].split(",")
        i_raw, i_adj = header.index("raw_prs"), header.index("adjusted_prs")
        rows = []
        for line in text[1:]:
            parts = line.split(",")
            parts[i_adj] = parts[i_raw]
            rows.append(",".join(parts))
        clone = tmp_path / "clone.csv"
        clone.write_text("\n".join([text[0]] + rows) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--report", str(clone), "--out", str(out)]) == 0
        metrics = dict(
            line.split("=", 1)
            for line in (out / "metrics.txt").read_text().splitlines()
        )
        assert float(metrics["auc_delta"]) == 0.0

    def test_population_sum_beyond_float_range_writes_dots(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text(
            "sample_id,population,pc1,raw_prs,adjusted_prs,obese\n"
            "S1,A,0.1,1e+308,0.5,1\n"
            "S2,A,0.2,1e+308,-0.5,0\n"
            "S3,B,0.3,1,0.25,1\n"
            "S4,B,0.4,2,-0.25,0\n"
        )
        out = tmp_path / "eval"
        code, _, err = run("evaluate", "--report", str(report), "--out", str(out), capsys=capsys)
        assert (code, err) == (0, "")
        with open(out / "population_summary.csv", newline="") as handle:
            summary = {row["population"]: row for row in csv.DictReader(handle)}
        assert (summary["A"]["mean_raw"], summary["A"]["sd_raw"]) == (".", ".")
        assert summary["A"]["mean_adjusted"] == "0"

    def test_single_class_labels_exit_3(self, report_path, tmp_path, capsys):
        text = report_path.read_text().splitlines()
        i_obese = text[0].split(",").index("obese")
        rows = []
        for line in text[1:]:
            parts = line.split(",")
            parts[i_obese] = "1"
            rows.append(",".join(parts))
        clone = tmp_path / "clone.csv"
        clone.write_text("\n".join([text[0]] + rows) + "\n")
        code, _, err = run(
            "evaluate", "--report", str(clone), "--out", str(tmp_path / "eval"),
            capsys=capsys,
        )
        assert code == 3
        assert err == "error: need both classes, got 120 positive / 0 negative\n"
        assert list(tmp_path.glob("eval/*")) == []

    def test_unlabeled_report_names_the_cause_and_writes_nothing(
        self, scenario_dir, model_dir, tmp_path, capsys
    ):
        assert main(
            [
                "score",
                "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--model-dir", str(model_dir),
                "--out", str(tmp_path / "scores"),
            ]
        ) == 0
        code, _, err = run(
            "evaluate", "--report", str(tmp_path / "scores" / "report.csv"),
            "--out", str(tmp_path / "eval"),
            capsys=capsys,
        )
        assert code == 3
        assert len(err.splitlines()) == 1
        assert "no row of the report has an obese label" in err
        assert "--phenotypes" in err
        assert list(tmp_path.glob("eval/*")) == []


class TestConfigLayering:
    def test_percentile_flag_beats_config_file(self, scenario_dir, model_dir, tmp_path):
        out = tmp_path / "scores"
        assert main(
            [
                "score",
                "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
                "--weights", str(scenario_dir / "weights.tsv"),
                "--model-dir", str(model_dir),
                "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
                "--out", str(out),
            ]
        ) == 0
        config = tmp_path / "eval.cfg"
        config.write_text("percentile=90\n")
        eval_dir = tmp_path / "eval"
        assert main(
            [
                "evaluate", "--config", str(config), "--report", str(out / "report.csv"),
                "--percentile", "76", "--out", str(eval_dir),
            ]
        ) == 0
        echoed = (eval_dir / "run_config.txt").read_text()
        assert "percentile=76.0" in echoed

    # +4 is a VCF Float, so it is a valid percentile but not a valid seed.
    @pytest.mark.parametrize("token", ["1_2", "+4", " 4", "\u0663", "7_6", "nan", "inf"])
    @pytest.mark.parametrize("key, command", [("seed", "simulate"), ("percentile", "evaluate")])
    def test_seed_and_percentile_read_strictly(self, key, command, token, tmp_path, capsys):
        if key == "percentile" and token == "+4":
            args = _build_parser().parse_args(["evaluate", "--percentile", token])
            assert _resolve(args).percentile == 4.0
            return
        out = tmp_path / "out"
        layers = [["--" + key, token]]
        if token.strip() == token:  # config values are stripped
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}={token}\n", encoding="utf-8")
            layers.append(["--config", str(config)])
        report = ["--report", str(tmp_path / "report.csv")] if command == "evaluate" else []
        for layer in layers:
            code, _, err = run(command, *layer, *report, "--out", str(out), capsys=capsys)
            assert code == 2
            assert err.startswith(f"error: {key}: expected ") and repr(token) in err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "100"])
    def test_percentile_outside_the_open_interval_exits_2(self, value, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(
            "evaluate", "--percentile", value, "--report", str(tmp_path / "report.csv"),
            "--out", str(out), capsys=capsys,
        )
        assert code == 2
        assert err == f"error: percentile: must be in (0, 100), got {float(value)}\n"
        assert not out.exists()

    # prs_mode, strand_policy and scale were fit keys until each had one value.
    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("simulate", "frobnicate=1", "frobnicate: unknown config key"),
            ("simulate", "prs_mode=sum", "prs_mode: unknown config key"),
            ("fit", "strand_policy=keep", "strand_policy: unknown config key"),
            ("fit", "scale = binomial", "scale: unknown config key"),
            ("simulate", " seed 7 ", "seed 7: expected key=value"),
        ],
    )
    def test_unknown_config_key_exits_2(self, command, line, message, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        code, _, err = run(
            command, "--config", str(config), "--out", str(tmp_path / "d"),
            capsys=capsys,
        )
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, key, first, second",
        [("evaluate", "percentile", "90", "50"), ("fit", "k", "4", "4"), ("simulate", "out", "a", "b")],
    )
    def test_repeated_config_key_exits_2(self, command, key, first, second, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={first}\n{key}={second}\n")
        code, _, err = run(command, "--config", str(config), "--out", str(tmp_path / "d"),
                           capsys=capsys)
        assert code == 2
        assert err == f"error: {key}: repeated config key\n"
        assert not (tmp_path / "d").exists()


    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command, own in SETTINGS.items()
            for key in sorted(set().union(*SETTINGS.values()) - own)
        ],
    )
    def test_another_commands_key_exits_2(self, command, key, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={VALUES.get(key, 'x')}\n")
        code, _, err = run(command, "--config", str(config), "--out", str(tmp_path / "d"),
                           capsys=capsys)
        assert code == 2
        assert err == f"error: {key}: unknown config key\n"
        assert not (tmp_path / "d").exists()

    def test_run_config_echoes_only_the_commands_settings(self, scenario_dir, model_dir, tmp_path):
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text("seed=3\npopulation=POPA:10:0.2:0\npopulation=POPB:10:0.2:0\n"
                        "n_ancestry_snps=30\nn_trait_snps=5\n")
        assert main(["simulate", "--scenario", str(tiny), "--out", str(tmp_path / "d")]) == 0
        assert main([
            "score",
            "--test-vcf", str(scenario_dir / "test_genotypes.vcf"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--model-dir", str(model_dir),
            "--phenotypes", str(scenario_dir / "phenotypes.tsv"),
            "--out", str(tmp_path / "s"),
        ]) == 0
        assert main(["evaluate", "--report", str(tmp_path / "s" / "report.csv"),
                     "--out", str(tmp_path / "e")]) == 0
        # score adds the k it read from the models
        for command, out in (("simulate", tmp_path / "d"), ("fit", model_dir),
                             ("score", tmp_path / "s"), ("evaluate", tmp_path / "e")):
            lines = (out / "run_config.txt").read_text().splitlines()
            keys = [line.partition("=")[0] for line in lines]
            assert keys == sorted(keys)
            assert set(keys) == {"command"} | SETTINGS[command] | ({"k"} if command == "score" else set())
            assert f"command={command}" in lines


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys=capsys)
        assert code == 2

    # --prs-mode, --strand-policy and --scale were fit flags until each had one value.
    @pytest.mark.parametrize(
        "flag",
        [["--bogus"], ["--prs-mode", "sum"], ["--strand-policy", "keep"], ["--scale", "binomial"]],
    )
    @pytest.mark.parametrize("command", ["fit", "score"])
    def test_unknown_flag_exits_2(self, command, flag, capsys):
        code, _, err = run(command, *flag, capsys=capsys)
        assert code == 2
        assert "unrecognized arguments: " + " ".join(flag) in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_exactly_the_subcommand_flags():
    """README and the parser list the same long flags, so neither outlives the other."""
    readme = README.read_text(encoding="utf-8")
    # pip's flag, in the install instructions
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
    (subcommands,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named - flags == set(), "README names flags no subcommand has"
    assert flags - named == set(), "subcommand flags missing from README"


def test_readme_names_exactly_the_model_formats():
    """README names each model file's current magic line, and no other format."""
    named = set(re.findall(r"prsadjust-[a-z]+ v\d+", README.read_text(encoding="utf-8")))
    assert named == {pca._MODEL_MAGIC, adjust._MODEL_MAGIC}


def test_readme_library_example_runs(scenario_dir, monkeypatch):
    """The README's library example runs as printed, on a simulated cohort."""
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    (example,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    monkeypatch.chdir(scenario_dir.parent)  # the example reads data/...
    names: dict = {}
    exec(compile(example, "README.md", "exec"), names)
    matrix = names["matrix"]
    assert matrix.n_samples == 120  # SMALL_SCENARIO's training split
    assert names["adjusted"].sample_ids == matrix.sample_ids
    assert names["alignment"].absent == ()
