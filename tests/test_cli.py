"""Command line driver: simulate | fit | score | evaluate."""

import shutil

import numpy as np
import pytest

from prsadjust.cli import main
from prsadjust.io import read_report_csv

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


def run(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # the table reports the whole computed spectrum, not only the kept k
        assert len(lines) >= 5
        cumulative = [float(line.split(",")[3]) for line in lines[1:]]
        assert cumulative == sorted(cumulative)

    def test_rerun_reproduces_model_files_byte_for_byte(self, scenario_dir, tmp_path):
        args = [
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", "4",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("pca_model.txt", "adjustment_model.txt", "explained_variance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_k_auto_selects_by_cumulative_variance(self, scenario_dir, tmp_path, capsys):
        code, out, err = run(
            "fit",
            "--train-vcf", str(scenario_dir / "train_genotypes.vcf"),
            "--panel", str(scenario_dir / "panel.txt"),
            "--weights", str(scenario_dir / "weights.tsv"),
            "--k", "auto", "--cum-threshold", "0.05",
            "--out", str(tmp_path / "m"),
            capsys=capsys,
        )
        assert code == 0
        lines = (tmp_path / "m" / "explained_variance.csv").read_text().splitlines()
        k = len(lines) - 1
        assert k >= 1
        cumulative = float(lines[k].split(",")[3])
        assert cumulative >= 0.05 - 1e-12

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
        assert "auc_delta" in stdout

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
        assert "error:" in err


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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate=1\n")
        code, _, err = run(
            "simulate", "--config", str(config), "--out", str(tmp_path / "d"),
            capsys=capsys,
        )
        assert code == 2
        assert "frobnicate" in err


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys=capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run("fit", "--bogus", capsys=capsys)
        assert code == 2
