"""Synthetic cohort generation under the Balding-Nichols model."""

import io as stdio

import numpy as np
import pytest

from prsadjust.errors import ConfigInvalid
from prsadjust.evaluation import roc_auc
from prsadjust.genotypes import align_effect_alleles, is_strand_ambiguous
from prsadjust.io import parse_vcf
from prsadjust.pca import fit_pca, standardize
from prsadjust.scoring import compute_raw_prs
from prsadjust.simulate import (
    DEFAULT_SCENARIO,
    PopulationConfig,
    ScenarioConfig,
    generate_cohort,
    parse_scenario_config,
    write_scenario,
    write_scenario_config,
)
from conftest import silhouette_score


def _config(**overrides):
    base = dict(
        seed=7,
        populations=(
            PopulationConfig("POPA", 30, 0.1, 0.5),
            PopulationConfig("POPB", 30, 0.1, -0.5),
        ),
        n_ancestry_snps=40,
        n_trait_snps=12,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerate:
    def test_same_seed_reproduces_everything(self):
        a = generate_cohort(_config())
        b = generate_cohort(_config())
        assert np.array_equal(a.matrix.dosage, b.matrix.dosage)
        assert a.matrix.variants == b.matrix.variants
        assert a.weights.rows == b.weights.rows
        assert np.array_equal(a.truth.liabilities, b.truth.liabilities)
        assert [s.bmi for s in a.matrix.samples] == [s.bmi for s in b.matrix.samples]

    def test_different_seeds_differ(self):
        a = generate_cohort(_config(seed=7))
        b = generate_cohort(_config(seed=8))
        assert not np.array_equal(a.matrix.dosage, b.matrix.dosage)

    def test_shapes_and_split(self):
        cohort = generate_cohort(
            _config(
                populations=(
                    PopulationConfig("POPA", 30, 0.1, 0.0, n_test=10),
                    PopulationConfig("POPB", 20, 0.1, 0.0, n_test=5),
                )
            )
        )
        assert cohort.matrix.n_samples == 65
        assert cohort.matrix.n_variants == 52
        assert len(cohort.train_indices) == 50
        assert len(cohort.test_indices) == 15
        assert set(cohort.train_indices).isdisjoint(cohort.test_indices)
        assert cohort.train_matrix().n_samples == 50
        assert cohort.test_matrix().n_samples == 15
        assert cohort.has_test

    def test_panel_covers_exactly_the_ancestry_snps(self):
        cohort = generate_cohort(_config())
        assert len(cohort.panel) == 40
        assert cohort.panel.variant_ids == cohort.matrix.variant_ids[:40]
        trait_ids = set(cohort.weights.variant_ids)
        assert trait_ids.isdisjoint(cohort.panel.variant_ids)
        assert len(cohort.weights) == 12

    def test_alleles_are_never_strand_ambiguous(self):
        cohort = generate_cohort(_config())
        for v in cohort.matrix.variants:
            assert not is_strand_ambiguous(v.ref_allele, v.alt_allele)

    def test_effect_allele_lands_on_both_sides(self):
        cohort = generate_cohort(_config(n_trait_snps=40))
        sides = cohort.truth.effect_is_alt
        assert sides.any() and not sides.all()

    def test_sample_ids_carry_population_label(self):
        cohort = generate_cohort(_config())
        assert cohort.matrix.samples[0].sample_id == "POPA0001"
        assert cohort.matrix.samples[0].population == "POPA"
        assert cohort.matrix.samples[-1].population == "POPB"


class TestGroundTruth:
    def test_prs_reproduces_noiseless_liability(self):
        cfg = _config(noise_sd=0.0, trait_weight_sd=0.3,
                      populations=(PopulationConfig("POPA", 60, 0.1),
                                   PopulationConfig("POPB", 60, 0.1)),
                      n_trait_snps=50)
        cohort = generate_cohort(cfg)
        aligned, report = align_effect_alleles(cohort.matrix, cohort.weights)
        assert report.flipped  # the ref-effect draw path is exercised
        prs = compute_raw_prs(aligned, cohort.weights)
        np.testing.assert_allclose(
            prs.scores, cohort.truth.liabilities, atol=1e-12
        )

    def test_bmi_is_affine_in_liability(self):
        cfg = _config()
        cohort = generate_cohort(cfg)
        bmi = np.array([s.bmi for s in cohort.matrix.samples])
        expected = cfg.bmi_base + cfg.bmi_slope * cohort.truth.liabilities
        assert np.array_equal(bmi, expected)

    def test_obesity_labels_match_bmi(self):
        cohort = generate_cohort(_config())
        for s in cohort.matrix.samples:
            assert s.obese == (s.bmi > 27.0)

    def test_noiseless_scores_classify_perfectly(self):
        cfg = _config(noise_sd=0.0, trait_weight_sd=0.3,
                      populations=(PopulationConfig("POPA", 60, 0.1),
                                   PopulationConfig("POPB", 60, 0.1)),
                      n_trait_snps=50)
        cohort = generate_cohort(cfg)
        labels = [s.obese for s in cohort.matrix.samples]
        assert any(labels) and not all(labels)
        assert roc_auc(cohort.truth.liabilities, labels).auc == 1.0

    def test_population_offsets_shift_liability_means(self):
        cfg = _config(
            populations=(
                PopulationConfig("POPA", 150, 0.05, 2.0),
                PopulationConfig("POPB", 150, 0.05, 0.0),
            ),
            n_trait_snps=30,
        )
        cohort = generate_cohort(cfg)
        pops = np.array([s.population for s in cohort.matrix.samples])
        L = cohort.truth.liabilities
        gap = L[pops == "POPA"].mean() - L[pops == "POPB"].mean()
        # offset difference of 2 plus genetic/noise wobble
        assert gap == pytest.approx(2.0, abs=0.75)

    def test_observed_frequencies_track_population_frequencies(self):
        cfg = ScenarioConfig(
            seed=19,
            populations=(PopulationConfig("POPA", 500, 0.3),),
            n_ancestry_snps=200,
            n_trait_snps=10,
        )
        cohort = generate_cohort(cfg)
        observed = cohort.matrix.dosage.mean(axis=0) / 2.0
        p = cohort.truth.population_freqs["POPA"]
        sigma = np.sqrt(p * (1 - p) / (2 * 500))
        within = np.abs(observed - p) <= 3.0 * sigma
        assert within.mean() >= 0.99

    def test_tiny_fst_gives_no_separable_structure(self):
        cfg = ScenarioConfig(
            seed=5,
            populations=(
                PopulationConfig("POPA", 30, 0.0001),
                PopulationConfig("POPB", 30, 0.0001),
            ),
            n_ancestry_snps=200,
            n_trait_snps=5,
        )
        cohort = generate_cohort(cfg)
        X, params = standardize(cohort.matrix)
        model = fit_pca(X, k_max=2, params=params)
        scores = X @ model.loadings
        labels = [s.population for s in cohort.matrix.samples]
        assert silhouette_score(scores, labels) < 0.15


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(populations=(PopulationConfig("A", 10, 1.5),)), "fst"),
            (dict(populations=(PopulationConfig("A", 10, 0.0),)), "fst"),
            (dict(populations=(PopulationConfig("A", 0, 0.1),)), "n_samples"),
            (dict(populations=()), "population"),
            (dict(n_ancestry_snps=0), "n_ancestry_snps"),
            (dict(n_trait_snps=0), "n_trait_snps"),
            (dict(noise_sd=-1.0), "noise_sd"),
            (dict(trait_weight_sd=-0.1), "trait_weight_sd"),
            (
                dict(
                    populations=(
                        PopulationConfig("A", 10, 0.1),
                        PopulationConfig("A", 10, 0.1),
                    )
                ),
                "label",
            ),
            (
                dict(populations=(PopulationConfig("A", 10, 0.1, n_test=-1),)),
                "n_test",
            ),
            # Each would split a field or line of a file written from the scenario.
            *(
                (dict(populations=(PopulationConfig(label, 10, 0.1),)), "^label: .* holds a tab")
                for label in ("PO\tPA", "PO\nPA", "PO\rPA", "PO:PA")
            ),
            # The scenario reader strips a value's ends, so such a label would not always read back.
            *(
                (dict(populations=(PopulationConfig(label, 10, 0.1),)), "^label: .* whitespace$")
                for label in (" A", "A ", "A\u00a0")
            ),
        ],
    )
    def test_invalid_configs_name_the_field(self, overrides, field):
        base = dict(seed=1, populations=(PopulationConfig("A", 10, 0.1),))
        base.update(overrides)
        with pytest.raises(ConfigInvalid, match=field):
            ScenarioConfig(**base)


class TestScenarioConfigText:
    def test_round_trip(self):
        cfg = _config(
            populations=(
                PopulationConfig("POPA", 30, 0.25, -1.2, n_test=10),
                PopulationConfig("POPB", 40, 0.25, 0.75),
            ),
            trait_weight_sd=0.12,
            noise_sd=1.5,
        )
        buf = stdio.StringIO()
        write_scenario_config(cfg, buf)
        assert parse_scenario_config(stdio.StringIO(buf.getvalue())) == cfg

    def test_default_scenario_round_trips(self):
        buf = stdio.StringIO()
        write_scenario_config(DEFAULT_SCENARIO, buf)
        assert parse_scenario_config(stdio.StringIO(buf.getvalue())) == DEFAULT_SCENARIO

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="mystery"):
            parse_scenario_config(stdio.StringIO("seed=1\nmystery=2\n"))

    # One population line per population is the format; every other key is read once.
    @pytest.mark.parametrize("key, value", [("seed", "2"), ("noise_sd", "1.0")])
    def test_repeated_scalar_key_rejected(self, key, value):
        text = "seed=1\nnoise_sd=1.0\npopulation=A:10:0.1:0\npopulation=B:10:0.1:0\n"
        assert len(parse_scenario_config(stdio.StringIO(text)).populations) == 2
        with pytest.raises(ConfigInvalid, match=f"^{key}: repeated config key$"):
            parse_scenario_config(stdio.StringIO(text + f"{key}={value}\n"))

    def test_population_line_arity_checked(self):
        with pytest.raises(ConfigInvalid):
            parse_scenario_config(stdio.StringIO("seed=1\npopulation=A:10\n"))

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_scenario_config(stdio.StringIO("seed=x\npopulation=A:10:0.1:0\n"))

    # int() and float() would read each of these as a number ("1_2" as 12).
    @pytest.mark.parametrize(
        "text, field",
        [
            ("seed = 1_2\npopulation=A:10:0.1:0\n", "seed"),
            ("seed=1\npopulation=POPA:2_0:0.2:0\n", "population"),
            ("seed=1\npopulation=POPB:+20:0.2:0\n", "population"),
            ("seed=1\npopulation=A:10:0.1:0\nn_ancestry_snps = 5_0\n", "n_ancestry_snps"),
            ("seed=1\npopulation=A:10:0.1:0\nnoise_sd=1_0\n", "noise_sd"),
            ("seed=1\npopulation=A:10:0.1:0:\u0665\n", "population"),
        ],
    )
    def test_numbers_are_read_strictly(self, text, field):
        with pytest.raises(ConfigInvalid, match=f"^{field}: "):
            parse_scenario_config(stdio.StringIO(text))


class TestWriteScenario:
    def test_without_split_writes_four_files(self, tmp_path):
        cohort = generate_cohort(_config())
        paths = write_scenario(cohort, tmp_path)
        assert sorted(p.name for p in paths) == [
            "genotypes.vcf",
            "panel.txt",
            "phenotypes.tsv",
            "weights.tsv",
        ]

    def test_with_split_writes_train_and_test_vcfs(self, tmp_path):
        cohort = generate_cohort(
            _config(
                populations=(
                    PopulationConfig("POPA", 30, 0.1, 0.0, n_test=10),
                    PopulationConfig("POPB", 30, 0.1, 0.0, n_test=10),
                )
            )
        )
        paths = write_scenario(cohort, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "panel.txt",
            "phenotypes.tsv",
            "test_genotypes.vcf",
            "train_genotypes.vcf",
            "weights.tsv",
        ]
        # phenotypes cover every sample, train and test alike
        lines = (tmp_path / "phenotypes.tsv").read_text().splitlines()
        assert len(lines) == 1 + cohort.matrix.n_samples

    def test_written_vcf_parses_back_to_the_same_dosages(self, tmp_path):
        cohort = generate_cohort(_config())
        write_scenario(cohort, tmp_path)
        parsed, report = parse_vcf(tmp_path / "genotypes.vcf")
        assert report.rows_skipped == 0
        assert parsed.variant_ids == cohort.matrix.variant_ids
        assert np.array_equal(parsed.dosage, cohort.matrix.dosage)

    def test_rewrite_is_byte_identical(self, tmp_path):
        cohort = generate_cohort(_config())
        first, second = tmp_path / "a", tmp_path / "b"
        write_scenario(cohort, first)
        write_scenario(cohort, second)
        for name in ("genotypes.vcf", "weights.tsv", "panel.txt", "phenotypes.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
