"""Synthetic cohort generation under the Balding-Nichols model."""

import io as stdio
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prsadjust import simulate
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


# Frequencies at the edges of numpy's binomial: 0 draws nothing, 1 and the
# smallest subnormal invert against thresholds of 1 and about 0, and 0.5 and its
# neighbours sit on either side of the fold at p > 0.5.
_EDGE_FREQS = [0.0, 1.0, 0.5, 5e-324, float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0))]


@st.composite
def binomial_calls(draw):
    """(freqs, row count, seed): rows 0, 1, a few, and over two draw blocks."""
    m = draw(st.integers(min_value=0, max_value=10))
    freq = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(_EDGE_FREQS[1:])
    )
    freqs = draw(st.lists(freq, min_size=m, max_size=m))
    if freqs and draw(st.integers(0, 4)) == 0:
        freqs[draw(st.integers(0, m - 1))] = 0.0
    n_rows = draw(st.sampled_from([0, 1, 3, 2 * simulate._DRAW_ROWS + 5]))
    return np.array(freqs, dtype=float), n_rows, draw(st.integers(0, 2**32 - 1))


# PCG64 advances its 128-bit state by state * _PCG_MULTIPLIER + inc and
# outputs rotr64(high ^ low, state >> 122) of the new state.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_drawing(u):
    """A Generator whose next ``random()`` is ``u``, a multiple of 2**-53 in [0, 1)."""
    # A new state with high half 0 outputs its low half unrotated, and
    # random() keeps the top 53 bits of the output.
    new_state, inc = int(u * 2**53) << 11, 1
    state = (new_state - inc) * pow(_PCG_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bits = np.random.PCG64()
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)


class TestGenotypeDraw:
    @settings(max_examples=200, deadline=None)
    @given(binomial_calls())
    def test_equals_generator_binomial_bitwise(self, call):
        freqs, n_rows, seed = call
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        out = np.full((n_rows, len(freqs)), -1.0)
        simulate._draw_genotypes(rng, freqs, out)
        expected = reference.binomial(2, freqs, size=out.shape).astype(np.float64)
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == reference.random()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(_EDGE_FREQS[1:])))
    def test_uniforms_at_the_thresholds_invert_as_numpy_does(self, freq):
        freqs = np.array([freq])
        _, px0, px1, px2 = simulate._binomial2_thresholds(freqs)
        # The grid uniforms either side of each cumulative threshold, or the
        # top two where the last one rounds to 1 or above (numpy may redraw).
        for edge in (px0[0], px0[0] + px1[0], px0[0] + px1[0] + px2[0]):
            below = min(math.floor(edge * 2**53), 2**53 - 2) / 2**53
            for u in (below, below + 2**-53):
                assert _generator_drawing(u).random() == u
                rng, reference = _generator_drawing(u), _generator_drawing(u)
                out = np.empty((1, 1))
                simulate._draw_genotypes(rng, freqs, out)
                assert out[0, 0] == reference.binomial(2, freqs, size=(1, 1))[0, 0]
                assert rng.random() == reference.random()

    def test_redraw_is_detected_on_a_hand_made_uniform(self):
        # At p = 0.7 the rounded thresholds sum below the largest uniform, so
        # numpy's loop would run past X = 2 and draw that call again.
        thresholds = simulate._binomial2_thresholds(np.array([0.7, 0.3]))
        _, px0, px1, px2 = thresholds
        top = np.nextafter(1.0, 0.0)
        assert (top - px0[0]) - px1[0] > px2[0]
        assert not simulate._invert(np.array([[top, 0.5]]), thresholds)
        below = np.array([[0.5, 1.0 - 2**-30]])
        assert simulate._invert(below, thresholds)
        assert below.tolist() == [[1.0, 2.0]]

    def test_a_uniform_numpy_redraws_goes_to_numpy(self):
        top = np.nextafter(1.0, 0.0)
        once, twice = _generator_drawing(top), _generator_drawing(top)
        once.binomial(2, 0.7)
        twice.random(2)
        assert once.bit_generator.state == twice.bit_generator.state  # numpy drew again
        freqs = np.array([0.7, 0.6, 0.05])
        rng, reference = _generator_drawing(top), _generator_drawing(top)
        out = np.full((4, 3), -1.0)
        simulate._draw_genotypes(rng, freqs, out)
        assert out.tobytes() == reference.binomial(2, freqs, size=(4, 3)).astype(float).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_redraw_falls_back_to_numpy_from_the_entry_state(self, monkeypatch):
        invert = simulate._invert
        blocks = []

        def redraw_in_second_block(u, thresholds):
            blocks.append(u.shape[0])
            return invert(u, thresholds) and len(blocks) < 2

        monkeypatch.setattr(simulate, "_invert", redraw_in_second_block)
        freqs = np.random.default_rng(5).uniform(0.05, 0.95, size=9)
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        out = np.full((2 * simulate._DRAW_ROWS + 1, 9), -1.0)
        simulate._draw_genotypes(rng, freqs, out)
        assert len(blocks) == 2
        expected = reference.binomial(2, freqs, size=out.shape).astype(np.float64)
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_cohort_follows_the_documented_draw_order(self):
        cfg = _config(
            populations=(
                PopulationConfig("POPA", 30, 0.1, 0.5, n_test=4),
                PopulationConfig("POPB", 20, 0.3, -0.5),
            )
        )
        cohort = generate_cohort(cfg)
        rng = np.random.default_rng(cfg.seed)
        m = cfg.n_ancestry_snps + cfg.n_trait_snps
        ancestral = rng.uniform(0.05, 0.95, size=m)
        freqs = [
            rng.beta(ancestral * (1.0 - pop.fst) / pop.fst, (1.0 - ancestral) * (1.0 - pop.fst) / pop.fst)
            for pop in cfg.populations
        ]
        calls = [
            rng.binomial(2, f, size=(pop.n_samples + pop.n_test, m))
            for pop, f in zip(cfg.populations, freqs)
        ]
        refs = ["ACGT"[i] for i in rng.integers(0, 4, size=m)]
        alts = [
            {"A": "CG", "C": "AT", "G": "AT", "T": "CG"}[ref][i]
            for ref, i in zip(refs, rng.integers(0, 2, size=m))
        ]
        sexes = rng.integers(0, 2, size=cfg.n_total_samples)
        weights = rng.normal(cfg.trait_weight_mean, cfg.trait_weight_sd, size=cfg.n_trait_snps)
        effect_is_alt = rng.integers(0, 2, size=cfg.n_trait_snps).astype(bool)

        assert cohort.truth.ancestral_freqs.tobytes() == ancestral.tobytes()
        for pop, f in zip(cfg.populations, freqs):
            assert cohort.truth.population_freqs[pop.label].tobytes() == f.tobytes()
        assert cohort.matrix.dosage.tobytes() == np.concatenate(calls).astype(np.float64).tobytes()
        assert [v.ref_allele for v in cohort.matrix.variants] == refs
        assert [v.alt_allele for v in cohort.matrix.variants] == alts
        assert [s.sex for s in cohort.matrix.samples] == [("male", "female")[x] for x in sexes]
        assert [row.weight for row in cohort.weights.rows] == weights.tolist()
        assert np.array_equal(cohort.truth.effect_is_alt, effect_is_alt)


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
