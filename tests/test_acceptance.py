"""End-to-end acceptance checks for the adjusted-PRS pipeline.

Each test covers one named guarantee, prints a single PASS line when it
holds, and pins its tolerances in-line. Frozen values were captured from
the first seeded runs and guard against silent numeric drift.

The frozen values hold bitwise for a fixed numpy/BLAS build under
single-threaded BLAS: they were captured, and are reproduced, with one BLAS
thread, verified with OpenBLAS 0.3.31, numpy 2.4.6 and Python 3.11.7.
Threaded BLAS and LAPACK round differently (at two OpenBLAS threads
criterion 03's cum-EVR moves by 3 ULP), so ``conftest.py`` pins the thread
count before numpy loads.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np

from prsadjust.adjust import apply_adjustment, fit_adjustment
from prsadjust.cli import main as cli_main
from prsadjust.evaluation import high_risk, percentile_threshold, roc_auc
from prsadjust.genotypes import align_effect_alleles, fill_missing_mean, filter_by_panel
from prsadjust.io import parse_panel, parse_phenotypes, parse_vcf, parse_weights
from prsadjust.pca import fit_pca, project, standardize
from prsadjust.scoring import compute_raw_prs
from prsadjust.simulate import (
    DEFAULT_SCENARIO,
    PopulationConfig,
    ScenarioConfig,
    generate_cohort,
    write_scenario,
)
from conftest import BLAS_THREAD_VARS, silhouette_score

# Captured from seeded runs under single-threaded BLAS; equality below is
# bitwise. Verified with OpenBLAS 0.3.31, numpy 2.4.6 and Python 3.11.7;
# conftest.py pins the BLAS thread count to 1 for the whole suite. The
# cum-EVR was re-captured when fit_pca moved from a thin SVD to the Gram
# eigendecomposition with total variance ||X||_F^2 / (n - 1): it moved from
# 0.12213233955706984 by 2.3e-16 relative, with criteria 01 and 02 unchanged.
FROZEN_STRUCTURE_CUM4_EVR = 0.12213233955706987
FROZEN_HELDOUT_AUC_DELTA = 0.12113182261208577

CONFOUNDED_SCENARIO = ScenarioConfig(
    seed=20250817,
    populations=(
        PopulationConfig("POPA", 200, 0.25, -1.2, n_test=200),
        PopulationConfig("POPB", 200, 0.25, -3.3, n_test=200),
        PopulationConfig("POPC", 200, 0.25, -1.8, n_test=200),
    ),
    n_ancestry_snps=2000,
    n_trait_snps=160,
    trait_weight_sd=0.12,
    noise_sd=1.0,
)


def _ok(label):
    print(f"{label}: PASS")


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


@functools.lru_cache(maxsize=1)
def _structure_products():
    cohort = generate_cohort(DEFAULT_SCENARIO)
    panel_matrix, _ = filter_by_panel(cohort.matrix, cohort.panel)
    X, params = standardize(panel_matrix)
    model = fit_pca(X, k_max=4, params=params)
    scores = project(model, panel_matrix)
    return cohort, model, scores


def _score_cohort(matrix, weights, panel, pca_model, adjustment=None):
    panel_matrix, _ = filter_by_panel(matrix, panel)
    pcs = project(pca_model, fill_missing_mean(panel_matrix))
    aligned, _ = align_effect_alleles(matrix, weights)
    raw = compute_raw_prs(fill_missing_mean(aligned), weights)
    if adjustment is None:
        adjustment = fit_adjustment(raw, pcs)
    adjusted = apply_adjustment(adjustment, raw, pcs)
    return pcs, raw, adjusted, adjustment


@functools.lru_cache(maxsize=1)
def _confounded_products():
    cohort = generate_cohort(CONFOUNDED_SCENARIO)
    train = cohort.train_matrix()
    panel_matrix, _ = filter_by_panel(train, cohort.panel)
    X, params = standardize(panel_matrix)
    pca_model = fit_pca(X, k_max=4, params=params)
    pcs, raw, adjusted, adjustment = _score_cohort(
        train, cohort.weights, cohort.panel, pca_model
    )
    return cohort, train, pca_model, pcs, raw, adjusted, adjustment


def test_criterion_01_eigensolver_oracle_equivalence():
    with _Timer() as t:
        rng = np.random.default_rng(101)
        done = 0
        while done < 50:
            n = int(rng.integers(3, 11))
            m = int(rng.integers(2, 11))
            X = rng.normal(size=(n, m))
            X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
            evals, evecs = np.linalg.eigh(np.cov(X, rowvar=False, ddof=1))
            order = np.argsort(evals)[::-1]
            evals, evecs = evals[order], evecs[:, order]
            k = min(n - 1, m)
            if np.min(np.abs(np.diff(evals[:k]))) < 1e-6:
                continue  # eigengap too small for vector comparison; resample
            model = fit_pca(X, k_max=k)
            np.testing.assert_allclose(model.eigenvalues, evals[:k], rtol=1e-8)
            for j in range(k):
                got, want = model.loadings[:, j], evecs[:, j]
                if np.dot(got, want) < 0:  # sign normalization
                    want = -want
                np.testing.assert_allclose(got, want, atol=1e-6)
            done += 1
    assert t.elapsed < 5.0
    _ok("criterion 01 eigensolver oracle equivalence (50 matrices, 1e-8/1e-6)")


def test_criterion_02_pca_invariant_suite():
    with _Timer() as t:
        rng = np.random.default_rng(202)
        X = rng.normal(size=(300, 500))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        k = 299
        model = fit_pca(X, k_max=k)
        W, lam = model.loadings, model.eigenvalues

        gram = W.T @ W
        assert np.abs(gram - np.eye(k)).max() <= 1e-8

        Z = X @ W
        cov_z = np.cov(Z, rowvar=False, ddof=1)
        assert np.abs(cov_z - np.diag(np.diag(cov_z))).max() <= 1e-8

        var_z = Z.var(axis=0, ddof=1)
        assert np.abs(var_z - lam).max() <= 1e-6 * lam.max()

        evals = np.sort(np.linalg.eigh(np.cov(X, rowvar=False, ddof=1))[0])[::-1]
        np.testing.assert_allclose(lam, evals[:k], rtol=1e-8)
    assert t.elapsed < 10.0
    _ok("criterion 02 pca invariants on 300x500 (orthonormal/decorrelated/1e-8)")


def test_criterion_03_population_structure_recovery():
    with _Timer() as t:
        cohort, model, scores = _structure_products()
        labels = [s.population for s in cohort.matrix.samples]
        silhouette = silhouette_score(scores.scores[:, :2], labels)
        assert silhouette > 0.5
        cum4 = float(model.explained_variance_ratio[:4].sum())
        assert cum4 == FROZEN_STRUCTURE_CUM4_EVR, (
            f"cum-EVR {cum4!r} != frozen {FROZEN_STRUCTURE_CUM4_EVR!r} under numpy "
            f"{np.__version__} with "
            + ", ".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
        )
    assert t.elapsed < 60.0
    _ok(
        "criterion 03 structure recovery (silhouette "
        f"{silhouette:.3f} > 0.5, frozen cum-EVR reproduced)"
    )


def test_criterion_04_adjustment_residual_properties():
    with _Timer() as t:
        _, _, _, pcs, raw, adjusted, _ = _confounded_products()
        assert abs(adjusted.scores.mean()) <= 1e-10
        for j in range(4):
            corr = np.corrcoef(adjusted.scores, pcs.scores[:, j])[0, 1]
            assert abs(corr) <= 1e-10

        # noiseless planted model on the same PCs
        beta0, beta = -0.75, np.array([1.5, -2.0, 0.5, 0.25])
        y = beta0 + pcs.scores @ beta
        planted = type(raw)(scores=y, sample_ids=raw.sample_ids)
        model = fit_adjustment(planted, pcs)
        assert abs(model.intercept - beta0) <= 1e-10
        assert np.abs(model.coefficients - beta).max() <= 1e-10
    assert t.elapsed < 5.0
    _ok("criterion 04 adjustment residuals centered/decorrelated at 1e-10")


def _population_deviation(scores, populations):
    scores = np.asarray(scores)
    sd = scores.std(ddof=1)
    grand = scores.mean()
    return max(
        abs(scores[populations == pop].mean() - grand) / sd
        for pop in np.unique(populations)
    )


def test_criterion_05_distribution_flattening():
    with _Timer() as t:
        _, train, _, _, raw, adjusted, _ = _confounded_products()
        populations = np.array([s.population for s in train.samples])
        raw_dev = _population_deviation(raw.scores, populations)
        adj_dev = _population_deviation(adjusted.scores, populations)
        assert raw_dev > 0.5
        assert adj_dev < 0.1
    assert t.elapsed < 30.0
    _ok(
        "criterion 05 flattening (raw deviation "
        f"{raw_dev:.3f} > 0.5, adjusted {adj_dev:.4f} < 0.1)"
    )


def test_criterion_06_high_risk_rebalancing():
    _, train, _, _, raw, adjusted, _ = _confounded_products()
    populations = np.array([s.population for s in train.samples])

    def fractions(scores):
        threshold = percentile_threshold(scores, 76.0)
        flags = high_risk(scores, threshold)
        return np.array(
            [flags[populations == pop].mean() for pop in np.unique(populations)]
        )

    raw_fracs = fractions(raw.scores)
    adj_fracs = fractions(adjusted.scores)
    assert raw_fracs.max() - raw_fracs.min() >= 0.4
    assert np.abs(adj_fracs - 0.24).max() <= 0.08
    _ok(
        "criterion 06 rebalancing (raw spread "
        f"{raw_fracs.max() - raw_fracs.min():.3f} >= 0.4, adjusted within "
        f"{np.abs(adj_fracs - 0.24).max():.3f} of 0.24)"
    )


def test_criterion_07_held_out_auc_improvement():
    with _Timer() as t:
        cohort, _, pca_model, _, _, _, adjustment = _confounded_products()
        test = cohort.test_matrix()
        _, raw, adjusted, _ = _score_cohort(
            test, cohort.weights, cohort.panel, pca_model, adjustment
        )
        labels = [s.obese for s in test.samples]
        auc_raw = roc_auc(raw.scores, labels).auc
        auc_adj = roc_auc(adjusted.scores, labels).auc
        delta = auc_adj - auc_raw
        assert delta >= 0.03
        assert delta == FROZEN_HELDOUT_AUC_DELTA
    assert t.elapsed < 60.0
    _ok(
        "criterion 07 held-out auc improvement "
        f"({auc_raw:.4f} -> {auc_adj:.4f}, delta +{delta:.4f} >= 0.03, frozen)"
    )


def test_criterion_08_auc_pairwise_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(808)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            scores = rng.integers(0, 8, size=n).astype(float)
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            if labels.all() or not labels.any():
                labels[int(rng.integers(0, n))] ^= True
            pos, neg = scores[labels], scores[~labels]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels).auc - expected) <= 1e-12
    assert t.elapsed < 5.0
    _ok("criterion 08 auc equals pairwise statistic (100 tied sets, 1e-12)")


def test_criterion_09_ingestion_round_trip(tmp_path):
    cfg = ScenarioConfig(
        seed=909,
        populations=(
            PopulationConfig("POPA", 60, 0.1, 0.4),
            PopulationConfig("POPB", 60, 0.1, 0.0),
            PopulationConfig("POPC", 60, 0.1, -0.4),
        ),
        n_ancestry_snps=400,
        n_trait_snps=60,
    )
    cohort = generate_cohort(cfg)
    write_scenario(cohort, tmp_path)

    matrix, report = parse_vcf(tmp_path / "genotypes.vcf")
    assert report.rows_skipped == 0
    assert matrix.variant_ids == cohort.matrix.variant_ids
    assert np.array_equal(matrix.dosage, cohort.matrix.dosage)

    weights = parse_weights(tmp_path / "weights.tsv")
    assert weights.rows == cohort.weights.rows
    panel = parse_panel(tmp_path / "panel.txt")
    assert panel.variant_ids == cohort.panel.variant_ids
    phenotypes = parse_phenotypes(tmp_path / "phenotypes.tsv")
    assert [r.bmi for r in phenotypes] == [s.bmi for s in cohort.matrix.samples]

    # hand-written fixture: hard calls, phased separators, missing, dosage field
    vcf_text = (
        "##fileformat=VCFv4.2\n"
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\n"
        "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0/1\t1|1\t0/0\n"
        "1\t200\trs2\tC\tT\t.\t.\t.\tGT\t0|1\t./.\t1/1\n"
        "1\t300\trs3\tG\tA\t.\t.\t.\tGT:DS\t0/1:0.75\t1/1:.\t0/0:2.0\n"
        "1\t400\trs4\tT\tC\t.\t.\t.\tGT\t.|.\t0|0\t1|0\n"
    )
    fixture = tmp_path / "hand.vcf"
    fixture.write_text(vcf_text)
    matrix, report = parse_vcf(fixture)
    assert report.rows_total == report.rows_parsed == 4
    expected = np.array(
        [
            [1.0, 1.0, 0.75, 0.0],
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 1.0],
        ]
    )
    expected_mask = np.zeros((3, 4), dtype=bool)
    expected_mask[1, 1] = True  # ./.
    expected_mask[1, 2] = True  # DS "."
    expected_mask[0, 3] = True  # .|.
    assert np.array_equal(matrix.missing_mask, expected_mask)
    assert np.array_equal(
        np.where(expected_mask, 0.0, matrix.dosage), expected
    )
    _ok("criterion 09 ingestion round-trip exact; hand fixture parses as expected")


def test_criterion_10_end_to_end_determinism(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "seed=11\n"
        "population=POPA:40:0.2:-0.5:40\n"
        "population=POPB:40:0.2:-1.5:40\n"
        "population=POPC:40:0.2:-1.0:40\n"
        "n_ancestry_snps=250\n"
        "n_trait_snps=40\n"
        "trait_weight_sd=0.15\n"
        "noise_sd=1.0\n"
    )

    root = tmp_path / "out"
    data, models, scores, metrics = (
        root / "data", root / "models", root / "scores", root / "metrics",
    )

    def run_chain():
        assert cli_main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
        assert cli_main(
            [
                "fit",
                "--train-vcf", str(data / "train_genotypes.vcf"),
                "--panel", str(data / "panel.txt"),
                "--weights", str(data / "weights.tsv"),
                "--k", "4",
                "--out", str(models),
            ]
        ) == 0
        assert cli_main(
            [
                "score",
                "--test-vcf", str(data / "test_genotypes.vcf"),
                "--weights", str(data / "weights.tsv"),
                "--model-dir", str(models),
                "--phenotypes", str(data / "phenotypes.tsv"),
                "--out", str(scores),
            ]
        ) == 0
        assert cli_main(
            [
                "evaluate",
                "--report", str(scores / "report.csv"),
                "--out", str(metrics),
            ]
        ) == 0
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    # identical invocation twice, into the same paths, snapshotting between
    first = run_chain()
    second = run_chain()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    _ok(
        "criterion 10 end-to-end determinism "
        f"({len(first)} files byte-identical across reruns)"
    )
