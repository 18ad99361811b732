"""Standardization, eigendecomposition, projection, model persistence.

The fitting route is checked against a dense covariance eigensolver so the
two derivations agree independently of how either is computed.
"""

import functools
import io as stdio
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust import pca
from prsadjust.errors import (
    AllMissingVariant,
    ConvergenceFailure,
    DimensionError,
    MissingModelVariants,
    NoVariantsRetained,
)
from prsadjust.genotypes import PanelDefinition, fill_missing_mean, filter_by_panel
from prsadjust.io import parse_vcf, write_vcf
from prsadjust.pca import (
    PcaModel,
    StandardizationParams,
    fit_pca,
    load_pca_model,
    pca_model_fingerprint,
    project,
    save_pca_model,
    select_k,
    serialize_pca_model,
    standardize,
)
from prsadjust.simulate import PopulationConfig, ScenarioConfig, generate_cohort
from conftest import make_matrix
from krylov_reference import decaying_gram, differing_ks, stored_product_eigenpairs


def _fit_matrix(matrix, k_max):
    X, params = standardize(matrix)
    return fit_pca(X, k_max, params=params)


def _random_matrix(rng, n, m):
    return make_matrix(rng.integers(0, 3, size=(n, m)).astype(float))


def _sign_normalize(W):
    """Make each column's largest-magnitude entry positive."""
    W = W.copy()
    for j in range(W.shape[1]):
        pivot = np.argmax(np.abs(W[:, j]))
        if W[pivot, j] < 0:
            W[:, j] = -W[:, j]
    return W


class TestStandardize:
    def test_sample_sd_hand_case(self):
        m = make_matrix([[0.0], [1.0], [2.0]])
        X, params = standardize(m)
        assert np.array_equal(X.ravel(), [-1.0, 0.0, 1.0])
        assert params.mean[0] == 1.0 and params.scale[0] == 1.0

    def test_constant_column_dropped_and_recorded(self):
        m = make_matrix([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        X, params = standardize(m)
        assert X.shape == (3, 1)
        assert params.variant_ids == ("rs1",)
        assert params.dropped_variants == ("rs2",)

    def test_all_constant_raises(self):
        m = make_matrix([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NoVariantsRetained):
            standardize(m)

    @pytest.mark.parametrize("constant", [None, 4])
    def test_input_unchanged_and_output_exact(self, rng, constant):
        """X is standardized in place in its own copy: the input keeps its bits,
        and X equals the two-temporary expression bitwise."""
        dosage = rng.integers(0, 3, size=(25, 9)).astype(float)
        if constant is not None:
            dosage[:, constant] = 1.0  # dropped
        m = make_matrix(dosage)
        before = m.dosage.copy()
        X, params = standardize(m)
        assert m.dosage.tobytes() == before.tobytes()
        kept = [j for j in range(9) if j != constant]
        expected = (before[:, kept] - params.mean) / params.scale
        assert X.tobytes() == expected.tobytes()
        assert X.flags.f_contiguous == expected.flags.f_contiguous
        assert params.scale == pytest.approx(before[:, kept].std(axis=0, ddof=1), rel=1e-14)

    def test_missing_dosages_rejected(self):
        m = make_matrix([[0.0], [2.0]], missing=[(0, 0)])
        with pytest.raises(ValueError, match="missing"):
            standardize(m)

    def test_columns_have_zero_mean_unit_sd(self, rng):
        X, _ = standardize(_random_matrix(rng, 40, 12))
        assert np.abs(X.mean(axis=0)).max() < 1e-12
        assert np.abs(X.std(axis=0, ddof=1) - 1.0).max() < 1e-12


class TestFitPca:
    def test_two_by_two_hand_case(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        model = fit_pca(X, k_max=1)
        assert model.eigenvalues[0] == pytest.approx(4.0, rel=1e-14)
        assert model.total_variance == pytest.approx(4.0, rel=1e-14)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, rel=1e-14)
        assert model.loadings[:, 0] == pytest.approx([np.sqrt(0.5)] * 2, rel=1e-14)

    def test_matches_dense_covariance_eigensolver(self, rng):
        X = rng.normal(size=(6, 4))
        X -= X.mean(axis=0)
        model = fit_pca(X, k_max=4)
        evals, evecs = np.linalg.eigh(np.cov(X, rowvar=False, ddof=1))
        order = np.argsort(evals)[::-1]
        np.testing.assert_allclose(model.eigenvalues, evals[order], rtol=1e-10)
        np.testing.assert_allclose(
            _sign_normalize(model.loadings),
            _sign_normalize(evecs[:, order]),
            atol=1e-8,
        )

    def test_invariants_on_random_data(self, rng):
        X = rng.normal(size=(60, 40))
        X -= X.mean(axis=0)
        model = fit_pca(X, k_max=10)
        W, lam = model.loadings, model.eigenvalues
        np.testing.assert_allclose(W.T @ W, np.eye(10), atol=1e-10)
        Z = X @ W
        cov_z = np.cov(Z, rowvar=False, ddof=1)
        off = cov_z - np.diag(np.diag(cov_z))
        assert np.abs(off).max() < 1e-8 * lam[0]
        np.testing.assert_allclose(Z.var(axis=0, ddof=1), lam, rtol=1e-10)
        assert np.all(np.diff(lam) <= 1e-12)
        assert model.explained_variance_ratio.sum() <= 1.0 + 1e-12

    def test_eigen_equation_residual_small(self, rng):
        X = rng.normal(size=(30, 8))
        X -= X.mean(axis=0)
        model = fit_pca(X, k_max=5)
        C = (X.T @ X) / (X.shape[0] - 1)
        for j in range(5):
            resid = C @ model.loadings[:, j] - model.eigenvalues[j] * model.loadings[:, j]
            assert np.abs(resid).max() < 1e-10 * model.eigenvalues[0]

    def test_refit_is_bitwise_deterministic(self, rng):
        X = rng.normal(size=(25, 12))
        a = fit_pca(X.copy(), k_max=6)
        b = fit_pca(X.copy(), k_max=6)
        assert np.array_equal(a.loadings, b.loadings)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_convention_pins_largest_entry_positive(self, rng):
        X = rng.normal(size=(20, 7))
        model = fit_pca(X, k_max=4)
        for j in range(4):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    @pytest.mark.parametrize("k_max", [0, 5, -1])
    def test_k_max_bounds(self, rng, k_max):
        X = rng.normal(size=(5, 8))  # limit is min(n - 1, m) = 4
        with pytest.raises(DimensionError):
            fit_pca(X, k_max=k_max)

    def test_single_sample_rejected(self):
        with pytest.raises(DimensionError):
            fit_pca(np.array([[1.0, 2.0]]), k_max=1)

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
    def test_all_zero_input_gives_orthonormal_loadings(self, shape):
        model = fit_pca(np.zeros(shape), k_max=3)
        np.testing.assert_allclose(model.loadings.T @ model.loadings, np.eye(3), atol=1e-15)
        assert np.all(model.eigenvalues == 0.0)
        assert model.total_variance == 0.0
        assert np.all(model.explained_variance_ratio == 0.0)

    def test_solver_failure_raises_convergence_failure(self, rng, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="eigendecomposition"):
            fit_pca(rng.normal(size=(6, 4)), k_max=2)


def _centered_orthonormal(rng, n, r):
    """(n, r) orthonormal columns, each orthogonal to the ones vector."""
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, r))]))
    return q[:, 1:]


@st.composite
def structured_inputs(draw, wide):
    """Centered X of known rank whose nonzero singular values lie within a
    factor of 10 (times the square root of a duplication count) of each
    other, so the dense oracle is accurate to far below the tolerances.

    Returns (X, k_max, rank). ``wide`` picks the shape: n <= m decomposes
    X X^T and maps back, n > m decomposes X^T X.
    """
    kind = draw(st.sampled_from(["product", "duplicate-rows", "duplicate-columns"]))
    if kind == "duplicate-rows":
        distinct = draw(st.integers(2, 6))
        n = distinct * draw(st.integers(1, 3))
        max_rank = distinct - 1
    else:
        n = draw(st.integers(2, 10))
        max_rank = n - 1
    m = draw(st.integers(n, n + 6)) if wide else draw(st.integers(1, n - 1))
    rank = draw(st.integers(0, min(max_rank, m)))
    k_max = draw(st.integers(1, min(n - 1, m)))
    flat = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.full(rank, rng.uniform(0.5, 5.0)) if flat else rng.uniform(1.0, 10.0, rank)
    if kind == "duplicate-columns":
        # every column repeats one of `rank` centered orthogonal columns
        base = _centered_orthonormal(rng, n, rank) * s
        cols = np.concatenate([np.arange(rank), rng.integers(0, max(rank, 1), m - rank)])
        X = base[:, rng.permutation(cols)] if rank else np.zeros((n, m))
    else:
        rows = n if kind == "product" else distinct
        X = (_centered_orthonormal(rng, rows, rank) * s) @ np.linalg.qr(
            rng.normal(size=(m, rank))
        )[0].T
        # each distinct row repeats equally often, so X stays centered
        X = np.repeat(X, n // rows, axis=0)
    return X, k_max, rank


class TestFitPcaProperties:
    """Rank-deficient, all-zero and flat-spectrum inputs on both Gram branches."""

    @pytest.mark.parametrize("wide", [True, False], ids=["n<=m", "n>m"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_invariants_and_dense_oracle(self, wide, data):
        X, k_max, rank = data.draw(structured_inputs(wide))
        n, m = X.shape
        assert (n <= m) == wide
        model = fit_pca(X, k_max=k_max)
        W, lam = model.loadings, model.eigenvalues
        assert np.abs(W.T @ W - np.eye(k_max)).max() <= 1e-8
        assert np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)
        cov_z = np.atleast_2d(np.cov(X @ W, rowvar=False, ddof=1))
        assert np.abs(cov_z - np.diag(np.diag(cov_z))).max() <= 1e-8
        oracle = np.linalg.eigvalsh(np.atleast_2d(np.cov(X, rowvar=False, ddof=1)))[::-1]
        leading = min(rank, k_max)
        np.testing.assert_allclose(lam[:leading], oracle[:leading], rtol=1e-8)
        assert np.all(lam[leading:] <= 1e-12 * max(oracle[0], 1.0))
        again = fit_pca(X.copy(), k_max=k_max)
        assert again.loadings.tobytes() == W.tobytes()
        assert again.eigenvalues.tobytes() == lam.tobytes()
        assert again.total_variance == model.total_variance


def _dense_fit(X, k_max, params=None):
    """fit_pca with the Krylov solver declining, so the dense eigh solves."""
    with mock.patch.object(pca, "_top_eigenpairs", return_value=None):
        return fit_pca(X, k_max, params)


def _record_eigh(monkeypatch):
    """The shapes np.linalg.eigh is called on from now on."""
    shapes = []
    eigh = np.linalg.eigh

    def record(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    return shapes


@functools.lru_cache(maxsize=1)
def _structured_panel():
    """Three populations, 1,300 samples x 1,300 variants: Krylov at k <= 5."""
    scenario = ScenarioConfig(
        seed=31,
        populations=tuple(
            PopulationConfig(f"P{i}", size, 0.1) for i, size in enumerate((434, 433, 433))
        ),
        n_ancestry_snps=1300,
    )
    return _cohort_panel(scenario)


def _max_residual(G, values, vectors):
    """max_j ||G v_j - mu_j v_j|| / mu_1."""
    return np.linalg.norm(G @ vectors - vectors * values, axis=0).max() / values[0]


class TestTopEigenpairs:
    """The block Krylov path of fit_pca against the dense eigh of the same Gram matrix."""

    def test_structured_panel_matches_the_dense_solve(self):
        X, params = _structured_panel()
        assert X.shape == (1300, 1300)
        G = X @ X.T
        values, vectors = pca._top_eigenpairs(G, 5)
        assert _max_residual(G, values, vectors) <= pca._RESIDUAL_TOLERANCE
        model, dense = fit_pca(X, 5, params), _dense_fit(X, 5, params)
        np.testing.assert_allclose(model.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0)
        cosines = np.abs(np.sum(model.loadings[:, :2] * dense.loadings[:, :2], axis=0))
        assert np.all(cosines >= 1 - 1e-12)
        assert select_k(model) == select_k(dense) >= 2

    def test_refit_is_bitwise_deterministic(self):
        X, params = _structured_panel()
        a, b = fit_pca(X, 5, params), fit_pca(X.copy(), 5, params)
        assert serialize_pca_model(a) == serialize_pca_model(b)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.frobenius_sq == b.frobenius_sq

    @pytest.mark.parametrize("panel", ["duplicated-columns", "iid"])
    def test_rank_deficient_and_unstructured_panels_match_the_dense_solve(self, monkeypatch, panel):
        rng = np.random.default_rng(17)
        if panel == "duplicated-columns":
            # rank 3 < k_max, wide, so the map-back completes the loadings
            base = rng.normal(size=(1250, 3))
            X = (base - base.mean(axis=0))[:, rng.integers(0, 3, size=1300)]
        else:
            X = rng.binomial(2, 0.3, size=(1300, 1250)).astype(float)
            X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        shapes = _record_eigh(monkeypatch)
        model = fit_pca(X, 5)
        assert (1250, 1250) not in shapes
        dense = _dense_fit(X, 5)
        lam = dense.eigenvalues
        np.testing.assert_allclose(model.eigenvalues, lam, rtol=1e-12, atol=1e-12 * lam[0])
        W = model.loadings
        assert np.abs(W.T @ W - np.eye(5)).max() <= 1e-10

    @pytest.mark.parametrize("n, m, k_max, krylov", [(1300, 1300, 5, True), (601, 600, 4, False)])
    def test_dense_solve_runs_only_below_the_crossover(self, monkeypatch, n, m, k_max, krylov):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(n, m))
        shapes = _record_eigh(monkeypatch)
        fit_pca(X - X.mean(axis=0), k_max)
        full = [shape for shape in shapes if shape == (min(n, m), min(n, m))]
        assert full == ([] if krylov else [(m, m)])

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_matches_the_stored_product_solver_bitwise(self, monkeypatch, k):
        # An order that is no multiple of 8: at k = 9 (12-column blocks) a C-ordered
        # product, gram @ step, then rounds otherwise at 1 thread, so this tells them apart.
        G = decaying_gram(500)
        shapes = _record_eigh(monkeypatch)
        with mock.patch.object(pca, "_KRYLOV_MIN_BLOCKS", 1):
            values, vectors = pca._top_eigenpairs(G, k)
            checks = len(shapes)
            reference = stored_product_eigenpairs(G, k)
        assert checks >= 4  # converges at a later check, not the first
        assert values.tobytes() == reference[0].tobytes()
        assert vectors.tobytes() == reference[1].tobytes()

    def test_matches_the_stored_product_solver_bitwise_at_two_blas_threads(self):
        """The same comparison in a process whose BLAS runs two threads, the
        benchmark's count: the suite's own process pinned one before numpy loaded."""
        tests = Path(__file__).resolve().parent
        env = {
            **os.environ,
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"),
            "PYTHONPATH": os.pathsep.join(
                [str(Path(pca.__file__).resolve().parents[1]), str(tests), os.environ.get("PYTHONPATH", "")]
            ),
        }
        script = "from krylov_reference import differing_ks\nprint(differing_ks(500, [1, 3, 5, 9]))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_workspace_is_the_basis_and_one_product_block(self):
        """The solver's traced peak stays within 1.25x its basis.

        Besides the basis Q it allocates one product block, the Ritz matrix at
        the columns built and the k Ritz vectors; keeping every product block
        G Q beside Q, as the reference does, takes 2.5x.
        """
        G, k = decaying_gram(1200), 5  # a basis of 75 blocks of 8 columns: 1200 x 600
        basis_bytes = 1200 * 600 * 8
        peaks = []
        for solve in (pca._top_eigenpairs, stored_product_eigenpairs):
            tracemalloc.start()
            try:
                assert solve(G, k) is not None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 * basis_bytes < peaks[1]

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(16, 64),
        k=st.integers(1, 4),
        rank=st.one_of(st.integers(0, 8), st.integers(0, 64)),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returned_pairs_meet_the_residual_rule(self, order, k, rank, flat, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, order)
        scales = np.ones(rank) if flat else rng.uniform(0.1, 10.0, rank)
        A = rng.normal(size=(order, rank)) * scales
        G = A @ A.T
        with mock.patch.object(pca, "_KRYLOV_MIN_BLOCKS", 1):
            top = pca._top_eigenpairs(G, k)
        if top is None:
            return
        values, vectors = top
        leading = np.linalg.eigvalsh(G)[::-1][:k]
        if values[0] > 0:
            # the rule as the solver checks it, on the same product G @ vectors
            residual = np.linalg.norm(G @ vectors - vectors * values, axis=0)
            assert np.all(residual <= pca._RESIDUAL_TOLERANCE * values[0])
        np.testing.assert_allclose(values, leading, rtol=0, atol=1e-12 * max(leading[0], 1e-300))
        assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12


def _tracy_widom_k_reference(X, k_max):
    """select_k's rule, computed from the full spectrum of the covariance."""
    n, m = X.shape
    spectrum = np.linalg.eigvalsh(X.T @ X / (n - 1))[::-1][: min(n - 1, m)]
    significant = 0
    for j in range(k_max):
        tail = spectrum[j:]
        q, s1, s2 = tail.size, tail.sum(), np.square(tail).sum()
        if q < 3 or (q - 1) * s2 - s1**2 <= 0:
            break
        n_eff = (q + 1) * s1**2 / ((q - 1) * s2 - s1**2)
        if n_eff <= 1:
            break
        mu = (np.sqrt(n_eff - 1) + np.sqrt(q)) ** 2 / n_eff
        sigma = (np.sqrt(n_eff - 1) + np.sqrt(q)) / n_eff * np.cbrt(
            1 / np.sqrt(n_eff - 1) + 1 / np.sqrt(q)
        )
        if (q * tail[0] / s1 - mu) / sigma <= 0.9793:
            break
        significant = j + 1
    return max(1, significant)


def _cohort_panel(scenario):
    cohort = generate_cohort(scenario)
    panel_matrix, _ = filter_by_panel(cohort.matrix, cohort.panel)
    return standardize(fill_missing_mean(panel_matrix))


class TestSelectK:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_population_keeps_one(self, seed):
        scenario = ScenarioConfig(
            seed=seed, populations=(PopulationConfig("POPA", 500, 0.1),), n_ancestry_snps=800
        )
        X, params = _cohort_panel(scenario)
        assert select_k(fit_pca(X, 20, params)) == 1

    @pytest.mark.parametrize(
        "n_pops, n_each, n_snps, fst, seed",
        [
            (3, 60, 400, 0.1, 1),
            (4, 50, 300, 0.05, 2),
            (2, 40, 600, 0.02, 3),
            (5, 30, 120, 0.15, 4),
            (3, 150, 200, 0.01, 5),
            (1, 90, 250, 0.1, 6),
        ],
    )
    def test_matches_full_spectrum_reference(self, n_pops, n_each, n_snps, fst, seed):
        scenario = ScenarioConfig(
            seed=seed,
            populations=tuple(PopulationConfig(f"P{i}", n_each, fst) for i in range(n_pops)),
            n_ancestry_snps=n_snps,
        )
        X, params = _cohort_panel(scenario)
        model = fit_pca(X, min(20, X.shape[1]), params)
        assert select_k(model) == _tracy_widom_k_reference(X, model.k)

    def test_every_component_significant_keeps_all_and_warns(self, caplog):
        scenario = ScenarioConfig(
            seed=7,
            populations=tuple(PopulationConfig(f"P{i}", 60, 0.2) for i in range(4)),
            n_ancestry_snps=500,
        )
        X, params = _cohort_panel(scenario)
        with caplog.at_level(logging.WARNING):
            assert select_k(fit_pca(X, 2, params)) == 2
        assert any("Tracy-Widom" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("n, m", [(30, 12), (12, 30)])
    def test_fit_records_the_frobenius_norm_and_truncate_keeps_it(self, rng, n, m):
        X, params = standardize(_random_matrix(rng, n, m))
        model = fit_pca(X, 5, params)
        C = X.T @ X / (n - 1)
        np.testing.assert_allclose(model.frobenius_sq, np.square(C).sum(), rtol=1e-12)
        assert model.truncate(2).frobenius_sq == model.frobenius_sq

    def test_model_read_from_file_is_refused(self, rng, tmp_path):
        X, params = standardize(_random_matrix(rng, 30, 12))
        save_pca_model(fit_pca(X, 5, params), tmp_path / "pca_model.txt")
        loaded = load_pca_model(tmp_path / "pca_model.txt")
        assert loaded.frobenius_sq is None
        with pytest.raises(ValueError, match="read from file"):
            select_k(loaded)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(["random", "one component", "flat", "duplicated", "n=3"]),
        n=st.integers(4, 14),
        m=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returns_a_count_in_range_without_warnings(self, shape, n, m, seed):
        rng = np.random.default_rng(seed)
        n = 3 if shape == "n=3" else n
        X = rng.integers(0, 3, size=(n, m)).astype(float)
        X = X - X.mean(axis=0)
        if shape == "flat":
            # orthonormal columns spanning centered ones, so every eigenvalue of C is 1
            A = rng.normal(size=(n, min(m, n - 1)))
            X = np.linalg.qr(A - A.mean(axis=0))[0] * np.sqrt(n - 1)
        if shape == "duplicated":
            X = np.hstack([X, X[:, : max(1, m // 2)]])
        k_max = 1 if shape == "one component" else min(n - 1, X.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_pca(X, k_max)
            k = select_k(model)
        assert type(k) is int and 1 <= k <= model.k


class TestProject:
    @pytest.mark.parametrize("k_max", [2, 3, 5])
    def test_training_scores_reproduced_bitwise(self, rng, k_max):
        """project standardizes the training rows to X's bits and takes the
        same 128-row products with the loadings as fit's training scores."""
        m = _random_matrix(rng, 300, 400)
        X, params = standardize(m)
        model = fit_pca(X, k_max=k_max, params=params)
        scores = project(model, m)
        training = pca._pc_scores(
            model.loadings, len(X), lambda out, start: np.copyto(out, X[start : start + len(out)])
        )
        assert np.array_equal(scores.scores, training)
        assert scores.sample_ids == m.sample_ids
        assert scores.model_fingerprint == pca_model_fingerprint(model)

    @pytest.mark.parametrize("missing_rate", [0.0, 0.02])
    def test_memory_is_a_few_row_blocks(self, rng, missing_rate):
        """Beyond the scores it returns, project allocates a few blocks of
        128 rows of the model's columns, not copies of the cohort's, also
        where it fills missing calls."""
        matrix = _random_matrix(rng, 2000, 300)
        model = _fit_matrix(matrix, k_max=4)
        matrix.missing_mask[...] = rng.random(matrix.dosage.shape) < missing_rate
        assert matrix.missing_mask.any() == (missing_rate > 0)
        tracemalloc.start()
        try:
            scores = project(model, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - scores.scores.nbytes <= 3 * (pca._SCORE_BLOCK * 300 * 8)

    def test_uses_training_moments_not_test_moments(self, rng):
        train = _random_matrix(rng, 25, 6)
        model = _fit_matrix(train, k_max=3)
        # a test cohort whose own column means are very different
        shifted = make_matrix(np.full((4, 6), 2.0) - 1e-9)
        scores = project(model, shifted)
        expected = (
            (shifted.dosage[:, [int(c[2:]) - 1 for c in model.params.variant_ids]]
             - model.params.mean) / model.params.scale
        ) @ model.loadings
        assert np.array_equal(scores.scores, expected)

    def test_extra_and_reordered_variants_are_handled(self, rng):
        train = _random_matrix(rng, 20, 5)
        model = _fit_matrix(train, k_max=2)
        # same data with columns permuted and one extra variant appended
        perm = [3, 0, 4, 1, 2]
        dosage = np.hstack([train.dosage[:, perm], np.ones((20, 1))])
        reshuffled = make_matrix(
            dosage, variant_ids=[f"rs{j + 1}" for j in perm] + ["rs99"]
        )
        assert np.array_equal(
            project(model, reshuffled).scores, project(model, train).scores
        )

    def test_missing_model_variants_raise(self, rng):
        train = _random_matrix(rng, 20, 5)
        model = _fit_matrix(train, k_max=2)
        panel = PanelDefinition(name="p", variant_ids=("rs1", "rs2"))
        subset, _ = filter_by_panel(train, panel)
        with pytest.raises(MissingModelVariants) as exc:
            project(model, subset)
        assert set(exc.value.variant_ids) == {"rs3", "rs4", "rs5"}

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 300),
        m=st.integers(2, 300),
        extra=st.integers(0, 5),
        rate=st.sampled_from([0.01, 0.1, 0.5]),
        dosages=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fills_missing_calls_as_fill_missing_mean(self, n, m, extra, rate, dosages, seed):
        """project on a parsed VCF with missing calls gives bitwise the scores
        and fingerprint of projecting its filled panel columns."""
        rng = np.random.default_rng(seed)
        model = _fit_matrix(_random_matrix(rng, 40, m), k_max=2)
        calls = rng.integers(0, 3, size=(n, m + extra)).astype(float)
        if dosages:
            calls = np.round(np.clip(calls + rng.normal(0.0, 0.1, calls.shape), 0.0, 2.0), 3)
        missing = rng.random(calls.shape) < rate
        missing[rng.integers(0, n, size=m + extra), np.arange(m + extra)] = False
        order = rng.permutation(m + extra)
        cohort = make_matrix(
            np.where(missing, 0.0, calls)[:, order],
            variant_ids=[f"rs{j + 1}" for j in order],
            missing=zip(*np.nonzero(missing[:, order])),
        )
        text = stdio.StringIO()
        write_vcf(cohort, text)
        parsed, _ = parse_vcf(stdio.StringIO(text.getvalue()))
        panel = PanelDefinition(name="model", variant_ids=model.params.variant_ids)
        filled = fill_missing_mean(filter_by_panel(parsed, panel)[0])
        got, want = project(model, parsed), project(model, filled)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.sample_ids == want.sample_ids
        assert got.model_fingerprint == want.model_fingerprint

    def test_model_variant_without_an_observed_call_raises(self, rng):
        train = _random_matrix(rng, 20, 4)
        model = _fit_matrix(train, k_max=2)
        holey = make_matrix(train.dosage.copy(), missing=[(i, 2) for i in range(20)])
        with pytest.raises(AllMissingVariant, match="variant rs3 has no observed dosages"):
            project(model, holey)
        with pytest.raises(AllMissingVariant, match="variant rs3 has no observed dosages"):
            fill_missing_mean(holey)

    def test_every_model_variant_without_an_observed_call_is_counted(self, rng):
        """project names the first wholly missing model column and counts all
        of them, as fill_missing_mean does, though they lie far apart."""
        train = _random_matrix(rng, 200, 400)
        model = _fit_matrix(train, k_max=2)
        missing = rng.random(train.dosage.shape) < 0.02
        missing[:, [5, 390]] = True
        holey = make_matrix(train.dosage.copy(), missing=zip(*np.nonzero(missing)))
        with pytest.raises(AllMissingVariant) as projected:
            project(model, holey)
        with pytest.raises(AllMissingVariant) as filled:
            fill_missing_mean(holey)
        message = "variant rs6 has no observed dosages (2 variants affected)"
        assert str(projected.value) == str(filled.value) == message


class TestPersistence:
    def test_round_trip_is_bitwise(self, rng, tmp_path):
        model = _fit_matrix(_random_matrix(rng, 30, 10), k_max=4)
        path = tmp_path / "pca_model.txt"
        save_pca_model(model, path)
        loaded = load_pca_model(path)
        assert np.array_equal(loaded.loadings, model.loadings)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert np.array_equal(loaded.explained_variance_ratio, model.explained_variance_ratio)
        assert loaded.total_variance == model.total_variance
        assert np.array_equal(loaded.params.mean, model.params.mean)
        assert np.array_equal(loaded.params.scale, model.params.scale)
        assert loaded.params.variant_ids == model.params.variant_ids

    def test_fingerprint_survives_round_trip(self, rng, tmp_path):
        model = _fit_matrix(_random_matrix(rng, 30, 10), k_max=4)
        path = tmp_path / "pca_model.txt"
        save_pca_model(model, path)
        assert pca_model_fingerprint(load_pca_model(path)) == pca_model_fingerprint(model)

    def test_loaded_model_projects_identically(self, rng, tmp_path):
        m = _random_matrix(rng, 30, 10)
        model = _fit_matrix(m, k_max=4)
        path = tmp_path / "pca_model.txt"
        save_pca_model(model, path)
        assert np.array_equal(project(load_pca_model(path), m).scores, project(model, m).scores)

    def test_serialized_text_is_stable(self, rng):
        model = _fit_matrix(_random_matrix(rng, 12, 6), k_max=3)
        assert serialize_pca_model(model) == serialize_pca_model(model)
        assert serialize_pca_model(model).startswith("prsadjust-pca v3\n")

    def test_truncate_matches_smaller_projection(self, rng):
        m = _random_matrix(rng, 30, 10)
        model = _fit_matrix(m, k_max=5)
        small = model.truncate(2)
        assert np.array_equal(project(small, m).scores, project(model, m).scores[:, :2])
        assert pca_model_fingerprint(small) != pca_model_fingerprint(model)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "pca_model.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_pca_model(path)

    def test_dropped_variants_survive_round_trip(self, tmp_path, rng):
        dosage = rng.integers(0, 3, size=(10, 4)).astype(float)
        dosage[:, 2] = 1.0  # constant -> dropped during standardization
        model = _fit_matrix(make_matrix(dosage), k_max=2)
        assert model.params.dropped_variants == ("rs3",)
        path = tmp_path / "pca_model.txt"
        save_pca_model(model, path)
        assert load_pca_model(path).params.dropped_variants == ("rs3",)
