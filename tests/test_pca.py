"""Standardization, eigendecomposition, projection, model persistence.

The fitting route is checked against a dense covariance eigensolver so the
two derivations agree independently of how either is computed.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsadjust.errors import (
    ConvergenceFailure,
    DimensionError,
    MissingModelVariants,
    NoVariantsRetained,
)
from prsadjust.genotypes import PanelDefinition, filter_by_panel
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
from conftest import make_matrix


def _fit_matrix(matrix, k_max, scale_mode="sample-sd"):
    X, params = standardize(matrix, scale_mode=scale_mode)
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

    def test_binomial_scale_uses_allele_frequency(self):
        # column mean 1.0 -> p = 0.5 -> scale sqrt(2 * 0.25) = sqrt(0.5)
        m = make_matrix([[0.0], [1.0], [1.0], [2.0]])
        _, params = standardize(m, scale_mode="binomial")
        assert params.scale[0] == pytest.approx(np.sqrt(0.5), rel=1e-15)
        assert params.scale_mode == "binomial"

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


class TestSelectK:
    def _model(self, eigenvalues, total):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        k = len(eigenvalues)
        return PcaModel(
            loadings=np.eye(max(k, 2))[:, :k],
            eigenvalues=eigenvalues,
            explained_variance_ratio=eigenvalues / total,
            total_variance=total,
            n_train=10,
        )

    def test_threshold_hit_exactly_despite_float_cumsum(self):
        # 0.5 + 0.3 accumulates to 0.7999999999999999; the slack absorbs it
        model = self._model([0.5, 0.3, 0.1], total=1.0)
        assert select_k(model, 0.8) == 2

    def test_threshold_above_requires_next_component(self):
        model = self._model([0.5, 0.3, 0.1], total=1.0)
        assert select_k(model, 0.80001) == 3

    def test_first_component_can_suffice(self):
        model = self._model([0.9, 0.05], total=1.0)
        assert select_k(model, 0.5) == 1

    def test_unreachable_threshold_returns_all_and_warns(self, caplog):
        model = self._model([0.5, 0.3, 0.1], total=1.0)
        with caplog.at_level(logging.WARNING):
            assert select_k(model, 0.99) == 3
        assert any("0.99" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_invalid_threshold(self, bad):
        model = self._model([1.0], total=1.0)
        with pytest.raises(ValueError):
            select_k(model, bad)


class TestProject:
    def test_training_scores_reproduced_bitwise(self, rng):
        m = _random_matrix(rng, 30, 15)
        X, params = standardize(m)
        model = fit_pca(X, k_max=5, params=params)
        scores = project(model, m)
        assert np.array_equal(scores.scores, X @ model.loadings)
        assert scores.sample_ids == m.sample_ids
        assert scores.model_fingerprint == pca_model_fingerprint(model)

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

    def test_missing_dosages_rejected(self, rng):
        train = _random_matrix(rng, 20, 4)
        model = _fit_matrix(train, k_max=2)
        holey = make_matrix(train.dosage.copy(), missing=[(0, 1)])
        with pytest.raises(ValueError, match="fill"):
            project(model, holey)


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
        assert serialize_pca_model(model).startswith("prsadjust-pca v1\n")

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
