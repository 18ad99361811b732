"""PC regression and residual adjustment.

The coefficient path is validated against the Moore-Penrose pseudoinverse,
which solves the same least-squares problem by an independent route.
"""

import numpy as np
import pytest

from prsadjust.adjust import (
    AdjustmentModel,
    apply_adjustment,
    fit_adjustment,
    load_adjustment_model,
    save_adjustment_model,
    serialize_adjustment_model,
)
from prsadjust.errors import DimensionError, ModelMismatch, RankDeficient
from prsadjust.pca import PcScores
from prsadjust.scoring import PrsVector


def _prs(scores, ids=None):
    scores = np.asarray(scores, dtype=float)
    ids = tuple(ids or (f"S{i + 1}" for i in range(len(scores))))
    return PrsVector(scores=scores, sample_ids=ids)


def _pcs(Z, ids=None, fingerprint="a" * 64):
    Z = np.asarray(Z, dtype=float)
    ids = tuple(ids or (f"S{i + 1}" for i in range(Z.shape[0])))
    return PcScores(scores=Z, sample_ids=ids, model_fingerprint=fingerprint)


def test_recovers_planted_model_exactly(rng):
    Z = rng.normal(size=(40, 3))
    beta0, beta = 0.5, np.array([2.0, -1.0, 0.25])
    raw = _prs(beta0 + Z @ beta)
    model = fit_adjustment(raw, _pcs(Z))
    assert abs(model.intercept - beta0) < 1e-10
    np.testing.assert_allclose(model.coefficients, beta, atol=1e-10)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)
    adjusted = apply_adjustment(model, raw, _pcs(Z))
    assert np.abs(adjusted.scores).max() < 1e-10


def test_residuals_center_and_decorrelate(rng):
    Z = rng.normal(size=(120, 4))
    raw = _prs(3.0 + Z @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=120))
    model = fit_adjustment(raw, _pcs(Z))
    adjusted = apply_adjustment(model, raw, _pcs(Z))
    assert abs(adjusted.scores.mean()) < 1e-10
    for j in range(4):
        assert abs(np.corrcoef(adjusted.scores, Z[:, j])[0, 1]) < 1e-10


def test_matches_pseudoinverse_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(1, 6))
        Z = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        model = fit_adjustment(_prs(y), _pcs(Z))
        design = np.hstack([np.ones((n, 1)), Z])
        ref = np.linalg.pinv(design) @ y
        assert abs(model.intercept - ref[0]) < 1e-8
        np.testing.assert_allclose(model.coefficients, ref[1:], atol=1e-8)


def test_saturated_fit_interpolates(rng):
    # n == k + 1 leaves zero residual degrees of freedom but must still solve
    Z = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    model = fit_adjustment(_prs(y), _pcs(Z))
    adjusted = apply_adjustment(model, _prs(y), _pcs(Z))
    assert np.abs(adjusted.scores).max() < 1e-8


def test_too_few_samples_rejected(rng):
    Z = rng.normal(size=(3, 3))
    with pytest.raises(DimensionError):
        fit_adjustment(_prs(rng.normal(size=3)), _pcs(Z))


def test_duplicate_pc_columns_are_rank_deficient(rng):
    col = rng.normal(size=(20, 1))
    Z = np.hstack([col, col])
    with pytest.raises(RankDeficient):
        fit_adjustment(_prs(rng.normal(size=20)), _pcs(Z))


def test_sample_order_must_agree(rng):
    Z = rng.normal(size=(5, 2))
    raw = _prs(rng.normal(size=5), ids=["S9", "S2", "S3", "S4", "S5"])
    with pytest.raises(ValueError, match="sample"):
        fit_adjustment(raw, _pcs(Z))


def test_apply_rejects_foreign_pc_scores(rng):
    Z = rng.normal(size=(10, 2))
    raw = _prs(rng.normal(size=10))
    model = fit_adjustment(raw, _pcs(Z, fingerprint="a" * 64))
    with pytest.raises(ModelMismatch):
        apply_adjustment(model, raw, _pcs(Z, fingerprint="b" * 64))


def test_apply_rejects_wrong_component_count(rng):
    Z = rng.normal(size=(10, 2))
    raw = _prs(rng.normal(size=10))
    model = fit_adjustment(raw, _pcs(Z))
    with pytest.raises(DimensionError):
        apply_adjustment(model, raw, _pcs(rng.normal(size=(10, 3))))


def test_zero_coefficients_subtract_only_intercept():
    model = AdjustmentModel(
        intercept=1.5, coefficients=np.zeros(2), r_squared=0.0, n_train=10,
        pca_fingerprint="c" * 64,
    )
    raw = _prs([2.5, 1.5, 0.5])
    adjusted = apply_adjustment(model, raw, _pcs(np.zeros((3, 2)), fingerprint="c" * 64))
    assert list(adjusted.scores) == [1.0, 0.0, -1.0]
    assert adjusted.sample_ids == raw.sample_ids


def test_constant_scores_fit_cleanly(rng):
    Z = rng.normal(size=(12, 2))
    model = fit_adjustment(_prs(np.full(12, 2.0)), _pcs(Z))
    assert np.isfinite(model.r_squared)
    adjusted = apply_adjustment(model, _prs(np.full(12, 2.0)), _pcs(Z))
    assert np.abs(adjusted.scores).max() < 1e-10


def test_persistence_round_trip_is_exact(rng, tmp_path):
    Z = rng.normal(size=(30, 4))
    raw = _prs(rng.normal(size=30))
    model = fit_adjustment(raw, _pcs(Z))
    path = tmp_path / "adjustment_model.txt"
    save_adjustment_model(model, path)
    loaded = load_adjustment_model(path)
    assert loaded.intercept == model.intercept
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert loaded.r_squared == model.r_squared
    assert loaded.n_train == model.n_train
    assert loaded.pca_fingerprint == model.pca_fingerprint


def test_model_stores_no_recipe(rng):
    model = fit_adjustment(_prs(rng.normal(size=12)), _pcs(rng.normal(size=(12, 2))))
    lines = serialize_adjustment_model(model).splitlines()
    assert lines[0] == "prsadjust-adjust v4"
    assert lines[-1] == "pca_fingerprint " + "a" * 64


@pytest.mark.parametrize("fingerprint", [".", "a" * 63, "a" * 65, "A" * 64, "g" * 64])
def test_model_must_name_its_pca_model(fingerprint):
    with pytest.raises(ValueError, match="not 64 lowercase hex digits"):
        AdjustmentModel(0.25, np.array([1.0]), 0.5, 9, fingerprint)


def test_corrupt_file_rejected(tmp_path):
    path = tmp_path / "adjustment_model.txt"
    path.write_text("garbage\n")
    with pytest.raises(ValueError):
        load_adjustment_model(path)


def _two_pc_model_lines():
    model = AdjustmentModel(
        intercept=0.25, coefficients=np.array([1.0, -2.0]), r_squared=0.5, n_train=9,
        pca_fingerprint="a" * 64,
    )
    return serialize_adjustment_model(model).splitlines()


@pytest.mark.parametrize(
    "key",
    ["k", "n_train", "intercept", "coefficients", "r_squared", "pca_fingerprint"],
)
def test_missing_key_is_named(key, tmp_path):
    lines = _two_pc_model_lines()
    path = tmp_path / "adjustment_model.txt"
    path.write_text("\n".join(line for line in lines if line.split(" ")[0] != key) + "\n")
    with pytest.raises(ValueError, match=f"no '{key}' line"):
        load_adjustment_model(path)


# An older file whose magic line was edited to v4 still carries its recipe lines.
@pytest.mark.parametrize(
    "extra, message",
    [
        ("prs_mode mean", "unknown 'prs_mode' line"),
        ("prs_mode sum", "unknown 'prs_mode' line"),
        ("strand_policy exclude", "unknown 'strand_policy' line"),
        ("strand_policy keep", "unknown 'strand_policy' line"),
        ("intercept 0.5", "repeats its 'intercept' line"),
    ],
)
def test_unknown_or_repeated_key_is_named(extra, message, tmp_path):
    path = tmp_path / "adjustment_model.txt"
    path.write_text("\n".join(_two_pc_model_lines() + [extra]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_adjustment_model(path)
