import numpy as np
import pytest

from quasiherm import (BrokenPhase, NonHermitianMetric, NonPositiveWeight,
                       NotPositive, certify_metric, eigendecompose, hermitize,
                       observability_check, positivity_certificate, qh_residual,
                       spectral_metric)

from conftest import random_diagonalizable


def test_qh_residual_model(model_h, golden_theta):
    # a second valid metric for the same model; oracle: both sides of the
    # intertwining relation equal [[0, 0.64], [0.64, 0]] by direct
    # multiplication
    alt = np.array([[1.0, -0.6j], [0.6j, 1.0]])
    target = np.array([[0.0, 0.64], [0.64, 0.0]])
    assert np.abs(model_h.conj().T @ alt - target).max() <= 1e-15
    assert np.abs(alt @ model_h - target).max() <= 1e-15
    for theta in (alt, golden_theta):
        abs_res, rel_res = qh_residual(model_h, theta)
        assert abs_res <= 1e-14
        assert rel_res <= 1e-14


def test_qh_residual_hermitian_identity():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = b + b.conj().T
    abs_res, _ = qh_residual(h, np.eye(4))
    assert abs_res <= 1e-13


def test_qh_residual_identity_metric_measures_non_hermiticity(model_h):
    # H^dagger - H = diag(-1.2i, 1.2i), Frobenius norm 1.2 * sqrt(2)
    abs_res, _ = qh_residual(model_h, np.eye(2))
    assert abs_res == pytest.approx(1.2 * np.sqrt(2.0), abs=1e-14)


def test_spectral_metric_hermitian_gives_identity():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = b + b.conj().T
    cand = spectral_metric(eigendecompose(h))
    assert np.abs(cand.theta - np.eye(5)).max() <= 1e-12


def test_spectral_metric_model(model_h):
    cand = spectral_metric(eigendecompose(model_h))
    _, rel = qh_residual(model_h, cand.theta)
    assert rel <= 1e-12
    assert cand.min_eig > 0
    assert cand.positive


def test_spectral_metric_weight_homogeneity(model_h):
    s = eigendecompose(model_h)
    one = spectral_metric(s, [1.0, 1.0])
    two = spectral_metric(s, [2.0, 2.0])
    assert np.abs(two.theta - 2.0 * one.theta).max() <= 1e-13


def test_spectral_metric_non_uniqueness(model_h):
    s = eigendecompose(model_h)
    t1 = spectral_metric(s, [1.0, 1.0])
    t2 = spectral_metric(s, [0.5, 1.5])
    assert np.linalg.norm(t1.theta - t2.theta) > 1e-6
    for cand in (t1, t2):
        _, rel = qh_residual(model_h, cand.theta)
        assert rel <= 1e-10
        assert cand.positive


def test_spectral_metric_rejects_complex_spectrum(broken_h):
    with pytest.raises(BrokenPhase):
        spectral_metric(eigendecompose(broken_h))


def test_spectral_metric_rejects_bad_weights(model_h):
    s = eigendecompose(model_h)
    with pytest.raises(NonPositiveWeight):
        spectral_metric(s, [1.0, 0.0])
    with pytest.raises(NonPositiveWeight):
        spectral_metric(s, [1.0, -2.0])


def test_positivity_certificate_examples():
    m = np.array([[1.0, -0.6j], [0.6j, 1.0]])
    min_eig, positive = positivity_certificate(m)
    assert min_eig == pytest.approx(0.4, abs=1e-14)
    assert positive

    min_eig, positive = positivity_certificate(np.eye(3))
    assert min_eig == 1.0 and positive

    min_eig, positive = positivity_certificate(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert min_eig == pytest.approx(-1.0, abs=1e-14)
    assert not positive


def test_positivity_certificate_rejects_non_hermitian():
    with pytest.raises(NonHermitianMetric):
        positivity_certificate(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_identity_metric(model_h):
    assert np.abs(hermitize(model_h, np.eye(2)) - model_h).max() <= 1e-14


def test_hermitize_model(model_h):
    cand = spectral_metric(eigendecompose(model_h))
    h = hermitize(model_h, cand)
    assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)
    # isospectrality oracle: characteristic polynomial gives +-0.8
    w = np.sort(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))
    assert np.abs(w - np.array([-0.8, 0.8])).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_hermitize_random_pairs_isospectral(seed):
    rng = np.random.default_rng(500 + seed)
    dim = int(rng.integers(2, 9))
    h, lam, _ = random_diagonalizable(rng, dim, cond_v=20.0)
    cand = spectral_metric(eigendecompose(h))
    hm = hermitize(h, cand)
    assert np.linalg.norm(hm - hm.conj().T) <= 1e-10 * np.linalg.norm(hm)
    w = np.sort(np.linalg.eigvalsh(0.5 * (hm + hm.conj().T)))
    assert np.abs(w - lam).max() <= 1e-9


def test_hermitize_rejects_indefinite():
    with pytest.raises(NotPositive):
        hermitize(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_observability_model(model_h, golden_theta, golden_charge):
    abs_res, _ = observability_check(model_h, golden_theta)
    assert abs_res <= 1e-14
    # oracle: C^dagger Theta and Theta C both equal the parity matrix
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(golden_charge.conj().T @ golden_theta - p).max() <= 1e-15
    assert np.abs(golden_theta @ golden_charge - p).max() <= 1e-15
    abs_res, _ = observability_check(golden_charge, golden_theta)
    assert abs_res <= 1e-14


def test_observability_generic_failure():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    a[0, 1] += 1.0  # ensure asymmetry
    abs_res, _ = observability_check(a, np.eye(3))
    assert abs_res > 1e-3


def test_certify_metric_condition():
    cand = certify_metric(np.diag([1.0, 4.0]))
    assert cand.condition == pytest.approx(4.0)
    assert cand.max_eig == 4.0
    # an indefinite Theta has no finite condition number
    assert certify_metric(np.diag([-1.0, 4.0])).condition == float("inf")


def test_certificate_keeps_every_eigenvalue():
    rng = np.random.default_rng(7)
    h, _, _ = random_diagonalizable(rng, 12)
    cand = spectral_metric(eigendecompose(h))
    assert cand.eigenvalues.tobytes() == np.linalg.eigvalsh(cand.theta).tobytes()
    assert cand.min_eig == cand.eigenvalues[0]
    assert cand.max_eig == cand.eigenvalues[-1]
    assert cand.positive


def test_eigenvalues_are_taken_once_on_first_read(monkeypatch):
    # a candidate is its checked Theta; the certificate's eigvalsh runs when
    # the eigenvalues are first read, and only then
    calls = []
    original = np.linalg.eigvalsh

    def counted(m):
        calls.append(m)
        return original(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cand = certify_metric(np.diag([1.0, 4.0]))
    assert calls == []
    first = cand.eigenvalues
    assert cand.eigenvalues is first
    assert (cand.min_eig, cand.max_eig, cand.positive) == (1.0, 4.0, True)
    assert len(calls) == 1
