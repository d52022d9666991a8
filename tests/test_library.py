import math
import warnings

import numpy as np
import pytest

from reference import apply_product_unitary, haar_unitary, reduced_density
from supneg import library, measures
from supneg.states import (
    Bipartition,
    bipartitions,
    matricize,
    singular_values,
)

# Calibration constant measured once from this module's own sampler
# (seeds 0-999, dims [2,2,2], cut A); the closed-form Haar average of the
# reduced purity is (d_A + d_BC) / (d_A * d_BC + 1) = 2/3 for these dims.
FROZEN_HAAR_PURITY_MEAN = 0.662722075711222


def test_ghz_qubits_amplitudes(ghz):
    expected = np.zeros(8, dtype=complex)
    expected[[0, 7]] = 1 / np.sqrt(2)
    np.testing.assert_allclose(ghz.amplitudes, expected)


def test_ghz_qutrits_schmidt_flat():
    g3 = library.ghz(3)
    for cut in bipartitions(g3):
        lam = singular_values([(g3, cut)])[0] ** 2
        np.testing.assert_allclose(lam, [1 / 3] * 3, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ghz_normalized(d):
    assert library.ghz(d).norm_sq == pytest.approx(1.0, abs=1e-12)


def test_ghz_rejects_small_dimension():
    with pytest.raises(ValueError):
        library.ghz(1)


def test_w_amplitude_table(w):
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(w.amplitudes, expected)


def test_w_reduced_density(w):
    rho = reduced_density(w, bipartitions(w)[0])
    np.testing.assert_allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-15)


def test_w_permutation_symmetric(w):
    t = w.tensor()
    for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        np.testing.assert_array_equal(np.transpose(t, perm).reshape(-1), w.amplitudes)


# ---------------------------------------------------------------- z family


def test_z_family_endpoints():
    spec1 = library.z_family(1.0)
    chi1 = spec1.superposed()
    np.testing.assert_allclose(chi1.amplitudes, library.ghz(2).amplitudes)

    phi = 1.2
    spec0 = library.z_family(0.0, phi=phi)
    chi0 = spec0.superposed()
    np.testing.assert_allclose(
        chi0.amplitudes, np.exp(1j * phi) * library.w_state().amplitudes
    )
    # global phase leaves every measure unchanged
    from supneg.states import normalize

    normalized, _ = normalize(chi0)
    assert measures.measure_report(normalized).n_gme == pytest.approx(
        measures.measure_report(library.w_state()).n_gme, abs=1e-12
    )


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.77, 1.0])
def test_z_family_unit_coefficients_and_norm(p):
    spec = library.z_family(p, phi=0.4)
    assert abs(spec.a1) ** 2 + abs(spec.a2) ** 2 == pytest.approx(1.0, abs=1e-14)
    assert spec.superposed().norm_sq == pytest.approx(1.0, abs=1e-12)


def test_z_family_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got 1.5"):
        library.z_family(1.5)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_z_family_rejects_a_non_finite_phase(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before np.exp could warn
        with pytest.raises(ValueError, match=r"phi must be finite"):
            library.z_family(0.3, phi)


# ------------------------------------------------------------ haar sampler


def test_haar_random_deterministic():
    a = library.haar_random([2, 2, 2], seed=123)
    b = library.haar_random([2, 2, 2], seed=123)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = library.haar_random([2, 2, 2], seed=124)
    assert np.abs(a.amplitudes - c.amplitudes).max() > 1e-3


def test_haar_random_normalized():
    for seed in range(10):
        assert library.haar_random([3, 3, 3], seed).norm_sq == pytest.approx(
            1.0, abs=1e-12
        )


def test_haar_purity_calibration():
    vals = []
    for seed in range(1000):
        s = library.haar_random([2, 2, 2], seed)
        rho = reduced_density(s, bipartitions(s)[0])
        vals.append(float((np.abs(rho) ** 2).sum()))
    mean = float(np.mean(vals))
    assert mean == pytest.approx(FROZEN_HAAR_PURITY_MEAN, abs=1e-12)
    assert mean == pytest.approx(2 / 3, abs=0.02)


# ----------------------------------------------------- biseparable sampler


@pytest.mark.parametrize("kept", [0, 1, 2])
def test_random_biseparable_product_across_cut(kept):
    dims = [2, 2, 2]
    cut = Bipartition.of(dims, kept)
    s = library.random_biseparable(cut, dims, seed=kept + 10)
    assert s.norm_sq == pytest.approx(1.0, abs=1e-12)
    assert measures.cross_sums([(s, s, cut)])[0] <= 1e-10
    assert np.count_nonzero(singular_values([(s, cut)])[0] ** 2 > 1e-12) == 1


def test_random_biseparable_other_cuts_generically_entangled():
    dims = [2, 2, 2]
    cut = Bipartition.of(dims, 0)
    worst = np.inf
    for seed in range(100):
        s = library.random_biseparable(cut, dims, seed)
        others = [c for c in bipartitions(s) if c.kept != cut.kept]
        worst = min(worst, min(measures.cross_sums([(s, s, c)])[0] for c in others))
    assert worst > 1e-6


def test_random_biseparable_deterministic():
    cut = Bipartition.of([2, 2, 2], 1)
    a = library.random_biseparable(cut, [2, 2, 2], 7)
    b = library.random_biseparable(cut, [2, 2, 2], 7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


# ------------------------------------------------------------ spec sampler


def test_random_superposition_spec_unit_coefficients():
    for seed in range(20):
        spec = library.random_superposition_spec([2, 2, 2], seed)
        assert abs(spec.a1) ** 2 + abs(spec.a2) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert spec.psi1.is_normalized and spec.psi2.is_normalized


def test_random_superposition_spec_deterministic():
    a = library.random_superposition_spec([3, 3, 3], 99)
    b = library.random_superposition_spec([3, 3, 3], 99)
    assert a.a1 == b.a1 and a.a2 == b.a2
    np.testing.assert_array_equal(a.psi1.amplitudes, b.psi1.amplitudes)


# --------------------------------------------------------------- unitaries


@pytest.mark.parametrize("d", [2, 3, 4])
def test_haar_unitary_is_unitary(d):
    u = haar_unitary(d, seed=d)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_apply_product_unitary_preserves_norm_and_matricization_spectrum():
    s = library.haar_random([2, 3, 2], 3)
    us = [haar_unitary(d, 50 + k) for k, d in enumerate(s.dims)]
    rotated = apply_product_unitary(s, us)
    assert rotated.norm_sq == pytest.approx(1.0, abs=1e-12)
    for cut in bipartitions(s):
        sv_a = np.linalg.svd(matricize(s, cut), compute_uv=False)
        sv_b = np.linalg.svd(matricize(rotated, cut), compute_uv=False)
        np.testing.assert_allclose(sv_a, sv_b, atol=1e-10)
