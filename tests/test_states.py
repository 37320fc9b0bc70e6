"""Truncated number-basis kets of the two input states, as the dense oracle
builds them: each a running product from its vacuum amplitude."""

import math

import numpy as np
import pytest

from phasefree.oracle import _coherent_vector, _tmss_vector, build_joint_coherent


def _tmss_cutoff(eta: float, epsilon: float) -> int:
    """Smallest n_max whose geometric tail eta^(2(n_max+1)) is <= epsilon."""
    n_max = 0
    while eta ** (2 * (n_max + 1)) > epsilon:
        n_max += 1
    return n_max


class TestCoherentAmplitudes:
    def test_vacuum(self):
        joint = build_joint_coherent(0.0, 0.0, 1.3, 4)
        assert joint.truncation_loss == 0.0
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(joint.amplitudes, expected)

    def test_unit_amplitude_values(self):
        amplitudes = _coherent_vector(1.0, 0.0, 2)
        root = math.exp(-0.5)
        assert amplitudes[0] == pytest.approx(root, abs=1e-13)
        assert amplitudes[1] == pytest.approx(root, abs=1e-13)
        assert amplitudes[2] == pytest.approx(root / math.sqrt(2.0), abs=1e-13)

    def test_phase_pi_alternates_signs(self):
        plain = _coherent_vector(1.0, 0.0, 20)
        flipped = _coherent_vector(1.0, math.pi, 20)
        signs = (-1.0) ** np.arange(plain.size)
        np.testing.assert_allclose(flipped, signs * plain, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.7, math.pi, 4.2])
    def test_phase_covariance(self, phi):
        """phi enters only as per-component phases e^(i n phi)."""
        base = _coherent_vector(0.8 + 0.3j, 0.0, 20)
        rotated = _coherent_vector(0.8 + 0.3j, phi, 20)
        n = np.arange(base.size)
        np.testing.assert_allclose(rotated, base * np.exp(1j * phi * n), atol=1e-14)
        np.testing.assert_allclose(np.abs(rotated), np.abs(base), atol=1e-15)

    def test_amplitudes_are_read_only(self):
        joint = build_joint_coherent(1.0, 0.5, 0.0, 6)
        with pytest.raises(ValueError):
            joint.amplitudes[0, 0] = 0.0


class TestTmssSchmidtAmplitudes:
    def test_vacuum(self):
        np.testing.assert_allclose(_tmss_vector(0.0, 0.0, 3), [1.0, 0.0, 0.0, 0.0])

    def test_half_eta_values(self):
        coeffs = _tmss_vector(0.5, 0.0, _tmss_cutoff(0.5, 1e-12))
        n = np.arange(coeffs.size)
        np.testing.assert_allclose(coeffs, math.sqrt(0.75) * 0.5**n, atol=1e-14)

    def test_phase_pattern(self):
        plain = _tmss_vector(0.5, 0.0, 40)
        rotated = _tmss_vector(0.5, math.pi / 2, 40)
        signs = (-1.0) ** np.arange(plain.size)
        np.testing.assert_allclose(rotated, signs * plain, atol=1e-13)

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("epsilon", [1e-8, 1e-12])
    def test_geometric_tail_identity(self, eta, epsilon):
        """sum |c_n|^2 equals the analytic partial geometric sum exactly."""
        n_max = _tmss_cutoff(eta, epsilon)
        coeffs = _tmss_vector(eta, 0.0, n_max)
        assert coeffs.size == n_max + 1
        tail = eta ** (2 * (n_max + 1))
        assert tail <= epsilon
        total = math.fsum((np.abs(coeffs) ** 2).tolist())
        assert total == pytest.approx(1.0 - tail, abs=1e-12)

    @pytest.mark.parametrize("eta", [-0.1, 1.0, 1.5])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            _tmss_vector(eta, 0.0, 3)
