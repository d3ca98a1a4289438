"""Gaussian-core tests.

Symplectic spectra are cross-checked against the generic 4x4 route
|eig(i Omega gamma)|, which shares no code with the closed form under test.
"""

import math

import numpy as np
import pytest

from psqkd.errors import DomainError, InvalidStateError, SingularityError
from psqkd.gaussian import (
    ChannelSpec,
    TwoModeCovariance,
    apply_channel,
    key_rate_homodyne,
    symplectic_eigenvalues,
)

OMEGA = np.array(
    [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ],
    dtype=float,
)


def cov_matrix(cov):
    """The dense 4x4 covariance matrix in (x1, p1, x2, p2) ordering."""
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = cov.v1
    g[2, 2] = g[3, 3] = cov.v2
    g[0, 2] = g[2, 0] = cov.phi
    g[1, 3] = g[3, 1] = -cov.phi
    return g


def symplectic_oracle(cov):
    """Independent spectrum: moduli of eig(i Omega gamma), deduplicated."""
    eig = np.linalg.eigvals(1j * OMEGA @ cov_matrix(cov))
    mods = np.sort(np.abs(eig))
    # Each symplectic eigenvalue appears twice.
    return mods[3], mods[1]


def random_physical(rng):
    v1 = 1.0 + 39.0 * rng.random()
    v2 = 1.0 + 39.0 * rng.random()
    # Tight standard-form bound: phi_max^2 = v1*v2 - 1 - |v1 - v2|.
    phi_max_sq = v1 * v2 - 1.0 - abs(v1 - v2)
    phi = math.sqrt(rng.random() * phi_max_sq) * (1 if rng.random() < 0.5 else -1)
    return TwoModeCovariance(v1, v2, phi)


class TestSymplectic:
    def test_pure_tmsv_is_vacuum_spectrum(self):
        for v in (1.0, 1.5, 2.0, 5.0, 20.0, 100.0):
            cov = TwoModeCovariance(v, v, math.sqrt(v * v - 1.0))
            lam1, lam2 = symplectic_eigenvalues(cov)
            assert abs(lam1 - 1.0) < 1e-9
            assert abs(lam2 - 1.0) < 1e-9

    def test_product_state(self):
        assert symplectic_eigenvalues(TwoModeCovariance(5, 3, 0)) == (5.0, 3.0)

    def test_post_channel_example(self):
        lam1, lam2 = symplectic_eigenvalues(TwoModeCovariance(20.0, 2.901, 6.3166))
        assert abs(lam1 - 18.100) < 1e-3
        assert abs(lam2 - 1.0011) < 1e-3

    def test_matches_generic_eigen_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            cov = random_physical(rng)
            lam1, lam2 = symplectic_eigenvalues(cov)
            ref1, ref2 = symplectic_oracle(cov)
            assert abs(lam1 - ref1) < 1e-9 * max(1.0, ref1)
            assert abs(lam2 - ref2) < 1e-9 * max(1.0, ref2)

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            symplectic_eigenvalues(TwoModeCovariance(20, 20, 25))


def assert_physical(cov):
    """Both users of the physicality test accept the state."""
    symplectic_eigenvalues(cov)
    apply_channel(cov, ChannelSpec(t_c=0.5, epsilon=0.01))


def assert_unphysical(cov):
    with pytest.raises(InvalidStateError):
        symplectic_eigenvalues(cov)
    with pytest.raises(InvalidStateError):
        apply_channel(cov, ChannelSpec(t_c=0.5, epsilon=0.01))


class TestPhysicality:
    def test_examples(self):
        assert_physical(TwoModeCovariance(1, 1, 0))
        assert_physical(TwoModeCovariance(20, 20, math.sqrt(399)))
        assert_unphysical(TwoModeCovariance(20, 20, 25))
        assert_unphysical(TwoModeCovariance(0.5, 1, 0))

    def test_total_on_weird_inputs(self):
        # a clean verdict, InvalidStateError, and no other exception
        assert_unphysical(TwoModeCovariance(-3.0, 2.0, 50.0))
        assert_unphysical(TwoModeCovariance(1.0, 1.0, 1e6))


def holevo_of_vacuum_and_thermal(x):
    """g(x) through the key rate: with the first mode in vacuum and no
    correlation, the Holevo term is g(x) + g(0) - g(0) for a second mode of
    variance 1 + 2x."""
    return key_rate_homodyne(TwoModeCovariance(1.0, 1.0 + 2.0 * x, 0.0), 1.0).holevo


class TestEntropyTerm:
    def test_anchors(self):
        assert holevo_of_vacuum_and_thermal(0.0) == 0.0
        assert abs(holevo_of_vacuum_and_thermal(1.0) - 2.0) < 1e-12
        assert abs(holevo_of_vacuum_and_thermal(0.5) - 1.37744) < 1e-5

    def test_domain(self):
        # x < 0 is a sub-vacuum variance, which the state check rejects
        with pytest.raises(InvalidStateError):
            holevo_of_vacuum_and_thermal(-0.1)

    def test_monotone(self):
        vals = holevo_of_vacuum_and_thermal(np.linspace(0.0, 30.0, 200))
        assert np.all(np.diff(vals) > 0.0)


class TestChannel:
    def test_identity(self):
        rng = np.random.default_rng(7)
        ch = ChannelSpec(t_c=1.0, epsilon=0.0)
        for _ in range(100):
            cov = random_physical(rng)
            out = apply_channel(cov, ch)
            assert abs(out.v1 - cov.v1) < 1e-12
            assert abs(out.v2 - cov.v2) < 1e-12
            assert abs(out.phi - cov.phi) < 1e-12

    def test_example_values(self):
        cov = TwoModeCovariance(20.0, 20.0, math.sqrt(399.0))
        out = apply_channel(cov, ChannelSpec(t_c=0.1, epsilon=0.01))
        assert abs(out.v1 - 20.0) < 1e-12
        assert abs(out.v2 - 2.901) < 1e-4
        assert abs(out.phi - 6.3166) < 1e-4

    def test_uncorrelated_mode(self):
        out = apply_channel(TwoModeCovariance(8.0, 8.0, 0.0), ChannelSpec(t_c=0.5))
        assert abs(out.v2 - (0.5 * 8.0 + 0.5)) < 1e-12
        assert out.phi == 0.0

    def test_composition_pure_loss(self):
        # Loss t1 then t2 equals loss t1*t2 when epsilon = 0.
        rng = np.random.default_rng(11)
        for _ in range(50):
            cov = random_physical(rng)
            t1, t2 = 0.1 + 0.9 * rng.random(2)
            once = apply_channel(cov, ChannelSpec(t_c=t1 * t2))
            twice = apply_channel(apply_channel(cov, ChannelSpec(t_c=t1)), ChannelSpec(t_c=t2))
            assert abs(once.v1 - twice.v1) < 1e-10
            assert abs(once.v2 - twice.v2) < 1e-10
            assert abs(once.phi - twice.phi) < 1e-10

    def test_output_physical(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            cov = random_physical(rng)
            ch = ChannelSpec(t_c=0.01 + 0.99 * rng.random(), epsilon=0.1 * rng.random())
            assert_physical(apply_channel(cov, ch))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ChannelSpec(t_c=0.0)
        with pytest.raises(DomainError):
            ChannelSpec(t_c=1.2)
        with pytest.raises(DomainError):
            ChannelSpec(t_c=0.5, epsilon=-0.01)

    def test_distance_form(self):
        ch = ChannelSpec(distance_km=50.0, loss_db_per_km=0.2)
        assert abs(ch.t_c - 10.0 ** (-0.2 * 50.0 / 10.0)) < 1e-15
        # Consistent dual specification is accepted, inconsistent rejected.
        ChannelSpec(t_c=0.1, distance_km=50.0, loss_db_per_km=0.2)
        with pytest.raises(DomainError):
            ChannelSpec(t_c=0.2, distance_km=50.0, loss_db_per_km=0.2)
        with pytest.raises(DomainError):
            ChannelSpec(distance_km=50.0)
        with pytest.raises(DomainError):
            ChannelSpec(distance_km=-1.0, loss_db_per_km=0.2)


class TestKeyRate:
    def test_pure_lossless_baseline(self):
        cov = TwoModeCovariance(20.0, 20.0, math.sqrt(399.0))
        rep = key_rate_homodyne(cov, beta=1.0, success_prob=1.0)
        assert abs(rep.key_rate - 0.5 * math.log2(20.0)) < 1e-6
        assert abs(rep.holevo) < 1e-9

    def test_post_channel_example(self):
        # Frozen from a 50-digit evaluation of the same chain (mpmath oracle).
        rep = key_rate_homodyne(TwoModeCovariance(20.0, 2.901, 6.3166), beta=0.95)
        assert abs(rep.mutual_info - 0.7675347918627632) < 1e-12
        assert abs(rep.holevo - 0.7035620515681923) < 1e-12
        assert abs(rep.key_rate - 0.0255960007014327) < 1e-12
        assert abs(rep.key_rate - rep.success_prob * rep.raw_rate) < 1e-15

    def test_uncorrelated_gives_no_information(self):
        rep = key_rate_homodyne(TwoModeCovariance(5.0, 2.0, 0.0), beta=1.0)
        assert rep.mutual_info == 0.0
        assert rep.key_rate <= 0.0

    def test_holevo_nonnegative_on_random_states(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            cov = random_physical(rng)
            rep = key_rate_homodyne(cov, beta=1.0)
            assert rep.holevo >= -1e-9

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(777)
        eps_grid = np.arange(0.0, 0.1001, 0.005)
        for _ in range(20):
            v = 2.0 + 38.0 * rng.random()
            cov = TwoModeCovariance(v, v, math.sqrt(v * v - 1.0))
            t_c = 0.05 + 0.9 * rng.random()
            rates = []
            for eps in eps_grid:
                out = apply_channel(cov, ChannelSpec(t_c=t_c, epsilon=float(eps)))
                rates.append(key_rate_homodyne(out, beta=0.95).key_rate)
            diffs = np.diff(rates)
            assert np.all(diffs <= 1e-12)

    def test_parameter_validation(self):
        cov = TwoModeCovariance(5.0, 3.0, 2.0)
        with pytest.raises(DomainError):
            key_rate_homodyne(cov, beta=0.0)
        with pytest.raises(DomainError):
            key_rate_homodyne(cov, beta=1.5)
        with pytest.raises(DomainError):
            key_rate_homodyne(cov, beta=0.9, success_prob=1.5)
        with pytest.raises(SingularityError):
            key_rate_homodyne(TwoModeCovariance(5.0, 0.0, 0.0), beta=0.9)

    def test_negative_rates_not_clamped(self):
        out = apply_channel(
            TwoModeCovariance(20.0, 20.0, math.sqrt(399.0)),
            ChannelSpec(t_c=0.01, epsilon=0.2),
        )
        rep = key_rate_homodyne(out, beta=0.95)
        assert rep.key_rate < 0.0
