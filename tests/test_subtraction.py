"""Conditional-source tests.

Lossy-counter results are checked against the closed forms written out
here: with r = lam^2 (1-T)/(1 - T lam^2) and y = r (1 - eta),

    P(k clicks) = (1 - lam^2)/(1 - T lam^2) * (eta r)^k / (1 - y)^(k+1)
    <vt>        = (k+1) / ((1 - y) (1 - T lam^2))

obtained by summing the thinned negative-binomial series.  The module
evaluates the same closed forms, so the independent check on them is the
number-basis oracle (tests/test_fock.py, tests/test_properties.py); these
tests pin the arrangement of the formulas, the ideal-counter limits and
the on-off mixture.
"""

import math

import numpy as np
import pytest

from psqkd.errors import DomainError
from psqkd.gaussian import check_physicality
from psqkd.subtraction import (
    SourceSpec,
    covariance_subtracted,
    equivalent_loss_params,
    filter_q,
    filter_q_max,
    success_prob_k,
    success_prob_onoff,
    v_tilde,
)


def closed_form_lossy_k(v, t, k, eta):
    lam2 = (v - 1.0) / (v + 1.0)
    denom = 1.0 - t * lam2
    r = lam2 * (1.0 - t) / denom
    y = r * (1.0 - eta)
    prob = (1.0 - lam2) / denom * (eta * r) ** k / (1.0 - y) ** (k + 1)
    vt = (k + 1.0) / ((1.0 - y) * denom)
    return prob, vt


class TestSuccessProb:
    def test_exact_values(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        assert abs(success_prob_k(src) - 190.0 / 841.0) < 1e-12
        assert abs(success_prob_k(src, k=0) - 10.0 / 29.0) < 1e-12

    def test_t_one_kills_clicks(self):
        src = SourceSpec.k_photon(20.0, 1.0, 1)
        assert success_prob_k(src) == 0.0
        assert success_prob_k(src, k=0) == 1.0

    def test_quarter_maximum_at_interior_t(self):
        # For k = 1 the exact-T optimum is T* = (2 lam^2 - 1)/lam^2 with value 1/4,
        # interior whenever lam^2 > 1/2 (v > 3).
        for v in (3.5, 10.0, 20.0, 40.0):
            lam2 = (v - 1.0) / (v + 1.0)
            t_star = (2.0 * lam2 - 1.0) / lam2
            p_star = success_prob_k(SourceSpec.k_photon(v, t_star, 1))
            assert abs(p_star - 0.25) < 1e-9
            for t in np.linspace(0.01, 0.999, 97):
                if abs(t - t_star) < 1e-3:
                    continue
                assert success_prob_k(SourceSpec.k_photon(v, float(t), 1)) < 0.25

    def test_normalization_partial_sum(self):
        for v in (2.0, 10.0, 40.0):
            for t in (0.1, 0.5, 0.9):
                src = SourceSpec.k_photon(v, t, 1)
                total = sum(success_prob_k(src, k=k) for k in range(501))
                assert abs(total - 1.0) < 1e-10

    def test_onoff_values(self):
        assert abs(success_prob_onoff(SourceSpec.on_off(20.0, 0.8)) - 19.0 / 29.0) < 1e-12
        # On-off equals everything except the zero-click branch.
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = 1.0 + 30.0 * rng.random()
            t = 0.05 + 0.9 * rng.random()
            src = SourceSpec.on_off(v, t)
            p0 = success_prob_k(SourceSpec.k_photon(v, t, 0))
            assert abs(success_prob_onoff(src) - (1.0 - p0)) < 1e-12

    def test_lossy_counter_against_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            v = 1.2 + 30.0 * rng.random()
            t = 0.05 + 0.9 * rng.random()
            k = int(rng.integers(0, 4))
            eta = 0.05 + 0.95 * rng.random()
            ref, _ = closed_form_lossy_k(v, t, k, eta)
            got = success_prob_k(SourceSpec.k_photon(v, t, k, eta_d=eta))
            assert abs(got - ref) < 1e-10 * max(ref, 1e-30)

    def test_lossy_onoff_sums_thinned_branches(self):
        # 1 - P(0 clicks with eta) must equal the on-off probability.
        for v, t, eta in [(20.0, 0.8, 0.5), (6.0, 0.5, 0.8), (2.0, 0.3, 0.1)]:
            p0_ref, _ = closed_form_lossy_k(v, t, 0, eta)
            got = success_prob_onoff(SourceSpec.on_off(v, t, eta_d=eta))
            assert abs(got - (1.0 - p0_ref)) < 1e-10


class TestVTilde:
    def test_values(self):
        assert abs(v_tilde(SourceSpec.k_photon(20.0, 0.8, 1)) - 210.0 / 29.0) < 1e-12
        # No conditioning: back to the heterodyne variance of the raw source.
        assert abs(v_tilde(SourceSpec.k_photon(20.0, 1.0, 0)) - 10.5) < 1e-12
        # Dark source: vt = k + 1 regardless of T.
        assert abs(v_tilde(SourceSpec.k_photon(1.0, 0.5, 2)) - 3.0) < 1e-12


class TestCovariance:
    def test_none_scheme_is_raw_source(self):
        rep = covariance_subtracted(SourceSpec.tmsv(20.0))
        assert rep.success_prob == 1.0
        assert abs(rep.cov.v1 - 20.0) < 1e-12
        assert abs(rep.cov.v2 - 20.0) < 1e-12
        assert abs(rep.cov.phi - math.sqrt(399.0)) < 1e-12
        assert rep.eta_a == 1.0 and rep.v_a == 20.0

    def test_ideal_single_click_values(self):
        rep = covariance_subtracted(SourceSpec.k_photon(20.0, 0.8, 1))
        assert abs(rep.cov.v1 - 391.0 / 29.0) < 1e-10
        assert abs(rep.cov.v2 - 333.0 / 29.0) < 1e-10
        phi_ref = 2.0 * math.sqrt(0.8) * math.sqrt(19.0 / 21.0) * 210.0 / 29.0
        assert abs(rep.cov.phi - phi_ref) < 1e-10
        # Spec-level anchors with looser rounding.
        assert abs(rep.cov.v1 - 13.4828) < 1e-3
        assert abs(rep.cov.v2 - 11.4829) < 1e-3
        assert abs(rep.cov.phi - 12.3214) < 1e-3

    def test_conditional_matches_equivalent_loss_form(self):
        # Conditional moments and the (v_a, eta_a) reconstruction agree.
        rng = np.random.default_rng(99)
        for _ in range(200):
            v = 1.05 + 38.0 * rng.random()
            t = 0.02 + 0.96 * rng.random()
            k = int(rng.integers(0, 5))
            src = SourceSpec.k_photon(v, t, k)
            rep = covariance_subtracted(src)
            v_a, eta_a = equivalent_loss_params(src)
            assert abs(rep.cov.v1 - v_a) < 1e-10 * max(1.0, v_a)
            assert abs(rep.cov.v2 - (eta_a * v_a + 1.0 - eta_a)) < 1e-10 * max(1.0, v_a)
            assert abs(rep.cov.phi - math.sqrt(eta_a * (v_a * v_a - 1.0))) < 1e-10 * max(1.0, v_a)

    def test_conditional_states_physical(self):
        rng = np.random.default_rng(4321)
        for _ in range(100):
            v = 1.0 + 39.0 * rng.random()
            t = 0.02 + 0.97 * rng.random()
            k = int(rng.integers(0, 5))
            eta = 0.1 + 0.9 * rng.random()
            rep = covariance_subtracted(SourceSpec.k_photon(v, t, k, eta_d=eta))
            assert check_physicality(rep.cov)

    def test_lossy_mixture_against_closed_form(self):
        rng = np.random.default_rng(64)
        for _ in range(60):
            v = 1.2 + 30.0 * rng.random()
            t = 0.05 + 0.9 * rng.random()
            k = int(rng.integers(0, 4))
            eta = 0.05 + 0.9 * rng.random()
            prob_ref, vt_ref = closed_form_lossy_k(v, t, k, eta)
            rep = covariance_subtracted(SourceSpec.k_photon(v, t, k, eta_d=eta))
            assert abs(rep.success_prob - prob_ref) < 1e-10 * max(prob_ref, 1e-30)
            assert abs(rep.v_tilde - vt_ref) < 1e-10 * vt_ref

    def test_onoff_ideal_mixture(self):
        # On-off conditional moments = click-number mixture of ideal components.
        v, t = 20.0, 0.8
        lam2 = 19.0 / 21.0
        src = SourceSpec.on_off(v, t)
        rep = covariance_subtracted(src)
        num = 0.0
        den = 0.0
        for k in range(1, 200):
            p = success_prob_k(SourceSpec.k_photon(v, t, min(k, 64)), k=k)
            num += p * (k + 1.0) / (1.0 - t * lam2)
            den += p
        assert abs(rep.success_prob - den) < 1e-10
        assert abs(rep.v_tilde - num / den) < 1e-8


class TestEquivalentLoss:
    def test_values_and_ordering(self):
        assert equivalent_loss_params(SourceSpec.k_photon(20.0, 0.8, 0))[1] == 1.0
        _, eta1 = equivalent_loss_params(SourceSpec.k_photon(20.0, 0.8, 1))
        assert abs(eta1 - 0.83978) < 1e-5
        etas = [
            equivalent_loss_params(SourceSpec.k_photon(20.0, 0.8, k))[1]
            for k in range(1, 5)
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_requires_ideal_counter(self):
        with pytest.raises(DomainError):
            equivalent_loss_params(SourceSpec.k_photon(20.0, 0.8, 1, eta_d=0.5))
        with pytest.raises(DomainError):
            equivalent_loss_params(SourceSpec.on_off(20.0, 0.8))


class TestFilter:
    def test_point_values(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        u = 0.2 * (19.0 / 21.0)  # x = p = 1
        assert abs(filter_q(1.0, 1.0, src) - u * math.exp(-u)) < 1e-12
        assert abs(filter_q(1.0, 1.0, src) - 0.15100) < 1e-4
        assert filter_q(0.0, 0.0, src) == 0.0
        k0 = SourceSpec.k_photon(20.0, 0.8, 0)
        assert filter_q(0.0, 0.0, k0) == 1.0
        onoff = SourceSpec.on_off(20.0, 0.8)
        assert filter_q(0.0, 0.0, onoff) == 0.0

    def test_bounded_by_supremum(self):
        rng = np.random.default_rng(17)
        for k in range(0, 6):
            src = SourceSpec.k_photon(20.0, 0.8, k)
            cap = filter_q_max(src)
            assert abs(cap - math.exp(k * math.log(k) - k - math.lgamma(k + 1))) < 1e-12 if k else cap == 1.0
            x = rng.normal(scale=5.0, size=2000)
            p = rng.normal(scale=5.0, size=2000)
            q = filter_q(x, p, src)
            assert np.all(q >= 0.0)
            assert np.all(q <= cap + 1e-12)
            # The supremum is attained on the radius u = k.
            if k:
                lam2 = 19.0 / 21.0
                r2 = 2.0 * k / ((1.0 - 0.8) * lam2)
                x_star = math.sqrt(r2 / 2.0)
                assert abs(filter_q(x_star, x_star, src) - cap) < 1e-9

    def test_expected_acceptance_equals_click_probability(self):
        # 2D Gauss-Hermite quadrature of Q against Alice's heterodyne Gaussian.
        nodes, weights = np.polynomial.hermite_e.hermegauss(160)
        for v, t, k in [(20.0, 0.8, 0), (20.0, 0.8, 1), (8.0, 0.5, 2), (3.0, 0.3, 3)]:
            src = SourceSpec.k_photon(v, t, k)
            sig = math.sqrt((v + 1.0) / 2.0)
            x = sig * nodes[:, None]
            p = sig * nodes[None, :]
            q = filter_q(x, p, src)
            integral = float((weights[:, None] * weights[None, :] * q).sum()) / (2.0 * math.pi)
            assert abs(integral - success_prob_k(src)) < 1e-6

    def test_none_scheme_accepts_everything(self):
        src = SourceSpec.tmsv(20.0)
        assert filter_q(3.0, -2.0, src) == 1.0
        assert np.all(filter_q(np.zeros(5), np.ones(5), src) == 1.0)


class TestValidation:
    def test_source_spec_domain(self):
        with pytest.raises(DomainError):
            SourceSpec(v=0.5)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=0.0, scheme="k_photon", k=1)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=1.1, scheme="k_photon", k=1)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=0.5, scheme="k_photon", k=-1)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=0.5, scheme="k_photon", k=65)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=0.5, scheme="k_photon", k=1, eta_d=0.0)
        with pytest.raises(DomainError):
            SourceSpec(v=20.0, t=0.5, scheme="bogus")

    def test_none_forces_full_transmittance(self):
        src = SourceSpec(v=20.0, t=0.3, scheme="none")
        assert src.t == 1.0
