"""Fock-basis oracle: construction, loss, conditioning, number statistics.

Expected values are closed forms evaluated by hand (exact fractions where
possible), never outputs of the code under test; the grid tests compare the
oracle against the independent analytic module.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from psqkd.errors import ConditioningError, DomainError, InvalidStateError, TruncationError
from psqkd.fock import (
    FockState,
    apply_detector_loss,
    build_split_tmsv,
    condition_on_count,
    conditioned_moments,
    suggested_cutoff,
)
from psqkd.subtraction import (
    SourceSpec,
    covariance_subtracted,
    success_prob_k,
    success_prob_onoff,
)


def lam2_of(v):
    return (v - 1.0) / (v + 1.0)


class TestBuild:
    def test_vacuum_is_single_entry(self):
        state = build_split_tmsv(1.0, 0.5, cutoff=10)
        assert state.amp.size == 1
        assert state.na[0] == state.nb1[0] == state.nb2[0] == 0
        assert state.amp[0] == pytest.approx(1.0, abs=1e-15)
        assert state.norm_defect == 0.0

    def test_transparent_tap_is_schmidt_form(self):
        state = build_split_tmsv(3.0, 1.0, cutoff=40)
        lam = math.sqrt(0.5)
        assert state.amp.size == 41
        assert np.all(state.nb1 == 0)
        assert np.all(state.na == state.nb2)
        order = np.argsort(state.na)
        expected = math.sqrt(1.0 - 0.5) * lam ** state.na[order]
        np.testing.assert_allclose(state.amp[order], expected, rtol=1e-13)

    def test_amplitude_formula_spot_checks(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = 1.0 + 8.0 * rng.random()
            t = 0.1 + 0.85 * rng.random()
            lam2 = lam2_of(v)
            # Loose tol: only individual amplitudes matter here, not the tail.
            state = build_split_tmsv(v, t, cutoff=25, tol=1.0)
            dense = np.zeros((26, 26, 26))
            dense[state.na, state.nb1, state.nb2] = state.amp
            for n, l in ((0, 0), (1, 0), (1, 1), (4, 2), (7, 7), (10, 3)):
                ref = math.sqrt(1.0 - lam2) * lam2 ** (n / 2.0) * math.sqrt(
                    math.comb(n, l) * t ** (n - l) * (1.0 - t) ** l
                )
                assert dense[n, l, n - l] == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_shell_weights_are_thermal(self):
        # The tap conserves each photon shell, so summing squared amplitudes
        # over l must give back the source law (1 - lam^2) lam^(2n).
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        lam2 = 5.0 / 7.0
        shell = np.zeros(61)
        np.add.at(shell, state.na, state.amp**2)
        expected = (1.0 - lam2) * lam2 ** np.arange(61)
        np.testing.assert_allclose(shell, expected, rtol=1e-12)

    def test_norm_defect_exact_and_consistent(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        assert state.norm_defect == pytest.approx((5.0 / 7.0) ** 61, rel=1e-12)
        assert 1.0 - state.amp @ state.amp == pytest.approx(state.norm_defect, rel=1e-3)

    def test_tight_tolerance_raises_with_suggestion(self):
        # (5/7)^61 = 1.22e-9 sits just above 1e-9, so the same build must
        # fail under the default tolerance and point at cutoff 61.
        with pytest.raises(TruncationError, match="61"):
            build_split_tmsv(6.0, 0.8, cutoff=60)
        build_split_tmsv(6.0, 0.8, cutoff=61)

    def test_suggested_cutoff_meets_tolerance(self):
        assert suggested_cutoff(6.0) == 61
        assert suggested_cutoff(1.0) == 10
        for v in (1.0, 1.5, 2.0, 6.0, 12.0, 20.0):
            for tol in (1e-6, 1e-9, 1e-12):
                n = suggested_cutoff(v, tol)
                lam2 = lam2_of(v)
                assert lam2 ** (n + 1) <= tol
                assert n >= math.ceil(10.0 + 8.0 * lam2 / (1.0 - lam2))

    def test_default_cutoff_is_suggested(self):
        state = build_split_tmsv(6.0, 0.8)
        assert state.cutoff == 61

    def test_validation(self):
        with pytest.raises(DomainError):
            build_split_tmsv(0.5, 0.5, cutoff=10)
        with pytest.raises(DomainError):
            build_split_tmsv(2.0, 0.0, cutoff=10)
        with pytest.raises(DomainError):
            build_split_tmsv(2.0, 1.5, cutoff=10)
        with pytest.raises(DomainError):
            build_split_tmsv(2.0, 0.5, cutoff=1)
        with pytest.raises(DomainError):
            FockState(
                na=np.array([3]), nb1=np.array([0]), nb2=np.array([0]),
                amp=np.array([1.0]), cutoff=2, norm_defect=0.0,
            )

    def test_state_is_immutable(self):
        state = build_split_tmsv(2.0, 0.5, cutoff=20)
        with pytest.raises(ValueError):
            state.amp[0] = 0.0

    def test_caller_arrays_stay_writeable(self):
        a = np.arange(3)
        state = FockState(na=a, nb1=0 * a, nb2=0 * a, amp=0.1 * a, cutoff=4,
                          norm_defect=0.0)
        a[0] = 1
        with pytest.raises(ValueError):
            state.na[0] = 2


def single_mode_b1(n, cutoff=4):
    """|0, n, 0> test state."""
    return FockState(
        na=np.array([0]), nb1=np.array([n]), nb2=np.array([0]),
        amp=np.array([1.0]), cutoff=cutoff, norm_defect=0.0,
    )


class TestDetectorLoss:
    def test_unit_efficiency_leaves_conditioning_unchanged(self):
        state = build_split_tmsv(4.0, 0.7, cutoff=45)
        lossless = apply_detector_loss(state, 1.0)
        for k in (0, 1, 2, "on_off"):
            assert conditioned_moments(lossless, k) == conditioned_moments(state, k)

    def test_loss_copies_no_amplitudes(self):
        state = build_split_tmsv(4.0, 0.7, cutoff=45)
        lossy = apply_detector_loss(state, 0.6)
        assert lossy.eta_d == 0.6 and state.eta_d == 1.0
        for name in ("na", "nb1", "nb2", "amp"):
            assert np.shares_memory(getattr(lossy, name), getattr(state, name))

    def test_single_photon_thinning(self):
        lossy = apply_detector_loss(single_mode_b1(1), 0.5)
        p1, _ = condition_on_count(lossy, 1)
        p0, _ = condition_on_count(lossy, 0)
        assert p1 == pytest.approx(0.5, abs=1e-15)
        assert p0 == pytest.approx(0.5, abs=1e-15)

    def test_two_photon_binomial_thinning(self):
        lossy = apply_detector_loss(single_mode_b1(2), 0.8)
        probs = [condition_on_count(lossy, k)[0] for k in (0, 1, 2)]
        assert probs[0] == pytest.approx(0.04, abs=1e-15)
        assert probs[1] == pytest.approx(0.32, abs=1e-15)
        assert probs[2] == pytest.approx(0.64, abs=1e-15)

    def test_count_completeness(self):
        # no count and some count exhaust the outcomes at any efficiency
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        lossy = apply_detector_loss(state, 0.6)
        total = condition_on_count(lossy, 0)[0] + condition_on_count(lossy, "on_off")[0]
        assert total == pytest.approx(state.amp @ state.amp, abs=1e-13)

    def test_successive_losses_compose(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        twice = apply_detector_loss(apply_detector_loss(state, 0.8), 0.7)
        once = apply_detector_loss(state, 0.8 * 0.7)
        for k in (0, 1, 2, "on_off"):
            assert conditioned_moments(twice, k) == conditioned_moments(once, k)

    def test_validation(self):
        state = build_split_tmsv(2.0, 0.5, cutoff=20)
        for eta in (0.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                apply_detector_loss(state, eta)
            with pytest.raises(DomainError):
                FockState(na=state.na, nb1=state.nb1, nb2=state.nb2, amp=state.amp,
                          cutoff=20, norm_defect=0.0, eta_d=eta)


class TestConditioning:
    def test_vacuum_click_is_error(self):
        state = build_split_tmsv(1.0, 0.5, cutoff=4)
        with pytest.raises(ConditioningError):
            condition_on_count(state, 1)

    def test_ideal_single_click_probability(self):
        # V=6, T=0.8: base (1-lam^2)/(1-T lam^2) = 2/3, ratio 1/3, P(1) = 2/9.
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        prob, _ = condition_on_count(state, 1)
        assert prob == pytest.approx(2.0 / 9.0, abs=1e-10)

    def test_ideal_single_click_covariance(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=100, tol=1e-8)
        _, cov = condition_on_count(state, 1)
        assert cov.v1 == pytest.approx(25.0 / 3.0, abs=1e-10)
        assert cov.v2 == pytest.approx(19.0 / 3.0, abs=1e-10)
        assert cov.phi == pytest.approx(56.0 / (3.0 * math.sqrt(7.0)), abs=1e-10)

    def test_on_off_probability(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        prob, _ = condition_on_count(state, "on_off")
        assert prob == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_grid_against_closed_forms(self):
        # The module's purpose: direct numerics must reproduce the analytic
        # probabilities and covariances, with and without counter loss.
        for v, cutoff in ((2.0, 60), (6.0, 100)):
            for t in (0.5, 0.8):
                state = build_split_tmsv(v, t, cutoff=cutoff)
                for eta in (1.0, 0.5):
                    lossy = apply_detector_loss(state, eta)
                    for k in (0, 1, 2):
                        src = SourceSpec.k_photon(v, t, k, eta_d=eta)
                        prob, cov = condition_on_count(lossy, k)
                        rep = covariance_subtracted(src)
                        assert prob == pytest.approx(
                            success_prob_k(src), abs=1e-8
                        ), (v, t, k, eta)
                        for got, want in zip(cov.as_tuple(), rep.cov.as_tuple()):
                            assert got == pytest.approx(want, abs=1e-6), (v, t, k, eta)

    def test_on_off_with_loss_against_closed_forms(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=100)
        lossy = apply_detector_loss(state, 0.7)
        src = SourceSpec.on_off(6.0, 0.8, eta_d=0.7)
        prob, cov = condition_on_count(lossy, "on_off")
        assert prob == pytest.approx(success_prob_onoff(src), abs=1e-8)
        rep = covariance_subtracted(src)
        for got, want in zip(cov.as_tuple(), rep.cov.as_tuple()):
            assert got == pytest.approx(want, abs=1e-6)

    def test_conditioned_means_vanish(self):
        state = build_split_tmsv(6.0, 0.8, cutoff=60, tol=1e-8)
        lossy = apply_detector_loss(state, 0.8)
        for k in (0, 1, 2, "on_off"):
            m = conditioned_moments(lossy, k)
            assert abs(m.mean_xa) < 1e-10
            assert abs(m.mean_xb) < 1e-10
            assert m.va_x == pytest.approx(m.va_p, abs=1e-12)
            assert m.phi_x == pytest.approx(-m.phi_p, abs=1e-12)

    def test_cutoff_convergence(self):
        low = apply_detector_loss(build_split_tmsv(6.0, 0.8, cutoff=100), 0.8)
        high = apply_detector_loss(build_split_tmsv(6.0, 0.8, cutoff=200), 0.8)
        _, cov_low = condition_on_count(low, 1)
        _, cov_high = condition_on_count(high, 1)
        for a, b in zip(cov_low.as_tuple(), cov_high.as_tuple()):
            assert abs(a - b) < 1e-8

    def test_asymmetric_state_refuses_standard_form(self):
        # |0> + |2> on the kept mode has <a^2> != 0, so no (v1, v2, phi)
        # form exists and the extraction must say so.
        state = FockState(
            na=np.array([0, 2]), nb1=np.array([0, 0]), nb2=np.array([0, 0]),
            amp=np.array([math.sqrt(0.5), math.sqrt(0.5)]),
            cutoff=2, norm_defect=0.0,
        )
        with pytest.raises(InvalidStateError):
            condition_on_count(state, 0)

    def test_bad_target_validation(self):
        state = build_split_tmsv(2.0, 0.5, cutoff=20)
        with pytest.raises(DomainError):
            condition_on_count(state, -1)
        with pytest.raises(DomainError):
            condition_on_count(state, "sometimes")


def kept_mode_law(v, t, k, cutoff):
    """Photon-number law of the sender's kept mode after k ideal clicks.

    Read off the oracle state: the squared amplitudes with k photons in the
    counter arm, summed per sender photon number and normalized.
    """
    state = build_split_tmsv(v, t, cutoff=cutoff)
    sel = state.nb1 == k
    pops = np.bincount(state.na[sel], weights=state.amp[sel] ** 2, minlength=cutoff + 1)
    return pops / pops.sum()


def negative_binomial(v, t, k, n):
    """p_n = C(n, k) x^(n-k) (1-x)^(k+1) for n >= k, x = lam^2 T."""
    x = lam2_of(v) * t
    return np.array([math.comb(m, k) * x ** (m - k) * (1.0 - x) ** (k + 1)
                     if m >= k else 0.0 for m in n])


class TestPhotonNumberDist:
    """The kept mode's photon-number law after k clicks is negative binomial."""

    def test_thermal_limit(self):
        v = 5.0
        lam2 = lam2_of(v)
        n = np.arange(20)
        expected = (1.0 - lam2) * lam2**n
        np.testing.assert_allclose(kept_mode_law(v, 1.0, 0, 80)[:20], expected, rtol=1e-9)

    def test_single_click_value(self):
        # x = lam^2 T = 4/7, p_1 = (1 - x)^2 = 9/49.
        assert kept_mode_law(6.0, 0.8, 1, 100)[1] == pytest.approx(9.0 / 49.0, rel=1e-9)

    def test_below_count_is_zero(self):
        assert kept_mode_law(6.0, 0.8, 2, 100)[1] == 0.0
        assert kept_mode_law(6.0, 0.8, 3, 100)[:3].tolist() == [0, 0, 0]

    def test_normalization_at_wide_cutoff(self):
        # the closed law keeps all its weight below the cutoff, so the
        # normalized oracle populations match it unscaled for every count
        for k in (0, 1, 2, 4):
            p = negative_binomial(6.0, 0.8, k, range(201))
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(kept_mode_law(6.0, 0.8, k, 200), p, atol=1e-10)

    def test_matches_oracle_populations(self):
        pops = kept_mode_law(6.0, 0.8, 1, 100)
        expected = negative_binomial(6.0, 0.8, 1, range(101))
        np.testing.assert_allclose(pops, expected, atol=1e-10)


def test_oracle_does_not_depend_on_blas_threads():
    # a BLAS dot product of the ~2e4 amplitudes runs on several threads, and
    # its last bits change with their number; the oracle's numbers must not
    code = textwrap.dedent("""
        from psqkd.cli import main
        from psqkd.fock import (apply_detector_loss, build_split_tmsv,
                                condition_on_count, suggested_cutoff)
        from psqkd.subtraction import SourceSpec, covariance_subtracted
        state = build_split_tmsv(20.0, 0.8, suggested_cutoff(20.0))
        for src, count in ((SourceSpec.k_photon(20.0, 0.8, 1, 0.8), 1),
                           (SourceSpec.k_photon(20.0, 0.8, 2, 0.5), 2),
                           (SourceSpec.on_off(20.0, 0.8), "on_off")):
            prob, cov = condition_on_count(apply_detector_loss(state, src.eta_d), count)
            closed = covariance_subtracted(src)
            for a, b in ((closed.success_prob, prob), (closed.cov.v1, cov.v1),
                         (closed.cov.v2, cov.v2), (closed.cov.phi, cov.phi)):
                print(a.hex(), b.hex(), abs(a - b).hex())
        main(["oracle", "--k", "1", "--eta-d", "0.8"])
        main(["oracle", "--on-off"])
    """)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
