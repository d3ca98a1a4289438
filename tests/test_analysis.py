"""Pipeline evaluation, tap optimization, noise and distance searches.

Quantitative anchors are closed forms evaluated independently; the physics
orderings (crossover distances, detector-efficiency ranking) assert the
directions obtained from the analytic chain, which the other test modules
pin down entrywise.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from psqkd.analysis import (
    OptimumRecord,
    ScanSpec,
    TGrid,
    beta_from_rate_snr,
    landscape,
    max_distance,
    optimize_t,
    pipeline_key_rate,
    scheme_label,
    snr_from_rate_beta,
    success_curves,
    tolerable_excess_noise,
)
from psqkd.errors import DomainError
from psqkd.gaussian import ChannelSpec
from psqkd.subtraction import SourceSpec

# Paper-reported (code rate, SNR, beta) operating points.
TABLE_ROWS = [
    (0.1, 0.1626, 0.9202),
    (0.1, 0.1613, 0.9271),
    (0.1, 0.1600, 0.9340),
    (0.02, 0.0301, 0.9337),
    (0.02, 0.0296, 0.9497),
    (0.02, 0.0293, 0.9594),
]


def channel(d, eps=0.01):
    return ChannelSpec(distance_km=d, loss_db_per_km=0.2, epsilon=eps)


class TestPipeline:
    def test_lossless_noiseless_baseline(self):
        rep = pipeline_key_rate(SourceSpec.tmsv(20.0),
                                ChannelSpec(t_c=1.0, epsilon=0.0), beta=1.0)
        assert rep.key_rate == pytest.approx(0.5 * math.log2(20.0), abs=1e-6)
        assert rep.success_prob == 1.0

    def test_uncorrelated_source_has_no_key(self):
        rep = pipeline_key_rate(SourceSpec.tmsv(1.0),
                                ChannelSpec(t_c=1.0, epsilon=0.0), beta=1.0)
        assert rep.key_rate <= 0.0

    def test_single_click_beats_none_at_long_distance(self):
        none = pipeline_key_rate(SourceSpec.tmsv(20.0), channel(100.0))
        k1 = pipeline_key_rate(SourceSpec.k_photon(20.0, 0.8, 1), channel(100.0))
        assert none.key_rate < 0.0 < k1.key_rate

    def test_success_prob_weighting(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        rep = pipeline_key_rate(src, channel(30.0))
        assert rep.success_prob == pytest.approx(190.0 / 841.0, rel=1e-12)
        assert rep.key_rate == pytest.approx(rep.success_prob * rep.raw_rate, rel=1e-12)


class TestOptimizeT:
    def test_grid_dominance_and_determinism(self):
        src = SourceSpec.k_photon(20.0, 0.5, 1)
        grid = TGrid(count=48, refinements=1)
        rec = optimize_t(src, channel(100.0), t_grid=grid)
        again = optimize_t(src, channel(100.0), t_grid=grid)
        assert rec == again
        for t in grid.points():
            r = pipeline_key_rate(SourceSpec.k_photon(20.0, float(t), 1),
                                  channel(100.0)).key_rate
            assert rec.key_rate_opt >= r

    def test_band_structure_at_100km(self):
        rec = optimize_t(SourceSpec.k_photon(20.0, 0.5, 1), channel(100.0))
        assert rec.has_key
        lo90, hi90 = rec.band_90
        lo50, hi50 = rec.band_50
        assert lo90 < rec.t_opt < hi90
        assert lo50 <= lo90 < hi90 <= hi50
        for (t_edge, frac) in ((lo90, 0.9), (hi90, 0.9), (lo50, 0.5), (hi50, 0.5)):
            if t_edge in (rec.band_90 + rec.band_50) and t_edge not in (0.01, 0.995):
                r = pipeline_key_rate(SourceSpec.k_photon(20.0, t_edge, 1),
                                      channel(100.0)).key_rate
                assert r == pytest.approx(frac * rec.key_rate_opt, rel=5e-3)

    def test_no_key_flag_under_heavy_noise(self):
        rec = optimize_t(SourceSpec.k_photon(20.0, 0.5, 1), channel(100.0, eps=0.2),
                         t_grid=TGrid(count=32, refinements=0))
        assert not rec.has_key
        assert math.isnan(rec.band_90[0]) and math.isnan(rec.band_50[1])

    def test_success_prob_at_opt_matches_scheme(self):
        rec = optimize_t(SourceSpec.k_photon(20.0, 0.5, 1), channel(60.0),
                         t_grid=TGrid(count=48, refinements=1))
        from psqkd.subtraction import success_prob_k

        expected = success_prob_k(SourceSpec.k_photon(20.0, rec.t_opt, 1))
        assert rec.success_prob_at_opt == pytest.approx(expected, rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            TGrid(count=16)
        with pytest.raises(DomainError):
            TGrid(lo=0.0)
        with pytest.raises(DomainError):
            TGrid(lo=0.9, hi=0.5)


def scalar_optimum(src, ch, beta, grid):
    """Reference optimizer: one scalar pipeline call per grid point and per
    bisection step, the loop that optimize_t replaces with array passes."""
    def rate(t):
        return pipeline_key_rate(replace(src, t=float(t)), ch, beta).key_rate

    lo, hi = grid.lo, grid.hi
    t_opt, rate_opt = grid.lo, -math.inf
    for _ in range(grid.refinements + 1):
        pts = grid.points(lo, hi)
        rates = np.array([rate(t) for t in pts])
        i = int(np.argmax(rates))
        if rates[i] > rate_opt:
            t_opt, rate_opt = float(pts[i]), float(rates[i])
        span = (hi - lo) / 10.0
        lo = max(grid.lo, t_opt - 0.5 * span)
        hi = min(grid.hi, t_opt + 0.5 * span)

    def edge(bound, target):
        if rate(bound) >= target:
            return bound
        a, b = t_opt, bound
        for _ in range(60):
            mid = 0.5 * (a + b)
            if rate(mid) >= target:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    bands = [(edge(grid.lo, f * rate_opt), edge(grid.hi, f * rate_opt))
             for f in (0.9, 0.5)]
    return t_opt, rate_opt, bands


@pytest.mark.parametrize("src", [
    SourceSpec.k_photon(20.0, 0.5, 1),
    SourceSpec.k_photon(20.0, 0.5, 2, eta_d=0.6),
    SourceSpec.on_off(12.0, 0.5, eta_d=0.8),
])
def test_array_optimizer_equals_scalar_loop(src):
    grid = TGrid(count=40, refinements=2)
    rec = optimize_t(src, channel(60.0), 0.95, grid)
    t_opt, rate_opt, bands = scalar_optimum(src, channel(60.0), 0.95, grid)
    assert rec.has_key
    assert (rec.t_opt, rec.key_rate_opt) == (t_opt, rate_opt)
    assert [rec.band_90, rec.band_50] == bands


class TestTolerableNoise:
    def test_lossless_channel_tolerates_noise(self):
        eps, alive = tolerable_excess_noise(SourceSpec.tmsv(20.0), 0.0)
        assert alive and eps > 0.0

    def test_bracket_contract(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        eps, alive = tolerable_excess_noise(src, 50.0)
        assert alive
        lo = pipeline_key_rate(src, channel(50.0, eps - 1e-4)).key_rate
        hi = pipeline_key_rate(src, channel(50.0, eps + 1e-4)).key_rate
        assert lo > 0.0 >= hi

    def test_dead_at_zero_noise_flags(self):
        eps, alive = tolerable_excess_noise(SourceSpec.tmsv(20.0), 250.0)
        assert eps == 0.0 and not alive


class TestMaxDistance:
    def test_fixed_t_has_finite_reach(self):
        d = max_distance(SourceSpec.tmsv(20.0))
        assert 80.0 < d < 100.0
        rate = pipeline_key_rate(SourceSpec.tmsv(20.0), channel(d)).key_rate
        assert rate > 1e-6
        beyond = pipeline_key_rate(SourceSpec.tmsv(20.0), channel(d + 0.2)).key_rate
        assert beyond <= 1e-6

    def test_subtraction_extends_reach(self):
        grid = TGrid(count=48, refinements=1)
        d_none = max_distance(SourceSpec.tmsv(20.0))
        d_k1 = max_distance(SourceSpec.k_photon(20.0, 0.5, 1), t_grid=grid,
                            d_hi=300.0, resolution_km=0.5)
        assert d_k1 > d_none + 50.0


class TestDetectorEfficiency:
    def test_rate_ordering_at_40km(self):
        rates = [
            pipeline_key_rate(SourceSpec.k_photon(20.0, 0.8, 1, eta_d=eta),
                              channel(40.0)).key_rate
            for eta in (1.0, 0.8, 0.5)
        ]
        assert rates[0] > rates[1] > rates[2] > 0.0

    def test_lossy_counter_shortens_reach_below_none(self):
        d_lossy = max_distance(SourceSpec.k_photon(20.0, 0.8, 1, eta_d=0.5))
        d_none = max_distance(SourceSpec.tmsv(20.0))
        assert 0.0 < d_lossy < d_none


class TestLandscape:
    def test_rows_and_optima_shapes(self):
        scan = ScanSpec(
            distances_km=(20.0, 60.0),
            schemes=(SourceSpec.tmsv(20.0), SourceSpec.k_photon(20.0, 0.5, 1)),
            t_grid=TGrid(count=32, refinements=0),
        )
        rows, optima = landscape(scan)
        assert len(rows) == 2 * 2 * 32
        assert len(optima) == 4
        assert all(isinstance(o, OptimumRecord) for o in optima)

    def test_none_surface_is_flat_in_t(self):
        scan = ScanSpec(distances_km=(30.0,), schemes=(SourceSpec.tmsv(20.0),),
                        t_grid=TGrid(count=32, refinements=0))
        rows, _ = landscape(scan)
        rates = {r[3] for r in rows}
        assert len(rates) == 1

    def test_scan_validation(self):
        with pytest.raises(DomainError):
            ScanSpec(distances_km=(10.0, 10.0), schemes=(SourceSpec.tmsv(20.0),))
        with pytest.raises(DomainError):
            ScanSpec(distances_km=(), schemes=(SourceSpec.tmsv(20.0),))


class TestSuccessCurves:
    def test_all_curves_vanish_at_unit_transmittance(self):
        ts, curves = success_curves(20.0, (1, 2, 3, 4), 50)
        assert ts[-1] == 1.0
        for k, p in curves.items():
            assert p[-1] == 0.0

    def test_single_click_peak(self):
        ts = np.linspace(0.8, 0.99, 2000)
        _, curves = success_curves(20.0, (1,), ts)
        assert curves[1].max() == pytest.approx(0.25, abs=1e-5)

    def test_ordering_above_t06(self):
        ts = np.linspace(0.6, 0.999, 80)
        _, curves = success_curves(20.0, (1, 2, 3, 4), ts)
        assert np.all(curves[1] > curves[2])
        assert np.all(curves[2] > curves[3])
        assert np.all(curves[3] > curves[4])


class TestBetaArithmetic:
    def test_table_rows_within_band(self):
        for rate, snr, beta in TABLE_ROWS:
            assert beta_from_rate_snr(rate, snr) == pytest.approx(beta, abs=0.003)

    def test_first_row_value(self):
        assert beta_from_rate_snr(0.1, 0.1626) == pytest.approx(0.920154, abs=1e-4)

    def test_capacity_achieving_is_unity(self):
        for rate in (0.02, 0.1, 0.5):
            snr = 2.0 ** (2.0 * rate) - 1.0
            assert beta_from_rate_snr(rate, snr) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_round_trip(self):
        for rate, snr, _ in TABLE_ROWS:
            beta = beta_from_rate_snr(rate, snr)
            assert snr_from_rate_beta(rate, beta) == pytest.approx(snr, rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            beta_from_rate_snr(0.0, 0.1)
        with pytest.raises(DomainError):
            beta_from_rate_snr(0.1, 0.0)
        with pytest.raises(DomainError):
            snr_from_rate_beta(0.1, 0.0)


def test_scheme_labels():
    assert scheme_label(SourceSpec.tmsv(20.0)) == "none"
    assert scheme_label(SourceSpec.k_photon(20.0, 0.8, 2)) == "k2"
    assert scheme_label(SourceSpec.k_photon(20.0, 0.8, 1, eta_d=0.5)) == "k1_eta0.5"
    assert scheme_label(SourceSpec.on_off(20.0, 0.8)) == "on_off"
