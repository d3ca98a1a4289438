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

from psqkd import analysis
from psqkd.analysis import (
    OptimumRecord,
    TGrid,
    _noise_threshold,
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
from psqkd.subtraction import SourceSpec, covariance_subtracted

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


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


def record_hex(rec):
    """Every field of an optimum record, one list per field, floats as hex."""
    floats = (rec.distance_km, rec.t_opt, rec.key_rate_opt, rec.success_prob_at_opt,
              *rec.band_90, *rec.band_50)
    return [hexes(v) for v in floats] + [np.ravel(rec.has_key).tolist()]


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
    SourceSpec.tmsv(20.0),
])
def test_array_optimizer_equals_scalar_loop(src):
    grid = TGrid(count=40, refinements=2)
    rec = optimize_t(src, channel(60.0), 0.95, grid)
    t_opt, rate_opt, bands = scalar_optimum(src, channel(60.0), 0.95, grid)
    assert rec.has_key is True
    assert (rec.t_opt, rec.key_rate_opt) == (t_opt, rate_opt)
    assert [rec.band_90, rec.band_50] == bands
    assert rec.success_prob_at_opt == \
        covariance_subtracted(replace(src, t=t_opt)).success_prob
    assert all(type(x) is float for x in (rec.t_opt, rec.key_rate_opt, *rec.band_90))

    # a distance axis: one optimization, each cell equal to the scalar loop there
    distances = [0.0, 35.0, 60.0, 110.0, 170.0]
    batch = optimize_t(src, channel(np.array(distances)), 0.95, grid)
    for i, d in enumerate(distances):
        t_opt, rate_opt, bands = scalar_optimum(src, channel(d), 0.95, grid)
        assert (batch.t_opt[i], batch.key_rate_opt[i]) == (t_opt, rate_opt)
        assert batch.success_prob_at_opt[i] == \
            covariance_subtracted(replace(src, t=t_opt)).success_prob
        assert batch.has_key[i] == (rate_opt > 0.0)
        cells = [(batch.band_90[0][i], batch.band_90[1][i]),
                 (batch.band_50[0][i], batch.band_50[1][i])]
        if rate_opt > 0.0:
            assert cells == bands
        else:
            assert np.isnan(cells).all()


def reference_band_edges(rate_fn, t_opt, bounds, targets) -> np.ndarray:
    """_band_edges as it stood with a fixed 60 bisection steps, verbatim."""
    truncated = rate_fn(bounds) >= targets
    lo, hi = np.broadcast_to(t_opt, bounds.shape), bounds
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = rate_fn(mid) >= targets
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(truncated, bounds, 0.5 * (lo + hi))


BAND_SOURCES = {
    "k1": SourceSpec.k_photon(20.0, 0.5, 1),
    "k2": SourceSpec.k_photon(20.0, 0.5, 2),
    "on_off": SourceSpec.on_off(20.0, 0.5),
    "k1_eta0.5": SourceSpec.k_photon(20.0, 0.5, 1, eta_d=0.5),
    "none": SourceSpec.tmsv(20.0),
}


@pytest.mark.parametrize("label", list(BAND_SOURCES))
@pytest.mark.parametrize("distance", [60.0, 150.0, np.linspace(0.0, 200.0, 41)],
                         ids=["60km", "150km", "axis41"])
def test_bands_equal_the_fixed_step_bisection(monkeypatch, label, distance):
    # scheme none at 60 km truncates every band, so no bisection runs; at
    # 150 km it has no key, and on the axis it has both kinds of cell
    src, ch = BAND_SOURCES[label], channel(distance)
    rec = optimize_t(src, ch, 0.95)
    monkeypatch.setattr(analysis, "_band_edges", reference_band_edges)
    assert record_hex(rec) == record_hex(optimize_t(src, ch, 0.95))


def count_rate_calls(monkeypatch):
    """Wrap analysis.pipeline_key_rate; the list grows by one per call."""
    calls = []
    real = analysis.pipeline_key_rate

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "pipeline_key_rate", counted)
    return calls


def test_channels_without_key_are_not_bisected(monkeypatch):
    # scheme none at 50 km truncates every band and has no key at 100 km:
    # the grid passes and the one evaluation at the band bounds are all
    calls = count_rate_calls(monkeypatch)
    grid = TGrid()
    rec = optimize_t(SourceSpec.tmsv(20.0), channel(np.array([50.0, 100.0])), 0.95, grid)
    assert rec.has_key.tolist() == [True, False]
    assert np.isnan(rec.band_90[0][1])
    assert len(calls) == grid.refinements + 2


def test_band_edges_skip_and_stop_once_fixed():
    calls = []

    def counted(rate):
        def fn(t):
            calls.append(np.shape(t))
            return rate(t)
        return fn

    t_opt = np.array([0.5, 0.3])
    bounds = np.multiply.outer([0.01, 0.995] * 2, np.ones(2))
    targets = np.multiply.outer([0.9, 0.9, 0.5, 0.5], [1.0, 1.0])
    flat = counted(lambda t: np.ones(np.shape(t)))
    assert hexes(analysis._band_edges(flat, t_opt, bounds, targets)) == hexes(bounds)
    assert len(calls) == 1

    calls.clear()
    peaked = counted(lambda t: 1.0 - 4.0 * (t - t_opt) ** 2)
    found = analysis._band_edges(peaked, t_opt, bounds, targets)
    # brackets reach adjacent doubles within 60 halvings, then stay fixed
    assert len(calls) < 61
    assert hexes(found) == hexes(reference_band_edges(peaked, t_opt, bounds, targets))


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
        assert eps == 0.0 and alive is False

    def test_distance_array_is_searched_cell_by_cell(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        distances = [0.0, 50.0, 250.0, 700.0]
        eps, alive = tolerable_excess_noise(src, np.array(distances))
        assert eps.shape == alive.shape == (4,)
        for i, d in enumerate(distances):
            assert (eps[i], alive[i]) == tolerable_excess_noise(src, d)
        assert list(alive) == [True, True, True, False] and eps[3] == 0.0

    def test_dense_scan_returns_the_last_sign_change(self):
        # Cell 0 is positive below 0.37.  Cell 1 is positive below 0.01 and
        # in the pocket [0.01009, 0.0101): the bisection from [0, 0.5] lands
        # on the first sign change near 0.01, its probe 1e-4 above lies in the
        # pocket, so the bracket contract fails and the dense scan must find
        # the pocket's upper end.
        first, pocket_lo, pocket_hi = np.array([0.37, 0.01]), [1.0, 0.01009], [1.0, 0.0101]
        scans = []

        def rate(eps):
            scans.append(np.shape(eps))
            inside = (eps < first) | ((pocket_lo <= eps) & (eps < pocket_hi))
            return np.where(inside, 1.0, -1.0)

        eps_max, alive = _noise_threshold(rate, (2,))
        assert list(alive) == [True, True]
        assert (4097, 2) in scans
        assert abs(eps_max[1] - pocket_hi[1]) < 1e-5
        assert abs(eps_max[0] - 0.37) < 1e-5
        # a cell's answer does not depend on its neighbour taking the scan
        alone, _ = _noise_threshold(lambda e: np.where(e < 0.37, 1.0, -1.0), ())
        assert eps_max[0] == alone


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
        grid = TGrid(count=32, refinements=0)
        for src in (SourceSpec.tmsv(20.0), SourceSpec.k_photon(20.0, 0.5, 1)):
            for d in (20.0, 60.0):
                pts, rates, rec = landscape(src, channel(d), 0.95, grid)
                assert pts.shape == rates.shape == (32,)
                assert isinstance(rec, OptimumRecord)
                assert rec.distance_km == d
                # without refinement the optimizer scans the same grid
                assert rec.key_rate_opt == rates.max()

    def test_distance_axis_equals_scalar_calls(self):
        grid = TGrid(count=40, refinements=1)
        distances = [0.0, 35.0, 60.0, 110.0, 170.0, 260.0]
        for src in (SourceSpec.tmsv(20.0), SourceSpec.k_photon(20.0, 0.5, 1),
                    SourceSpec.on_off(12.0, 0.5, eta_d=0.8)):
            pts, rates, rec = landscape(src, channel(np.array(distances)), 0.95, grid)
            assert pts.shape == rates.shape == (40, len(distances))
            fields = record_hex(rec)
            for i, d in enumerate(distances):
                pts_d, rates_d, rec_d = landscape(src, channel(d), 0.95, grid)
                assert hexes(pts[:, i]) == hexes(pts_d) == hexes(grid.points())
                assert hexes(rates[:, i]) == hexes(rates_d)
                assert [f[i] for f in fields] == [f[0] for f in record_hex(rec_d)]

    def test_grid_is_evaluated_once(self, monkeypatch):
        # the surface is optimize_t's first grid pass, so a landscape costs
        # the evaluations of its optimize_t and no more
        calls = count_rate_calls(monkeypatch)
        src, ch = SourceSpec.k_photon(20.0, 0.5, 1), channel(np.array([20.0, 80.0, 140.0]))
        rec = optimize_t(src, ch, 0.95)
        optimum_calls, calls[:] = len(calls), []
        pts, rates, rec_l = landscape(src, ch, 0.95)
        assert len(calls) == optimum_calls
        assert record_hex(rec_l) == record_hex(rec)
        assert hexes(rates) == hexes(pipeline_key_rate(replace(src, t=pts), ch).key_rate)

    def test_none_surface_is_flat_in_t(self):
        _, rates, _ = landscape(SourceSpec.tmsv(20.0), channel(30.0),
                                t_grid=TGrid(count=32, refinements=0))
        assert len(set(rates.tolist())) == 1


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
