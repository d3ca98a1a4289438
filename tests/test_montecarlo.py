"""Monte Carlo sampler tests: estimator calibration against the analytic
chain for ideal and lossy counters, rescaling, exact accepted-pair draws
against the rejection sampler, and record IO (pinned bytes, a round-trip
property, malformed input, the bytes of the % formatter it replaced, and
the values and errors of the np.loadtxt loader the exact reader sits in
front of).

Statistical checks run at fixed seeds verified to sit inside their 3-sigma
bands (inflated 20% for moment estimators, whose Gaussian-formula standard
errors run small on the non-Gaussian accepted subset).  A fresh seed is the
intended fix if a band check ever trips after a code change.
"""

import gzip
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import astuple
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mc_bands import SE_INFLATION, cov_within

from psqkd import montecarlo
from psqkd.errors import DomainError, EstimationError
from psqkd.gaussian import (
    ChannelSpec,
    TwoModeCovariance,
    _xlogy,
    apply_channel,
    key_rate_homodyne,
)
from psqkd.montecarlo import (
    _IO_CHUNK,
    ExperimentRecords,
    RescaleSpec,
    _chunk_sums,
    _estimate,
    _receiver,
    collect_accepted_pairs,
    export_records,
    load_records,
    rescale_and_filter,
    run_experiment,
)
from psqkd.subtraction import (
    SourceSpec,
    _filter_coefficient,
    covariance_subtracted,
    filter_q,
    v_tilde,
)

IDEAL = ChannelSpec(t_c=1.0, epsilon=0.0)
BAND = 3.0 * SE_INFLATION


def analytic_cov(src, ch):
    return apply_channel(covariance_subtracted(src).cov, ch)


@pytest.fixture(scope="module")
def k1_ideal_run():
    """Ten-million-sample single-click run with no channel, shared below."""
    src = SourceSpec.k_photon(20.0, 0.8, 1)
    return src, run_experiment(src, IDEAL, 10**7, seed=7, keep_records=False)


class TestRunExperiment:
    def test_passthrough_covariance(self):
        # k=0 at t=1 accepts everything: raw squeezed-pair statistics
        src = SourceSpec.k_photon(20.0, 1.0, 0)
        res = run_experiment(src, IDEAL, 10**6, seed=1, keep_records=False)
        est = res.estimate
        assert est.accept_rate == 1.0
        assert est.n_accepted == 10**6
        want = TwoModeCovariance(v1=20.0, v2=20.0, phi=math.sqrt(399.0))
        assert abs(est.cov.v1 - want.v1) <= BAND * est.se_v1
        assert abs(est.cov.v2 - want.v2) <= BAND * est.se_v2
        assert abs(est.cov.phi - want.phi) <= BAND * est.se_phi

    def test_accept_rate_matches_click_probability(self, k1_ideal_run):
        src, res = k1_ideal_run
        est = res.estimate
        assert abs(est.accept_rate - 190.0 / 841.0) <= 3.0 * est.se_accept

    def test_accepted_variance_matches_conditional(self, k1_ideal_run):
        # accepted second moment of x_a estimates the conditional
        # heterodyne variance (k+1)/(1 - t lam^2) = 210/29
        src, res = k1_ideal_run
        est = res.estimate
        assert abs(est.m2_xa - 210.0 / 29.0) <= BAND * est.se_m2_xa

    def test_accepted_means_vanish(self, k1_ideal_run):
        src, res = k1_ideal_run
        est = res.estimate
        assert abs(est.mean_xa) < 4.0 * est.se_mean
        assert abs(est.mean_pa) < 4.0 * est.se_mean

    def test_chain_consistency_matrix(self):
        # every config: empirical covariance vs the analytic chain
        ok = []
        for k in (0, 1, 2):
            for t in (0.6, 0.8):
                for t_c in (1.0, 0.1):
                    src = SourceSpec.k_photon(20.0, t, k)
                    ch = ChannelSpec(t_c=t_c, epsilon=0.01)
                    res = run_experiment(src, ch, 10**7, seed=20260819,
                                         keep_records=False)
                    ok.append(cov_within(res.estimate, analytic_cov(src, ch)))
        assert all(ok)

    def test_on_off_chain_consistency(self):
        src = SourceSpec.on_off(20.0, 0.8)
        ch = ChannelSpec(t_c=0.1, epsilon=0.01)
        res = run_experiment(src, ch, 10**6, seed=5, keep_records=False)
        est = res.estimate
        assert cov_within(est, analytic_cov(src, ch))
        p = covariance_subtracted(src).success_prob
        assert abs(est.accept_rate - p) <= 3.0 * est.se_accept

    def test_empirical_rate_reproduces_pipeline(self):
        # feed the empirical covariance through the key-rate formula and
        # compare against the analytic pipeline within propagated error
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        ch = ChannelSpec(distance_km=100.0, loss_db_per_km=0.2, epsilon=0.01)
        res = run_experiment(src, ch, 10**7, seed=17, keep_records=False)
        est = res.estimate
        rep = covariance_subtracted(src)
        tgt = apply_channel(rep.cov, ch)

        def rate(v1, v2, phi):
            cov = TwoModeCovariance(v1=v1, v2=v2, phi=phi)
            return key_rate_homodyne(cov, 0.95, success_prob=rep.success_prob).key_rate

        h = 1e-5
        dv1 = (rate(tgt.v1 + h, tgt.v2, tgt.phi) - rate(tgt.v1 - h, tgt.v2, tgt.phi)) / (2 * h)
        dv2 = (rate(tgt.v1, tgt.v2 + h, tgt.phi) - rate(tgt.v1, tgt.v2 - h, tgt.phi)) / (2 * h)
        dph = (rate(tgt.v1, tgt.v2, tgt.phi + h) - rate(tgt.v1, tgt.v2, tgt.phi - h)) / (2 * h)
        band = BAND * (abs(dv1) * est.se_v1 + abs(dv2) * est.se_v2 + abs(dph) * est.se_phi)
        emp = rate(est.cov.v1, est.cov.v2, est.cov.phi)
        ana = rate(tgt.v1, tgt.v2, tgt.phi)
        assert abs(emp - ana) <= band

    def test_seed_reproducibility(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        ch = ChannelSpec(t_c=0.5, epsilon=0.02)
        a = run_experiment(src, ch, 30_000, seed=77)
        b = run_experiment(src, ch, 30_000, seed=77)
        c = run_experiment(src, ch, 30_000, seed=78)
        assert a.estimate == b.estimate
        assert np.array_equal(a.records.x_a, b.records.x_a)
        assert np.array_equal(a.records.x_b, b.records.x_b)
        assert np.array_equal(a.records.accepted, b.records.accepted)
        assert not np.array_equal(a.records.x_a, c.records.x_a)

    def test_chunks_form_stream_prefix(self):
        # chunk i owns child stream i of the seed, so a longer run extends
        # a shorter one sample for sample
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        n = 1 << 20
        big = run_experiment(src, IDEAL, n + 4321, seed=55).records
        small = run_experiment(src, IDEAL, n, seed=55).records
        assert np.array_equal(big.x_a[:n], small.x_a)
        assert np.array_equal(big.p_a[:n], small.p_a)
        assert np.array_equal(big.x_b[:n], small.x_b)

    def test_keep_records_flag(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        a = run_experiment(src, IDEAL, 10_000, seed=4, keep_records=False)
        b = run_experiment(src, IDEAL, 10_000, seed=4, keep_records=True)
        assert a.records is None
        assert len(b.records) == 10_000
        assert a.estimate == b.estimate

    def test_zero_accepted_raises(self):
        # 64-click filter on a nearly unsqueezed source: acceptance is
        # astronomically small, so every draw is rejected
        src = SourceSpec.k_photon(1.5, 0.99, 64)
        with pytest.raises(EstimationError):
            run_experiment(src, IDEAL, 10_000, seed=2)

    def test_validation(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        with pytest.raises(DomainError):
            run_experiment(src, IDEAL, 9_999, seed=1)


LOSSY_SOURCES = [
    SourceSpec.k_photon(20.0, 0.8, 0, eta_d=0.7),
    SourceSpec.k_photon(20.0, 0.8, 1, eta_d=0.5),
    SourceSpec.k_photon(20.0, 0.8, 2, eta_d=0.3),
    SourceSpec.on_off(20.0, 0.8, eta_d=0.5),
]
LOSSY_IDS = ["k0_eta0.7", "k1_eta0.5", "k2_eta0.3", "onoff_eta0.5"]
# heterodyne outcomes whose squares stay normal floats, so both sides of
# the thinning identity compute u to a few ulp
OUTCOMES = st.one_of(st.just(0.0), st.floats(1e-3, 20.0), st.floats(-20.0, -1e-3))


class TestLossyCounter:
    @pytest.mark.parametrize("src", LOSSY_SOURCES, ids=LOSSY_IDS)
    def test_matches_closed_forms(self, src):
        # the thinned filter reproduces the closed-form counter-loss laws:
        # acceptance, accepted heterodyne variance and post-channel covariance
        ch = ChannelSpec(t_c=0.1, epsilon=0.01)
        est = run_experiment(src, ch, 10**6, seed=21, keep_records=False).estimate
        rep = covariance_subtracted(src)
        assert cov_within(est, apply_channel(rep.cov, ch))
        assert abs(est.accept_rate - rep.success_prob) <= 3.0 * est.se_accept
        assert abs(est.m2_xa - rep.v_tilde) <= BAND * est.se_m2_xa

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(v=st.floats(1.0, 60.0), t=st.floats(0.01, 1.0), eta=st.floats(0.05, 1.0),
           k=st.integers(-1, 8), x=OUTCOMES, p=OUTCOMES)
    def test_filter_thins_outcomes(self, v, t, eta, k, x, p):
        # a counter of efficiency eta equals an ideal one on outcomes scaled
        # by sqrt(eta); k = -1 stands for the on-off scheme
        def source(eta_d):
            if k < 0:
                return SourceSpec.on_off(v, t, eta_d)
            return SourceSpec.k_photon(v, t, k, eta_d)

        lossy = filter_q(x, p, source(eta))
        ideal = filter_q(math.sqrt(eta) * x, math.sqrt(eta) * p, source(1.0))
        assert abs(lossy - ideal) <= 1e-12 * max(abs(lossy), abs(ideal))


class TestRescale:
    def test_derived_quantities(self):
        spec = RescaleSpec(v=20.0, t0=0.8, eta=0.9)
        assert spec.v_prime == pytest.approx(17.8888888889, abs=1e-6)
        assert abs(spec.g - 0.94841) < 1e-5

    def test_identity_when_transmittances_match(self):
        spec = RescaleSpec(v=20.0, t0=0.8, eta=0.8)
        assert spec.g == 1.0
        assert spec.v_prime == 20.0
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        recs = run_experiment(src, IDEAL, 10_000, seed=6).records
        out, _ = rescale_and_filter(recs, spec, k=1, seed=5)
        assert np.array_equal(out.x_a, recs.x_a)
        assert np.array_equal(out.p_a, recs.p_a)
        assert np.array_equal(out.x_b, recs.x_b)

    def test_sent_amplitude_identity(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            v = float(rng.uniform(1.0, 60.0))
            t0 = float(rng.uniform(0.05, 1.0))
            eta = float(rng.uniform(0.05, 1.0))
            spec = RescaleSpec(v=v, t0=t0, eta=eta)
            lam = math.sqrt((v - 1.0) / (v + 1.0))
            sent = math.sqrt(eta) * spec.lam_prime * spec.g
            assert abs(sent - math.sqrt(t0) * lam) <= 1e-12

    def test_rescaled_statistics_match_fresh_run(self):
        # records taken at t0 = 0.8, re-filtered for eta = 0.9: accepted
        # statistics must look like a genuine (v', eta) single-click run
        src0 = SourceSpec.k_photon(20.0, 0.8, 1)
        ch = ChannelSpec(t_c=0.1, epsilon=0.01)
        recs = run_experiment(src0, ch, 10**6, seed=31).records
        spec = RescaleSpec(v=20.0, t0=0.8, eta=0.9)
        _, est = rescale_and_filter(recs, spec, k=1, seed=99)
        src1 = SourceSpec.k_photon(spec.v_prime, spec.eta, 1)
        rep1 = covariance_subtracted(src1)
        assert abs(est.m2_xa - rep1.v_tilde) <= BAND * est.se_m2_xa
        assert cov_within(est, apply_channel(rep1.cov, ch))
        assert abs(est.accept_rate - rep1.success_prob) <= 3.0 * est.se_accept

    def test_validation(self):
        with pytest.raises(DomainError):
            RescaleSpec(v=0.5, t0=0.8, eta=0.9)
        with pytest.raises(DomainError):
            RescaleSpec(v=20.0, t0=0.0, eta=0.9)
        with pytest.raises(DomainError):
            RescaleSpec(v=20.0, t0=0.8, eta=1.5)

    @pytest.mark.parametrize("name", ["g", "v_prime"])
    def test_derived_fields_cannot_be_passed(self, name):
        # g and v_prime follow from (v, t0, eta), so the constructor takes neither
        with pytest.raises(TypeError):
            RescaleSpec(20.0, 0.8, 0.5, **{name: 3.0})


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, grid, side="right") / a.size
                        - np.searchsorted(b, grid, side="right") / b.size).max())


def mean_gap_in_band(u, w, n_sigma=4.0):
    """|mean(u) - mean(w)| within n_sigma of the two-sample standard error."""
    se = math.sqrt(u.var() / u.size + w.var() / w.size)
    return abs(u.mean() - w.mean()) <= n_sigma * se


EXACT_SOURCES = [
    SourceSpec.k_photon(20.0, 0.8, 1),
    SourceSpec.k_photon(20.0, 0.8, 2, eta_d=0.5),
    SourceSpec.on_off(20.0, 0.8, eta_d=0.7),
    SourceSpec.tmsv(20.0),
]
EXACT_IDS = ["k1", "k2_eta0.5", "onoff_eta0.7", "none"]


class TestCollectAcceptedPairs:
    @pytest.mark.parametrize("src", EXACT_SOURCES, ids=EXACT_IDS)
    def test_matches_rejection_sampler(self, src):
        # the exact draw against the accepted subset of run_experiment, the
        # independent rejection-sampling reference: second moments within
        # their two-sample bands, and the x_a marginals by a two-sample KS
        # test (sqrt(n_eff) D < 1.95 is the 0.1 % level of the Kolmogorov law)
        ch = ChannelSpec(t_c=0.5, epsilon=0.02)
        recs = run_experiment(src, ch, 4 * 10**6, seed=44).records
        acc = recs.accepted
        xr, yr = recs.x_a[acc], recs.x_b[acc]
        xe, ye = collect_accepted_pairs(src, ch, 4 * 10**5, seed=45)
        assert xe.shape == ye.shape == (4 * 10**5,)
        for u, w in ((xe * xe, xr * xr), (xe * ye, xr * yr), (ye * ye, yr * yr)):
            assert mean_gap_in_band(u, w)
        n_eff = xe.size * xr.size / (xe.size + xr.size)
        assert math.sqrt(n_eff) * ks_statistic(xe, xr) < 1.95

    def test_low_acceptance_source_returns_pairs(self):
        # 64 clicks on a nearly unsqueezed source: acceptance is
        # astronomically small, yet the exact law costs the same per pair
        src = SourceSpec.k_photon(1.5, 0.99, 64)
        xa, xb = collect_accepted_pairs(src, IDEAL, 10_000, seed=1)
        assert xa.shape == xb.shape == (10_000,)
        assert covariance_subtracted(src).success_prob < 1e-100
        m2 = xa * xa
        assert abs(m2.mean() - v_tilde(src)) <= 4.0 * m2.std() / math.sqrt(m2.size)

    def test_seed_reproducibility(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        a = collect_accepted_pairs(src, IDEAL, 1000, seed=3)
        b = collect_accepted_pairs(src, IDEAL, 1000, seed=3)
        c = collect_accepted_pairs(src, IDEAL, 1000, seed=4)
        assert all(np.array_equal(u, w) for u, w in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    def test_validation(self):
        with pytest.raises(DomainError):
            collect_accepted_pairs(SourceSpec.k_photon(20.0, 0.8, 1), IDEAL, 0, seed=1)


# Text written by export_records for PINNED_RECORDS: -0.0, subnormals,
# +-1e300, integral floats (printed without a point) and both verdicts.
PINNED_TEXT = (
    "# columns=x_a p_a accepted x_b\n"
    "# n_samples=5\n"
    "-0 1.5 1 0\n"
    "4.9406564584124654e-324 -2.2250738585072014e-308 0 2.5000000000000171e-310\n"
    "1.0000000000000001e+300 -3 1 -1.0000000000000001e+300\n"
    "2 0.33333333333333331 0 123456789\n"
    "0.10000000000000001 -7.25e-05 1 1.7976931348623157e+308\n"
)
PINNED_RECORDS = ExperimentRecords(
    x_a=np.array([-0.0, 5e-324, 1e300, 2.0, 0.1]),
    p_a=np.array([1.5, -2.2250738585072014e-308, -3.0, 1 / 3, -7.25e-5]),
    accepted=np.array([True, False, True, False, True]),
    x_b=np.array([0.0, 2.5e-310, -1e300, 123456789.0, 1.7976931348623157e308]),
)
GOOD_LINE = "0.5 -1.25 1 3\n"


@st.composite
def record_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    col = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=n, max_size=n)
    return ExperimentRecords(
        x_a=np.array(draw(col)), p_a=np.array(draw(col)),
        accepted=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        x_b=np.array(draw(col)),
    )


def assert_bit_identical(back, recs):
    # loaded float columns are strided views of one block; tobytes() reads
    # them in logical order, so this compares values bit for bit
    for name in ("x_a", "p_a", "x_b", "accepted"):
        got, want = getattr(back, name), getattr(recs, name)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        recs = run_experiment(src, IDEAL, 10_000, seed=9).records
        for name in ("records.txt", "records.txt.gz"):
            path = str(tmp_path / name)
            export_records(recs, path)
            assert_bit_identical(load_records(path), recs)

    def test_pinned_bytes(self, tmp_path):
        for name, read in (("pin.txt", Path.read_bytes),
                           ("pin.txt.gz", lambda p: gzip.decompress(p.read_bytes()))):
            path = tmp_path / name
            export_records(PINNED_RECORDS, str(path))
            assert read(path) == PINNED_TEXT.encode()
            assert_bit_identical(load_records(str(path)), PINNED_RECORDS)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(recs=record_sets())
    def test_round_trip_property(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("r.txt", "r.txt.gz"):
                path = str(Path(tmp) / name)
                export_records(recs, path)
                assert_bit_identical(load_records(path), recs)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("# columns=x_a p_a accepted x_b\n" + GOOD_LINE
                        + "\n   \n# a note\n" + "1e-3 2 0 -4\n")
        back = load_records(str(path))
        assert back.x_a.tolist() == [0.5, 1e-3]
        assert back.accepted.tolist() == [True, False]
        assert back.x_b.tolist() == [3.0, -4.0]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 1\n")
        with pytest.raises(DomainError):
            load_records(str(path))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# columns=x_a p_a accepted x_b\n# n_samples=0\n")
        with pytest.raises(DomainError):
            load_records(str(path))

    @pytest.mark.parametrize("text", [
        GOOD_LINE + "0.1 0.2 1\n" + GOOD_LINE,      # a short line among good ones
        GOOD_LINE + "0.1 0.2 1 0.3 0.4\n",          # five fields
        GOOD_LINE + "0.1 abc 1 0.3\n",              # non-numeric token
        GOOD_LINE + "0.1 0.2 2 0.3\n",              # accepted outside {0, 1}
        "",                                         # empty file
    ])
    def test_malformed_input_raises(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DomainError):
            load_records(str(path))

    def test_caller_arrays_stay_writeable(self):
        # records hold read-only views: no copy, and the caller's arrays
        # keep their own flags
        x = np.zeros(3)
        recs = ExperimentRecords(x_a=x, p_a=np.zeros(3),
                                 accepted=np.zeros(3, dtype=bool), x_b=np.zeros(3))
        x[0] = 1.0
        assert np.shares_memory(recs.x_a, x)
        assert recs.x_a[0] == 1.0
        for col in (recs.x_a, recs.p_a, recs.accepted, recs.x_b):
            with pytest.raises(ValueError):
                col[0] = 2.0

    def test_load_peak_memory(self, tmp_path):
        # the columns are views of the one loaded block, so a load holds the
        # record data once; a contiguous copy of the columns would double it
        n = 200_000
        rng = np.random.default_rng(3)
        recs = ExperimentRecords(x_a=rng.standard_normal(n), p_a=rng.standard_normal(n),
                                 accepted=rng.random(n) < 0.3, x_b=rng.standard_normal(n))
        path = str(tmp_path / "peak.txt")
        export_records(recs, path)
        column_bytes = 4 * 8 * n
        tracemalloc.start()
        try:
            back = load_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == n
        assert peak < 1.5 * column_bytes, f"peak {peak / column_bytes:.2f}x the column bytes"

    def test_export_peak_memory(self):
        # rows are formatted chunk by chunk: the peak is a chunk's working
        # set, not the file's text (~16 MB here)
        n = 1 << 18
        x, p, acc, y = gaussian_records(n, seed=4)
        recs = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y)
        with tempfile.TemporaryDirectory() as tmp:
            tracemalloc.start()
            try:
                export_records(recs, str(Path(tmp) / "peak.txt"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 << 20, f"peak {peak / 2**20:.2f} MB"

    def test_column_validation(self):
        with pytest.raises(DomainError):
            ExperimentRecords(
                x_a=np.zeros(3), p_a=np.zeros(3),
                accepted=np.zeros(2, dtype=bool), x_b=np.zeros(3),
            )


def reference_export_records(records, path):
    """export_records as it stood before the NumPy formatter, verbatim."""
    if str(path).endswith(".gz"):
        fh = gzip.open(path, "wt", compresslevel=1)
    else:
        fh = open(path, "w")
    n = len(records)
    with fh:
        fh.write("# columns=x_a p_a accepted x_b\n")
        fh.write(f"# n_samples={n}\n")
        for lo in range(0, n, 1 << 12):
            cols = [col[lo:lo + (1 << 12)].tolist() for col in
                    (records.x_a, records.p_a, records.accepted, records.x_b)]
            # one % over the whole chunk, row-major values
            fh.write("%.17g %.17g %d %.17g\n" * len(cols[0])
                     % tuple(chain.from_iterable(zip(*cols))))


def gaussian_records(n, seed):
    rng = np.random.default_rng(seed)
    x, p, y = rng.normal(0.0, 3.0, (3, n))
    return x, p, rng.random(n) < 0.3, y


def assert_exports_like_reference(recs, tmp_path):
    want_path = tmp_path / "want.txt"
    reference_export_records(recs, str(want_path))
    want = want_path.read_bytes()
    for name, read in (("got.txt", Path.read_bytes),
                       ("got.txt.gz", lambda p: gzip.decompress(p.read_bytes()))):
        path = tmp_path / name
        export_records(recs, str(path))
        assert read(path) == want, name


# values the NumPy formatter leaves to %: zeros, subnormals, non-finite
# values and those %g prints with an exponent
FALLBACK_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan,
                   9.9999999999999991e-05, -1e-5, 1e16, 1e300]


class TestExportMatchesReference:
    @pytest.mark.parametrize("n", [1, _IO_CHUNK - 1, _IO_CHUNK, _IO_CHUNK + 1,
                                   3 * _IO_CHUNK + 17])
    def test_gaussian_rows(self, n, tmp_path):
        x, p, acc, y = gaussian_records(n, seed=n)
        assert_exports_like_reference(
            ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y), tmp_path)

    def test_fallback_rows_first_last_and_at_chunk_edges(self, tmp_path):
        n = 3 * _IO_CHUNK + 17
        x, p, acc, y = gaussian_records(n, seed=5)
        rows = [0, 1, _IO_CHUNK - 1, _IO_CHUNK, 2 * _IO_CHUNK - 1, 2 * _IO_CHUNK,
                3 * _IO_CHUNK, n - 2, n - 1]
        for i, row in enumerate(rows):
            col = (x, p, y)[i % 3]
            col[row] = FALLBACK_VALUES[i % len(FALLBACK_VALUES)]
        # a whole chunk's edge of fallback rows, and one row of nothing else
        x[_IO_CHUNK - 3:_IO_CHUNK + 3] = 0.0
        x[7], p[7], y[7] = math.nan, -0.0, 1e300
        assert_exports_like_reference(
            ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y), tmp_path)

    def test_k1_run_over_two_chunks(self, tmp_path):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        recs = run_experiment(src, ChannelSpec(t_c=0.1, epsilon=0.01), (1 << 20) + 5,
                              seed=10).records
        assert_exports_like_reference(recs, tmp_path)


def reference_load_records(path: str) -> ExperimentRecords:
    """load_records as it stood before the exact reader, verbatim."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"malformed record file {path}: {exc}") from None
    if data.shape[0] == 0:
        raise DomainError(f"no records found in {path}")
    if data.shape[1] != 4:
        raise DomainError(f"malformed record file {path}: {data.shape[1]} fields "
                          "per line, expected 4")
    # column views of the one loaded block; a contiguous copy would double
    # the peak memory of a load
    x_a, p_a, acc, x_b = data.T
    valid = (acc == 0.0) | (acc == 1.0)
    if not valid.all():
        bad = acc[~valid][0]
        raise DomainError(f"accepted field must be 0 or 1 in {path}, got {bad:g}")
    return ExperimentRecords(x_a=x_a, p_a=p_a, accepted=acc == 1.0, x_b=x_b)


def load_outcome(load, path):
    """The columns' dtypes and bytes, or the type and message of the error."""
    try:
        recs = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(col.dtype.str, col.tobytes())
            for col in (recs.x_a, recs.p_a, recs.accepted, recs.x_b)]


def assert_loads_like_reference(path):
    got = load_outcome(load_records, path)
    assert got == load_outcome(reference_load_records, path)
    return got


def write_text(path, text):
    data = text.encode()
    path.write_bytes(gzip.compress(data) if path.suffix == ".gz" else data)


HEADER = "# columns=x_a p_a accepted x_b\n# n_samples=%d\n"
ROWS = ("2.2100837931095914 -1.3828025537511299 0 0.17095551792350583\n"
        "-0.00062773976879976212 4.2325799118064218 1 123456789\n"
        "0.5 -1.25 1 3\n")


def exported(rows=ROWS):
    return HEADER % rows.count("\n") + rows


# Files the exact reader hands to np.loadtxt whole (a layout other than the
# export's), or where np.loadtxt reads single values (zeros, exponents,
# non-finite values, more than 17 digits, a token over 24 bytes) or fails.
PARITY_CASES = {
    "export": exported(),
    "zeros": exported("0 -0 1 0.0\n" + ROWS),
    "exponent_forms": exported("1e-05 -7.2500000000000004e-05 0 1.0000000000000001e+300\n"),
    "inf_nan": exported("inf -inf 1 nan\n" + ROWS),
    # 17-digit tokens that are no double's shortest text, whose long-double
    # candidate rounds to the wrong double: the exact check must reject it
    "double_rounding": exported("237.69700021510873 2242528.5999778111 1 "
                                "-7472835.9767689039\n" + ROWS),
    "eighteen_digits": exported("1.2345678901234567891 0.1 0 -3\n"),
    # 2^64 + 12345: its digits wrap to 12345 in uint64 unless guarded
    "uint64_wrap": exported("18446744073709563961 -1.5 0 2\n"),
    "long_token": exported("0.1000000000000000055511151231257827 2 1 -3\n"),
    "leading_zeros": exported("007.50 -00.25 0 0012\n"),
    "point_at_an_end": exported("5. .5 0 -.5\n"),
    "tab": exported(ROWS.replace(" ", "\t", 1)),
    "crlf": exported().replace("\n", "\r\n"),
    "double_space": exported(ROWS.replace(" ", "  ", 1)),
    "comment_after_header": exported(ROWS + "# a note\n"),
    "blank_lines": HEADER % 3 + ROWS[:60] + "\n   \n" + ROWS[60:],
    "plus_sign": exported("+1 2 0 3\n"),
    "underscore": exported("1_0 2 0 3\n"),
    "header_only": HEADER % 0,
    "no_header": ROWS,
    "count_too_large": HEADER % 9 + ROWS,
    "count_too_small": HEADER % 1 + ROWS,
    "three_fields": exported(ROWS + "0.1 0.2 1\n"),
    "five_fields": exported(ROWS + "0.1 0.2 1 0.3 0.4\n"),
    "accepted_2": exported(ROWS + "0.1 0.2 2 0.3\n"),
    "accepted_half": exported(ROWS + "0.1 0.2 0.5 0.3\n"),
    "accepted_1.0": exported(ROWS + "0.1 0.2 1.0 0.3\n"),
    "non_numeric": exported(ROWS + "0.1 abc 1 0.3\n"),
    "minus_inside": exported(ROWS + "0.1 1-2 1 0.3\n"),
    "lone_minus": exported(ROWS + "0.1 - 1 0.3\n"),
    "two_points": exported(ROWS + "0.1 1.2.3 1 0.3\n"),
    "missing_final_newline": exported()[:-1],
    "empty": "",
}


# float64 values at the edges of the formats: zeros, subnormals, both
# sides of 1e-4 and 1e16 (where %g switches to exponents) and of the
# smallest normal, powers of ten and their neighbours, and non-finite values
EDGE_VALUES = [0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
               np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
               math.inf, math.nan] + [
    float(v) for k in range(-6, 18) for p in (10.0**k,)
    for v in (p, np.nextafter(p, 0.0), np.nextafter(p, math.inf))]
edge_floats = st.one_of(
    st.floats(width=64),
    st.tuples(st.sampled_from(EDGE_VALUES), st.booleans()).map(
        lambda vs: -vs[0] if vs[1] else vs[0]),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def edge_record_sets(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    col = st.lists(edge_floats, min_size=n, max_size=n)
    return ExperimentRecords(
        x_a=np.array(draw(col)), p_a=np.array(draw(col)),
        accepted=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        x_b=np.array(draw(col)),
    )


class TestExactLoader:
    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_matches_loadtxt_loader(self, case, suffix, tmp_path):
        path = tmp_path / ("records" + suffix)
        write_text(path, PARITY_CASES[case])
        assert_loads_like_reference(str(path))

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(recs=edge_record_sets())
    def test_round_trip_matches_loadtxt_loader(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("r.txt", "r.txt.gz"):
                path = str(Path(tmp) / name)
                export_records(recs, path)
                assert_loads_like_reference(path)

    def test_benchmark_export_matches_loadtxt_loader(self, tmp_path):
        # the protocol benchmark's record file: 10^6 rows of a k = 1 run
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        ch = ChannelSpec(distance_km=50.0, loss_db_per_km=0.2, epsilon=0.01)
        path = str(tmp_path / "records.txt")
        export_records(run_experiment(src, ch, 10**6, seed=10).records, path)
        assert_loads_like_reference(path)

    def test_fixed_notation_needs_no_loadtxt(self, monkeypatch, tmp_path):
        # every |v| >= 1e-4 prints in fixed notation, which the exact path
        # proves, so np.loadtxt is never called; were the whole file to fall
        # back, this load would fail
        n = 10**5
        rng = np.random.default_rng(11)
        x, p, y = rng.uniform(1e-4, 8.0, (3, n)) * rng.choice([-1.0, 1.0], (3, n))
        recs = ExperimentRecords(x_a=x, p_a=p, accepted=rng.random(n) < 0.3, x_b=y)
        path = str(tmp_path / "fixed.txt")
        export_records(recs, path)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(montecarlo.np, "loadtxt", refuse)
        assert_bit_identical(load_records(path), recs)

    def test_only_unproven_tokens_reach_loadtxt(self, monkeypatch, tmp_path):
        # Gaussian records print a few values below 1e-4 with an exponent:
        # those tokens, and only those, go to np.loadtxt, in one call
        x, p, acc, y = gaussian_records(10**5, seed=12)
        recs = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y)
        path = tmp_path / "gauss.txt"
        export_records(recs, str(path))
        body = path.read_text().split("\n", 2)[2]
        exponents = [t for t in body.split() if "e" in t]
        assert exponents
        seen, real = [], np.loadtxt

        def spy(lines, *args, **kwargs):
            seen.append(list(lines))
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(montecarlo.np, "loadtxt", spy)
        assert_bit_identical(load_records(str(path)), recs)
        assert seen == [exponents]


def test_reductions_do_not_depend_on_blas_threads():
    # a BLAS dot product of a vector this long runs on several threads, and
    # its last bits change with their number; the chunk sums and the block
    # snr estimate must not
    code = ("import numpy as np; from psqkd.montecarlo import _chunk_sums; "
            "from psqkd.reconciliation import snr_estimate; "
            "rng = np.random.default_rng(5); x, p, y = rng.standard_normal((3, 1 << 18)); "
            "acc = rng.random(1 << 18) < 0.9; "
            "print([v.hex() for v in _chunk_sums(x, p, y, acc)], snr_estimate(x, y).hex())")
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


# The acceptance step as it stood before the blocked, in-place kernel:
# filter_q's formula on whole arrays, one uniform array per chunk and one per
# rescale.  The kernel must give these bits.


def reference_filter_q(x_a, p_a, src):
    """filter_q as one expression per step on whole arrays, verbatim."""
    x_a = np.asarray(x_a, dtype=float)
    p_a = np.asarray(p_a, dtype=float)
    if src.scheme == "none":
        shape = np.broadcast_shapes(x_a.shape, p_a.shape)
        return np.ones(shape) if shape else 1.0
    u = _filter_coefficient(src) * (x_a * x_a + p_a * p_a)
    if src.scheme == "on_off":
        q = -np.expm1(-u)
    else:
        q = np.exp(_xlogy(src.k, u) - u - math.lgamma(src.k + 1))
    if q.shape == ():
        return float(q)
    return q


def reference_rounds(src, ch, sizes, seed):
    het_sd = math.sqrt((src.v + 1.0) / 2.0)
    mean_coef, noise_sd = _receiver(src, ch)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    for child, size in zip(children, sizes):
        rng = np.random.default_rng(child)
        x, p = [rng.normal(0.0, het_sd, size) for _ in range(2)]
        acc = rng.uniform(size=size) < reference_filter_q(x, p, src)
        y = mean_coef * x + rng.normal(0.0, noise_sd, size)
        yield x, p, y, acc


def reference_run(src, ch, n, seed):
    sizes = [min(1 << 20, n - lo) for lo in range(0, n, 1 << 20)]
    chunks = list(reference_rounds(src, ch, sizes, seed))
    estimate = _estimate([_chunk_sums(*chunk) for chunk in chunks], n)
    x, p, y, acc = (np.concatenate(col) for col in zip(*chunks))
    return ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y), estimate


def reference_rescale_and_filter(records, spec, k, seed):
    src = SourceSpec.k_photon(spec.v_prime, spec.eta, k)
    x = spec.g * records.x_a
    p = spec.g * records.p_a
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.uniform(size=len(records))
    acc = u < reference_filter_q(x, p, src)
    out = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=records.x_b)
    return out, _estimate([_chunk_sums(x, p, records.x_b, acc)], len(records))


def estimate_bits(est):
    """Every field of a MomentEstimate, floats as hex, so -0.0 != 0.0."""
    cov, *rest = astuple(est)
    return [v if isinstance(v, int) else float(v).hex() for v in (*cov, *rest)]


KERNEL_SOURCES = [
    *(SourceSpec.k_photon(20.0, 0.8, k, eta_d) for eta_d in (1.0, 0.5) for k in (0, 1, 2)),
    SourceSpec.on_off(20.0, 0.8, 0.7),
    SourceSpec.tmsv(20.0),
]
KERNEL_IDS = [f"{s.scheme}-k{s.k}-eta{s.eta_d}" for s in KERNEL_SOURCES]
# one partial block; whole blocks then a partial one, with receiver noise
# drawn after it; one whole chunk; two chunks, the total not a block multiple
KERNEL_SIZES = [10_000, 100_000, 1 << 20, (1 << 20) + 4321]


class TestAcceptanceKernel:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("src", KERNEL_SOURCES, ids=KERNEL_IDS)
    def test_run_matches_reference(self, src, n):
        ch = ChannelSpec(t_c=0.5, epsilon=0.02)
        res = run_experiment(src, ch, n, seed=41)
        want_recs, want_est = reference_run(src, ch, n, seed=41)
        assert_bit_identical(res.records, want_recs)
        assert estimate_bits(res.estimate) == estimate_bits(want_est)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_rescale_matches_reference(self, k, n):
        rng = np.random.default_rng(n + k)
        x, p, y = rng.normal(0.0, 3.0, (3, n))
        x[:3] = p[3:6] = y[:2] = 0.0
        x[3:6] = p[:3] = y[2:4] = -0.0
        recs = ExperimentRecords(x_a=x, p_a=p, accepted=np.zeros(n, dtype=bool), x_b=y)
        spec = RescaleSpec(v=20.0, t0=0.8, eta=0.9)
        out, est = rescale_and_filter(recs, spec, k, seed=13)
        want_out, want_est = reference_rescale_and_filter(recs, spec, k, seed=13)
        assert_bit_identical(out, want_out)
        assert estimate_bits(est) == estimate_bits(want_est)

    def test_streaming_run_holds_one_chunk(self):
        # three chunks, none kept: the generator must release each chunk
        # before drawing the next, and acceptance must make no chunk-sized
        # temporaries (whole-array uniforms and filter steps made 7.2 chunks)
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        chunk_bytes = 8 << 20
        tracemalloc.start()
        try:
            run_experiment(src, IDEAL, 3 << 20, seed=3, keep_records=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * chunk_bytes, f"peak {peak / chunk_bytes:.2f} chunk arrays"

    def test_rescale_peak_memory(self):
        # the rescaled x_a and p_a are the only column-sized arrays it makes
        # (whole-array uniforms and filter steps made 6 columns)
        n = 1 << 18
        rng = np.random.default_rng(8)
        x, p, y = rng.standard_normal((3, n))
        recs = ExperimentRecords(x_a=x, p_a=p, accepted=np.zeros(n, dtype=bool), x_b=y)
        column_bytes = 8 * n
        tracemalloc.start()
        try:
            rescale_and_filter(recs, RescaleSpec(v=20.0, t0=0.8, eta=0.9), 1, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * column_bytes, f"peak {peak / column_bytes:.2f} columns"
