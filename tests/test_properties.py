"""Property tests for the array-native analytic chain.

Over random (v, t, k, eta_d, distance, epsilon):

- an array evaluation over a vector of tap transmittances equals the
  element-by-element scalar evaluations (the same code runs both);
- the closed-form counter-loss laws (k-click probability, on-off
  probability, conditional variance <vt>) match the truncated number-basis
  oracle, which computes them by explicit state-vector numerics and shares
  no code with them.

- the array noise search over a vector of distances equals, bit for bit,
  a verbatim copy of the scalar search it replaced, called per distance;
- pairs drawn exactly from the accepted law have the second moments the
  closed forms give: <x_a^2> = <vt>, <x_a x_b> = m <vt> and
  <x_b^2> = m^2 <vt> + 1 + t_c epsilon, with m = sqrt(2 t t_c) lam;
- the in-place, block-wise acceptance filter gives, bit for bit, the
  whole-array filter_q and a verbatim copy of its formula, on outcomes
  from signed zeros to overflowing squares, and scalars stay floats.
- the record formatter prints the bytes of "%.17g" for any float: signed
  zeros, subnormals, inf, nan and huge values, every double within 2000
  ulps of a power of ten in its fixed-notation range, and binary fractions
  that are exact decimal ties at 17 digits;
- the float64 digit kernel gives the 17 digits and decimal exponent of
  Python's "%.16e" in every decade, at every power of ten it scales by,
  for all-ones mantissas, next to rounding ties and next to powers of ten,
  and its split powers of ten are exact;
- records exported and loaded again, on one worker or two, .txt or .gz,
  come back bit for bit at lengths around the export's chunk and window
  edges, with zeros, subnormals, inf, nan and exponent forms at random rows.

Regression tests check that a single out-of-range or non-physical element
of a batch still raises: vectorisation drops no check.
"""

import math
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_montecarlo import FALLBACK_VALUES, assert_bit_identical, reference_filter_q

from psqkd.analysis import pipeline_key_rate, tolerable_excess_noise
from psqkd.errors import DomainError, InvalidStateError, PsqkdError, SingularityError
from psqkd.fock import apply_detector_loss, build_split_tmsv, condition_on_count
from psqkd.gaussian import (
    ChannelSpec,
    TwoModeCovariance,
    apply_channel,
    key_rate_homodyne,
    symplectic_eigenvalues,
)
from psqkd import _pool, records
from psqkd.montecarlo import collect_accepted_pairs
from psqkd.records import (
    _IO_CHUNK,
    _IO_WINDOW,
    ExperimentRecords,
    _format_buffers,
    _format_rows,
    export_records,
    load_records,
)
from psqkd.subtraction import (
    SourceSpec,
    _filter_into,
    covariance_subtracted,
    filter_q,
    success_prob_k,
    success_prob_onoff,
    v_tilde,
)

# Deterministic examples and no example database: the suite stays repeatable
# and writes nothing into the checkout.
CHAIN = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ORACLE = settings(max_examples=25, deadline=None, derandomize=True, database=None)

finite = dict(allow_nan=False, allow_infinity=False)
etas = st.one_of(st.just(1.0), st.floats(0.05, 1.0, **finite))


@st.composite
def sources(draw):
    """A conditioning scheme with scalar v, k and eta_d (t is filled in later)."""
    v = draw(st.floats(1.0, 40.0, **finite))
    scheme = draw(st.sampled_from(["none", "k_photon", "on_off"]))
    return SourceSpec(v=v, t=0.5, scheme=scheme, k=draw(st.integers(0, 4)),
                      eta_d=draw(etas))


tap_vectors = st.lists(st.floats(0.01, 1.0, **finite), min_size=1, max_size=24)


def channel(distance_km, epsilon):
    return ChannelSpec(distance_km=distance_km, loss_db_per_km=0.2, epsilon=epsilon)


def assert_same(batch, scalars):
    np.testing.assert_allclose(np.broadcast_to(batch, (len(scalars),)),
                               np.array(scalars, dtype=float), rtol=1e-12, atol=0.0)


@CHAIN
@given(src=sources(), ts=tap_vectors)
def test_covariance_batch_equals_scalar_evaluations(src, ts):
    batch = covariance_subtracted(replace(src, t=np.array(ts)))
    singles = [covariance_subtracted(replace(src, t=t)) for t in ts]
    for field in ("success_prob", "v_tilde", "eta_a", "v_a"):
        assert_same(getattr(batch, field), [getattr(s, field) for s in singles])
    for field in ("v1", "v2", "phi"):
        assert_same(getattr(batch.cov, field), [getattr(s.cov, field) for s in singles])


@CHAIN
@given(src=sources(), ts=tap_vectors, distance=st.floats(0.0, 150.0, **finite),
       epsilon=st.floats(0.0, 0.1, **finite))
def test_key_rate_batch_equals_scalar_evaluations(src, ts, distance, epsilon):
    ch = channel(distance, epsilon)
    batch = pipeline_key_rate(replace(src, t=np.array(ts)), ch, 0.95)
    singles = [pipeline_key_rate(replace(src, t=t), ch, 0.95) for t in ts]
    for field in ("mutual_info", "holevo", "raw_rate", "success_prob", "key_rate"):
        assert_same(getattr(batch, field), [getattr(s, field) for s in singles])
    assert list(np.broadcast_to(batch.is_secure, (len(ts),))) == \
        [s.is_secure for s in singles]


def scalar_noise_search(src, distance_km, beta, loss_db_per_km):
    """The scalar tolerable_excess_noise and _bisect as they were before the
    array search, verbatim but for the names."""
    def bisect(pred, lo, hi, tol):
        while hi - lo >= tol:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    rep = covariance_subtracted(src)

    def rate(eps):
        ch = ChannelSpec(distance_km=distance_km,
                         loss_db_per_km=loss_db_per_km, epsilon=eps)
        cov = apply_channel(rep.cov, ch)
        return float(key_rate_homodyne(cov, beta, success_prob=rep.success_prob).key_rate)

    def positive(eps):
        return rate(eps) > 0.0

    if not positive(0.0):
        return 0.0, False
    hi = 0.5
    while positive(hi):
        hi *= 2.0
        if hi > 1e4:
            raise DomainError("no finite noise threshold found below 1e4")
    lo, hi = bisect(positive, 0.0, hi, 1e-5)
    eps_max = 0.5 * (lo + hi)
    delta = 1e-4
    if eps_max > delta and not (rate(eps_max - delta) > 0.0 >= rate(eps_max + delta)):
        grid = np.linspace(0.0, hi + delta, 4097)
        vals = np.array([rate(e) for e in grid])
        pos = np.nonzero(vals > 0.0)[0]
        j = pos[-1]
        lo, hi = bisect(positive, grid[j], grid[min(j + 1, grid.size - 1)], 1e-5)
        eps_max = 0.5 * (lo + hi)
    return float(eps_max), True


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(src=sources(), t=st.floats(0.01, 1.0, **finite),
       distances=st.lists(st.floats(0.0, 400.0, **finite), min_size=1, max_size=8),
       beta=st.floats(0.8, 1.0, **finite))
def test_noise_search_equals_scalar_search(src, t, distances, beta):
    src = replace(src, t=t)
    singles = []
    for d in distances:
        try:
            singles.append(scalar_noise_search(src, d, beta, 0.2))
        except PsqkdError as exc:
            singles.append(type(exc))
    if any(isinstance(s, type) for s in singles):
        with pytest.raises(PsqkdError):
            tolerable_excess_noise(src, np.array(distances), beta, 0.2)
        return
    eps_max, alive = tolerable_excess_noise(src, np.array(distances), beta, 0.2)
    assert [(e, a) for e, a in zip(eps_max.tolist(), alive.tolist())] == singles


@ORACLE
@given(v=st.floats(1.05, 30.0, **finite), t=st.floats(0.05, 0.95, **finite),
       k=st.sampled_from([0, 1, 2, 3, "on_off"]), eta=etas)
def test_closed_forms_match_number_basis_oracle(v, t, k, eta):
    if k == "on_off":
        src = SourceSpec.on_off(v, t, eta)
        prob = success_prob_onoff(src)
    else:
        src = SourceSpec.k_photon(v, t, k, eta)
        prob = success_prob_k(src)
    assume(prob > 1e-6)
    state = build_split_tmsv(v, t, tol=1e-14)
    oracle_prob, oracle_cov = condition_on_count(apply_detector_loss(state, eta), k)
    assert abs(prob - oracle_prob) < 1e-8
    # <vt> is Alice's accepted heterodyne variance, (v1 + 1)/2 of the pair
    vt = v_tilde(src)
    assert abs(vt - (oracle_cov.v1 + 1.0) / 2.0) < 1e-8 * vt
    assert covariance_subtracted(src).v_tilde == vt


@CHAIN
@given(src=sources(), t=st.floats(0.01, 1.0, **finite), t_c=st.floats(0.01, 1.0, **finite),
       epsilon=st.floats(0.0, 0.1, **finite), seed=st.integers(0, 2**32 - 1))
def test_exact_pairs_match_closed_form_moments(src, t, t_c, epsilon, seed):
    src = replace(src, t=t)
    ch = ChannelSpec(t_c=t_c, epsilon=epsilon)
    x, y = collect_accepted_pairs(src, ch, 20_000, seed)
    vt = v_tilde(src)
    m = math.sqrt(2.0 * src.t * t_c) * src.lam
    for sample, target in ((x * x, vt), (x * y, m * vt),
                           (y * y, m * m * vt + 1.0 + t_c * epsilon)):
        se = sample.std() / math.sqrt(sample.size)
        assert abs(sample.mean() - target) <= 5.0 * se


# outcomes at the edges of the filter: signed zeros, subnormals, values whose
# square underflows or overflows, and ordinary ones
edge_outcomes = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170,
                               1e170, -1e170, 1e300, -1e300]),
              st.floats(-40.0, 40.0, **finite)),
    min_size=1, max_size=40)


@CHAIN
@given(src=sources(), t=st.floats(0.01, 1.0, **finite), xs=edge_outcomes,
       ps=edge_outcomes, seed=st.integers(0, 2**32 - 1), block=st.integers(1, 9))
def test_filter_into_equals_filter_q_bit_for_bit(src, t, xs, ps, seed, block):
    src = replace(src, t=t)
    # drawn floats are often short binary fractions whose products are
    # exact, so Gaussian outcomes are appended to exercise rounding
    rng = np.random.default_rng(seed)
    m = min(len(xs), len(ps))
    x = np.concatenate([xs[:m], rng.normal(0.0, 4.0, 64)])
    p = np.concatenate([ps[:m], rng.normal(0.0, 4.0, 64)])
    n = x.size
    # buffers full of other values, filled block by block as the sampler does
    q, scratch = np.full(n, np.nan), np.full(n, -7.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_filter_q(x, p, src)
        got = filter_q(x, p, src)
        for lo in range(0, n, block):
            hi = lo + block
            _filter_into(x[lo:hi], p[lo:hi], src, q[lo:hi], scratch[lo:hi])
        scalars = [(filter_q(a, b, src), reference_filter_q(a, b, src))
                   for a, b in zip(x.tolist(), p.tolist())]
    assert got.tobytes() == want.tobytes()
    assert q.tobytes() == want.tobytes()
    for one, ref in scalars:
        assert type(one) is float
        assert one.hex() == ref.hex()


def percent_rows(x_a, p_a, accepted, x_b):
    return "".join("%.17g %.17g %d %.17g\n" % row for row in
                   zip(x_a.tolist(), p_a.tolist(), accepted.tolist(), x_b.tolist())).encode()


def assert_prints_percent_17g(values):
    # every value in each float column, with the verdicts alternating; rows
    # go in 4096 at a time into one set of buffers, as export_records passes
    # chunks to a worker
    v = np.asarray(values, dtype=float)
    acc = np.arange(v.size) % 2 == 1
    cols = (v, -v[::-1], acc, v[::-1].copy())
    buffers = _format_buffers(min(v.size, 4096))
    for lo in range(0, v.size, 4096):
        chunk = [col[lo:lo + 4096] for col in cols]
        assert _format_rows(*chunk, buffers) == percent_rows(*chunk)


def percent_digits(values):
    # (D, X) of each value from Python's "%.16e": its 17 significant
    # digits, correctly rounded half to even, and its decimal exponent
    parts = ["%.16e" % v for v in values.tolist()]
    digits = [int(part[:18].replace(".", "")) for part in parts]
    return digits, [int(part[19:]) for part in parts]


def assert_decimal_digits(values):
    values = np.asarray(values, dtype=float)
    d, x = records._decimal_digits(values, records._digit_buffers(values.size))
    want_d, want_x = percent_digits(values)
    assert d.tolist() == want_d
    assert x.tolist() == want_x


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.5e-310, math.inf,
                  -math.inf, math.nan, 1e300, -1e300, 9.9999999999999991e-05, 1e-4,
                  1e16, 9999999999999998.0, 1.7976931348623157e308]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                       min_size=1, max_size=64))
def test_record_formatter_prints_percent_17g(values):
    assert_prints_percent_17g(values)


def test_record_formatter_near_powers_of_ten():
    # log10 can put the decimal exponent one off here, and the digit kernel
    # redoes those values
    ulps = np.arange(-2000, 2001)
    values = np.concatenate([(np.float64(10.0 ** e).view(np.int64) + ulps).view(np.float64)
                             for e in range(-4, 17)])
    assert_decimal_digits(values[(values >= 1e-4) & (values < 1e16)])
    assert_prints_percent_17g(np.concatenate([values, -values]))


@pytest.mark.parametrize("toward", [-math.inf, math.inf], ids=["low", "high"])
def test_decimal_digits_survive_a_log10_one_ulp_off(toward, monkeypatch):
    # a log10 that is not correctly rounded puts X one low or one high next
    # to a power of ten; the kernel redoes those values with X moved
    log10 = np.log10

    def nudged(a, out):
        return np.nextafter(log10(a, out=out), toward, out=out)

    monkeypatch.setattr(records.np, "log10", nudged)
    ulps = np.arange(-50, 51)
    values = np.concatenate([(np.float64(10.0 ** e).view(np.int64) + ulps).view(np.float64)
                             for e in range(-3, 16)])
    assert_decimal_digits(values)


def test_record_formatter_rounds_decimal_ties_to_even():
    # n / 2^s with n odd has exactly s decimal places ending in 5, so in
    # [10^(17-s), 10^(18-s)) it has 18 significant digits: a tie at 17
    rng = np.random.default_rng(17)
    values = []
    for s in range(3, 22):
        lo = -(-(2**s * 10**17) // 10**s)
        hi = 2**s * 10**18 // 10**s
        n = rng.integers(lo, hi, 500) | 1
        values.append(n / 2.0**s)
    values = np.concatenate(values)
    for v in values.tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    assert_prints_percent_17g(np.concatenate([values, -values]))


def test_decimal_digits_in_every_decade():
    # log-uniform values over each decade of the kernel's range, X = -4 .. 15,
    # and the digits at every k = 16 - X of the power tables, 0 .. 22, with
    # X given: a in [10^(16-k), 10^(17-k)), so a 10^k has 17 digits
    rng = np.random.default_rng(28)
    assert_decimal_digits(10.0 ** rng.uniform(-4.0, 16.0, 20_000))
    for k in range(23):
        a = 10.0 ** rng.uniform(16 - k, 17 - k, 500)
        x = np.full(a.size, 16 - k)
        d = np.empty(a.size, dtype=np.int64)
        records._digits_at(a, x, d, np.empty((5, a.size)))
        assert d.tolist() == percent_digits(a)[0], k


def test_decimal_digits_of_all_ones_mantissas():
    # mantissas of j ones, 2^j - 1 for j = 1 .. 53, at every binary
    # exponent in the range
    values = [(2**j - 1) * 2.0 ** e for j in range(1, 54) for e in range(-80, 60)]
    values = np.array([v for v in values if 1e-4 <= v < 1e16])
    assert values.size > 3000
    assert_decimal_digits(values)


def near_ties(rng):
    # doubles a = m 2^-(s+k) with a 10^k = m 5^k / 2^s in [10^16, 10^17)
    # and its fraction within 2^-40 of 1/2: m 5^k mod 2^s = t for t within
    # 2^(s-40) of 2^(s-1), and m any such residue in [2^52, 2^53).  Only
    # k >= 18 leaves a 10^k more than 40 fraction bits: a < 0.1
    values = []
    for k in range(23):
        for s in range(41, 60):
            lo = max(2**52, -(-(10**16 << s) // 5**k))
            hi = min(2**53, (10**17 << s) // 5**k)
            if lo >= hi:
                continue
            inverse = pow(5**k, -1, 2**s)
            width = 2 ** (s - 40)
            for offset in [-width, -1, 0, 1, width] + rng.integers(-width, width + 1, 60).tolist():
                residue = (2 ** (s - 1) + offset) * inverse % 2**s
                first = lo + (residue - lo) % 2**s
                if first >= hi:
                    continue
                m = first + int(rng.integers(0, (hi - 1 - first) // 2**s + 1)) * 2**s
                assert abs(m * 5**k % 2**s - 2 ** (s - 1)) <= width
                values.append(math.ldexp(m, -(s + k)))
    return np.array(values)


def test_decimal_digits_next_to_rounding_ties():
    values = near_ties(np.random.default_rng(29))
    values = values[(values >= 1e-4) & (values < 1e16)]
    assert values.size > 500
    assert_decimal_digits(values)
    assert_prints_percent_17g(np.concatenate([values, -values]))


def test_power_tables_split_each_power_exactly():
    for table in (records._POW10_HI, records._POW10_LO):
        assert table.dtype == np.float64 and not table.flags.writeable
    for k, (hi, lo) in enumerate(zip(records._POW10_HI.tolist(), records._POW10_LO.tolist())):
        assert Decimal(hi) + Decimal(lo) == 10**k
        assert hi + lo == float(10**k)
        for half in (hi, lo):
            # the odd part of the numerator holds a double's significant bits
            numerator = abs(half.as_integer_ratio()[0])
            assert half == 0.0 or (numerator // (numerator & -numerator)).bit_length() <= 26


@st.composite
def chunk_edge_records(draw):
    """Gaussian records of a length within two rows of one or more export
    chunks or windows, with the values the formatter leaves to % at random
    rows of each float column."""
    chunks = draw(st.sampled_from([1, 2, _IO_WINDOW, _IO_WINDOW + 1]))
    n = chunks * _IO_CHUNK + draw(st.integers(-2, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, p, y = rng.normal(0.0, 3.0, (3, n))
    for col in (x, p, y):
        rows = draw(st.lists(st.integers(0, n - 1), max_size=4))
        col[rows] = draw(st.lists(st.sampled_from(FALLBACK_VALUES), min_size=len(rows),
                                  max_size=len(rows)))
    return ExperimentRecords(x_a=x, p_a=p, accepted=rng.random(n) < 0.3, x_b=y)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(recs=chunk_edge_records(), workers=st.sampled_from([1, 2]))
def test_export_then_load_gives_the_records_bit_for_bit(recs, workers):
    with mock.patch.object(_pool, "_usable_cpus", lambda: workers), \
            tempfile.TemporaryDirectory() as tmp:
        for name in ("r.txt", "r.txt.gz"):
            path = str(Path(tmp) / name)
            export_records(recs, path)
            assert_bit_identical(load_records(path), recs)


@ORACLE
@given(v=st.floats(1.05, 3.0, **finite), t=st.floats(0.05, 0.95, **finite), eta=etas)
def test_on_off_is_one_minus_zero_clicks(v, t, eta):
    p0 = success_prob_k(SourceSpec.k_photon(v, t, 0, eta))
    assert abs(success_prob_onoff(SourceSpec.on_off(v, t, eta)) - (1.0 - p0)) < 1e-14


def test_vacuum_conditioned_states_pass_the_physicality_test():
    # k = 0 leaves a pure state with v1 = v2 up to rounding, where lam1 = lam2
    # and the unfactored discriminant put ~1e-7 noise on lam2: about one t
    # in forty was rejected as non-physical at v = 34.
    ts = np.linspace(0.01, 1.0, 2000)
    src = SourceSpec.k_photon(34.0, ts, 0)
    symplectic_eigenvalues(covariance_subtracted(src).cov)  # raises on any non-physical t
    rates = pipeline_key_rate(src, channel(0.0, 0.0), 0.95).key_rate
    assert np.all(rates > 0.0)
    single = pipeline_key_rate(SourceSpec.k_photon(34.0, 0.9182841420710356, 0),
                               channel(0.0, 0.0), 0.95)
    assert single.key_rate > 0.0


def test_vacuum_source_survives_a_lossy_channel():
    # t_c (v2 + chi) rounds the vacuum's v2 = 1 to 1 - 1e-16 at 1 km, which
    # the physicality test rejected without slack on v1 and v2.
    rep = pipeline_key_rate(SourceSpec.tmsv(1.0), channel(1.0, 0.0), 0.95)
    assert rep.mutual_info == 0.0 and abs(rep.holevo) < 1e-12


# ---------------------------------------------------------------------------
# one bad element of a batch still raises

POSITIONS = [0, 3, 7]


def with_bad(values, position, bad):
    out = np.array(values, dtype=float)
    out[position] = bad
    return out


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("bad_t", [0.0, -0.2, 1.5, math.nan])
def test_one_tap_outside_unit_interval_raises(position, bad_t):
    ts = with_bad(np.linspace(0.1, 0.9, 8), position, bad_t)
    with pytest.raises(DomainError, match="t must lie in"):
        SourceSpec.k_photon(20.0, ts, 1)
    src = SourceSpec.k_photon(20.0, 0.5, 1, eta_d=0.5)
    with pytest.raises(DomainError):
        pipeline_key_rate(replace(src, t=ts), channel(50.0, 0.01))


def physical_batch():
    v = np.linspace(2.0, 30.0, 8)
    return v, v, np.sqrt(v * v - 1.0)


def without(cov, position):
    """The batch of states less one element."""
    return TwoModeCovariance(*(np.delete(p, position) for p in cov.as_tuple()))


@pytest.mark.parametrize("position", POSITIONS)
def test_one_unphysical_state_raises_everywhere(position):
    v1, v2, phi = physical_batch()
    cov = TwoModeCovariance(v1, v2, with_bad(phi, position, 1.5 * phi[position]))
    symplectic_eigenvalues(without(cov, position))  # the other seven pass
    with pytest.raises(InvalidStateError):
        symplectic_eigenvalues(cov)
    with pytest.raises(InvalidStateError):
        apply_channel(cov, ChannelSpec(t_c=0.5, epsilon=0.01))
    with pytest.raises(InvalidStateError):
        key_rate_homodyne(cov, 0.95)


@pytest.mark.parametrize("position", POSITIONS)
def test_one_sub_vacuum_variance_raises(position):
    v1, v2, phi = physical_batch()
    cov = TwoModeCovariance(with_bad(v1, position, 0.5), v2, phi * 0.0)
    symplectic_eigenvalues(without(cov, position))  # the other seven pass
    with pytest.raises(InvalidStateError, match="non-physical"):
        symplectic_eigenvalues(cov)


@pytest.mark.parametrize("position", POSITIONS)
def test_key_rate_checks_fire_per_element(position):
    v1, v2, phi = physical_batch()
    cov = TwoModeCovariance(v1, v2, phi)
    ok = key_rate_homodyne(cov, 0.95, success_prob=np.full(8, 0.5))
    assert ok.key_rate.shape == (8,)
    with pytest.raises(DomainError, match="success_prob"):
        key_rate_homodyne(cov, 0.95, success_prob=with_bad(np.full(8, 0.5), position, 1.5))
    with pytest.raises(SingularityError):
        key_rate_homodyne(TwoModeCovariance(v1, with_bad(v2, position, 0.0), phi), 0.95)
    # a sub-vacuum element, whose entropy term would be undefined
    with pytest.raises(InvalidStateError):
        key_rate_homodyne(TwoModeCovariance(with_bad(v1, position, 0.5), v2, phi * 0.0), 0.95)


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("bad_t_c", [0.0, -0.2, 1.5, math.nan])
def test_one_channel_transmittance_outside_unit_interval_raises(position, bad_t_c):
    t_c = with_bad(np.linspace(0.1, 0.9, 8), position, bad_t_c)
    with pytest.raises(DomainError, match="t_c must lie in"):
        ChannelSpec(t_c=t_c, epsilon=0.01)
    with pytest.raises(DomainError, match="t_c must lie in"):
        ChannelSpec(t_c=list(t_c), epsilon=np.full(8, 0.01))


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("bad_eps", [-0.01, -1e-300, math.nan])
def test_one_negative_or_nan_excess_noise_raises(position, bad_eps):
    eps = with_bad(np.full(8, 0.01), position, bad_eps)
    with pytest.raises(DomainError, match="epsilon must be >= 0"):
        ChannelSpec(t_c=0.5, epsilon=eps)
    with pytest.raises(DomainError, match="epsilon must be >= 0"):
        ChannelSpec(distance_km=np.linspace(0.0, 70.0, 8), loss_db_per_km=0.2, epsilon=eps)


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("bad_d", [-1.0, math.nan])
def test_one_bad_distance_raises(position, bad_d):
    distances = with_bad(np.linspace(0.0, 70.0, 8), position, bad_d)
    with pytest.raises(DomainError):
        ChannelSpec(distance_km=distances, loss_db_per_km=0.2)
    with pytest.raises(DomainError):
        tolerable_excess_noise(SourceSpec.k_photon(20.0, 0.8, 1), distances)


@pytest.mark.parametrize("position", POSITIONS)
def test_one_inconsistent_fiber_element_raises(position):
    fiber = ChannelSpec(distance_km=np.linspace(0.0, 70.0, 8), loss_db_per_km=0.2)
    ChannelSpec(t_c=fiber.t_c, distance_km=fiber.distance_km, loss_db_per_km=0.2)
    t_c = with_bad(fiber.t_c, position, fiber.t_c[position] * 0.99)
    with pytest.raises(DomainError, match="inconsistent"):
        ChannelSpec(t_c=t_c, distance_km=fiber.distance_km, loss_db_per_km=0.2)


def test_channel_batch_keeps_single_channel_types():
    one = ChannelSpec(distance_km=50, loss_db_per_km=0.2, epsilon=0)
    assert type(one.t_c) is float and type(one.epsilon) is float
    assert type(one.distance_km) is float
    batch = ChannelSpec(distance_km=[10.0, 50.0], loss_db_per_km=0.2, epsilon=0.01)
    assert batch.t_c.shape == (2,) and batch.t_c[1] == one.t_c
    rep = pipeline_key_rate(SourceSpec.k_photon(20.0, 0.8, 1), one)
    assert type(rep.is_secure) is bool
    assert rep.key_rate == pipeline_key_rate(SourceSpec.k_photon(20.0, 0.8, 1),
                                             replace(batch, epsilon=0.0)).key_rate[1]
