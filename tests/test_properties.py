"""Property tests for the array-native analytic chain.

Over random (v, t, k, eta_d, distance, epsilon):

- an array evaluation over a vector of tap transmittances equals the
  element-by-element scalar evaluations (the same code runs both);
- the closed-form counter-loss laws (k-click probability, on-off
  probability, conditional variance <vt>) match the truncated number-basis
  oracle, which computes them by explicit state-vector numerics and shares
  no code with them.

Regression tests check that a single out-of-range or non-physical element
of a batch still raises: vectorisation drops no check.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psqkd.analysis import pipeline_key_rate
from psqkd.errors import DomainError, InvalidStateError, SingularityError
from psqkd.fock import apply_detector_loss, build_split_tmsv, condition_on_count
from psqkd.gaussian import (
    ChannelSpec,
    TwoModeCovariance,
    apply_channel,
    check_physicality,
    entropy_term,
    key_rate_homodyne,
    symplectic_eigenvalues,
)
from psqkd.subtraction import (
    SourceSpec,
    covariance_subtracted,
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


@ORACLE
@given(v=st.floats(1.05, 3.0, **finite), t=st.floats(0.05, 0.95, **finite),
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
    assert check_physicality(covariance_subtracted(src).cov).all()
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


@pytest.mark.parametrize("position", POSITIONS)
def test_one_unphysical_state_raises_everywhere(position):
    v1, v2, phi = physical_batch()
    cov = TwoModeCovariance(v1, v2, with_bad(phi, position, 1.5 * phi[position]))
    mask = check_physicality(cov)
    assert mask.shape == (8,) and not mask[position]
    assert mask.sum() == 7
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
    assert check_physicality(cov).sum() == 7
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
    with pytest.raises(DomainError):
        entropy_term(with_bad(np.ones(8), position, -0.1))
