"""Protocol evaluation and parameter sweeps over the full source-to-key chain.

Single evaluations compose the conditional source, the thermal-loss channel
and the key-rate calculus; on top of that sit the tap-transmittance
optimizer with its tolerance bands, tolerable-excess-noise and maximal
transmission distance searches, success-probability curves, and the small
arithmetic linking a code rate and working SNR to a reconciliation
efficiency.  All evaluations are closed-form and pure, so sweeps are cheap
and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .gaussian import ChannelSpec, KeyRateReport, apply_channel, key_rate_homodyne
from .subtraction import (
    SCHEME_NONE,
    SourceSpec,
    covariance_subtracted,
    success_prob_k,
)

DEFAULT_V = 20.0
DEFAULT_EPSILON = 0.01
DEFAULT_BETA = 0.95
DEFAULT_LOSS_DB_PER_KM = 0.2
# A scheme is considered alive at a distance only above this rate.
DEFAULT_RATE_FLOOR = 1e-6
# First noise probe of the tolerable-excess-noise bracket, doubled until
# the rate turns non-positive.
_EPS_BRACKET = 0.5


@dataclass(frozen=True)
class TGrid:
    """Tap-transmittance search grid with local refinement.

    The optimizer scans count points on [lo, hi], then re-scans a 10x
    narrower window around the argmax, refinements times.
    """

    lo: float = 0.01
    hi: float = 0.995
    count: int = 96
    refinements: int = 2

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi < 1.0):
            raise DomainError(f"need 0 < lo < hi < 1, got ({self.lo}, {self.hi})")
        if self.count < 32:
            raise DomainError(f"grid count must be >= 32, got {self.count}")
        if self.refinements < 0:
            raise DomainError(f"refinements must be >= 0, got {self.refinements}")

    def points(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        return np.linspace(self.lo if lo is None else lo,
                           self.hi if hi is None else hi, self.count)


@dataclass(frozen=True)
class OptimumRecord:
    """Result of one tap-transmittance optimization.

    band_90 and band_50 are the t-intervals sustaining at least 90% and 50%
    of the optimal rate; they are (nan, nan) when has_key is False, meaning
    no evaluated t produced a positive rate.
    """

    distance_km: float
    t_opt: float
    key_rate_opt: float
    success_prob_at_opt: float
    band_90: tuple[float, float]
    band_50: tuple[float, float]
    has_key: bool


def scheme_label(src: SourceSpec) -> str:
    if src.scheme == SCHEME_NONE:
        return "none"
    tag = f"k{src.k}" if src.scheme == "k_photon" else "on_off"
    if src.eta_d != 1.0:
        tag += f"_eta{src.eta_d:g}"
    return tag


def pipeline_key_rate(src: SourceSpec, ch: ChannelSpec,
                      beta: float = DEFAULT_BETA) -> KeyRateReport:
    """Key rate of a conditioned source sent through a thermal-loss channel.

    Composes the conditional covariance, the channel map and the homodyne
    key-rate calculus, weighting by the scheme's acceptance probability
    (one for scheme "none").  An array of tap transmittances in src gives
    a report of arrays, evaluated elementwise by the same code.
    """
    rep = covariance_subtracted(src)
    cov = apply_channel(rep.cov, ch)
    return key_rate_homodyne(cov, beta, success_prob=rep.success_prob)


def _rate_at(src: SourceSpec, t, ch: ChannelSpec, beta: float) -> np.ndarray:
    """Key rate at the tap transmittance(s) t, shaped like t.

    Scheme "none" ignores the tap, so its single rate is broadcast.
    """
    rate = pipeline_key_rate(replace(src, t=t), ch, beta).key_rate
    return np.broadcast_to(rate, np.shape(t))


def _band_edges(rate_fn, t_opt, bounds, targets) -> np.ndarray:
    """Bisect for each rate crossing between t_opt and bounds[i] at targets[i].

    All edges are bisected together, one array evaluation per step.  If the
    rate never drops below the target before the grid bound, that band is
    truncated there.
    """
    bounds = np.asarray(bounds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    truncated = rate_fn(bounds) >= targets
    lo, hi = np.full_like(bounds, t_opt), bounds
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = rate_fn(mid) >= targets
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(truncated, bounds, 0.5 * (lo + hi))


def optimize_t(src: SourceSpec, ch: ChannelSpec, beta: float = DEFAULT_BETA,
               t_grid: TGrid = TGrid(), with_bands: bool = True) -> OptimumRecord:
    """Maximize the key rate over the tap transmittance.

    Exhaustive grid scan followed by t_grid.refinements zoom passes, each
    pass one array evaluation of the grid; no unimodality is assumed, so
    the returned optimum dominates every evaluated point by construction.
    Bands are found by bisecting outward from the optimum.
    """
    def rate_fn(t):
        return _rate_at(src, t, ch, beta)

    lo, hi = t_grid.lo, t_grid.hi
    t_opt, rate_opt = t_grid.lo, -math.inf
    for _ in range(t_grid.refinements + 1):
        pts = t_grid.points(lo, hi)
        rates = rate_fn(pts)
        i = int(np.argmax(rates))
        if rates[i] > rate_opt:
            t_opt, rate_opt = float(pts[i]), float(rates[i])
        span = (hi - lo) / 10.0
        lo = max(t_grid.lo, t_opt - 0.5 * span)
        hi = min(t_grid.hi, t_opt + 0.5 * span)
    dist = ch.distance_km if ch.distance_km is not None else float("nan")
    p_opt = float(covariance_subtracted(replace(src, t=t_opt)).success_prob)
    if rate_opt <= 0.0:
        return OptimumRecord(dist, t_opt, rate_opt, p_opt,
                             (math.nan, math.nan), (math.nan, math.nan), False)
    if with_bands:
        # edges in the order (90% lo, 90% hi, 50% lo, 50% hi)
        edges = [float(e) for e in _band_edges(
            rate_fn, t_opt, [t_grid.lo, t_grid.hi] * 2,
            [0.9 * rate_opt] * 2 + [0.5 * rate_opt] * 2)]
        band_90, band_50 = tuple(edges[:2]), tuple(edges[2:])
    else:
        band_90 = band_50 = (math.nan, math.nan)
    return OptimumRecord(dist, t_opt, rate_opt, p_opt, band_90, band_50, True)


def _bisect(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until narrower than tol, keeping pred(lo) true.

    pred(hi) is taken to be false; the last bracket is returned.
    """
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def tolerable_excess_noise(src: SourceSpec, distance_km: float,
                           beta: float = DEFAULT_BETA,
                           loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM
                           ) -> tuple[float, bool]:
    """Largest excess noise with a positive key rate at the given distance.

    Returns (eps_max, alive); alive is False (and eps_max 0) when the rate
    is non-positive already in the noiseless channel.  The search brackets
    the zero crossing, bisects to 1e-5, and falls back to a dense scan if
    the bracket contract fails, since monotonicity in the noise is an
    observed property rather than a proven one.
    """
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
    hi = _EPS_BRACKET
    while positive(hi):
        hi *= 2.0
        if hi > 1e4:
            raise DomainError("no finite noise threshold found below 1e4")
    lo, hi = _bisect(positive, 0.0, hi, 1e-5)
    eps_max = 0.5 * (lo + hi)
    delta = 1e-4
    if eps_max > delta and not (rate(eps_max - delta) > 0.0 >= rate(eps_max + delta)):
        # Non-monotone pocket: take the last sign change on a dense scan.
        grid = np.linspace(0.0, hi + delta, 4097)
        vals = np.array([rate(e) for e in grid])
        pos = np.nonzero(vals > 0.0)[0]
        j = pos[-1]
        lo, hi = _bisect(positive, grid[j], grid[min(j + 1, grid.size - 1)], 1e-5)
        eps_max = 0.5 * (lo + hi)
    return float(eps_max), True


def max_distance(src: SourceSpec, beta: float = DEFAULT_BETA,
                 epsilon: float = DEFAULT_EPSILON,
                 loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM,
                 rate_floor: float = DEFAULT_RATE_FLOOR,
                 t_grid: TGrid | None = None,
                 d_hi: float = 500.0, resolution_km: float = 0.1) -> float:
    """Largest distance keeping the key rate above rate_floor.

    With a t_grid the tap transmittance is re-optimized at every probed
    distance (bands skipped); otherwise the source's own t is used.  The
    result is capped at d_hi and resolved to resolution_km.
    """

    def best(d):
        ch = ChannelSpec(distance_km=d, loss_db_per_km=loss_db_per_km,
                         epsilon=epsilon)
        if t_grid is None:
            return float(pipeline_key_rate(src, ch, beta).key_rate)
        return optimize_t(src, ch, beta, t_grid, with_bands=False).key_rate_opt

    if best(0.0) <= rate_floor:
        return 0.0
    if best(d_hi) > rate_floor:
        return d_hi
    return _bisect(lambda d: best(d) > rate_floor, 0.0, d_hi, resolution_km)[0]


def landscape(src: SourceSpec, ch: ChannelSpec, beta: float = DEFAULT_BETA,
              t_grid: TGrid = TGrid()) -> tuple[np.ndarray, np.ndarray, OptimumRecord]:
    """Key rate over the tap grid at one channel, plus the optimum and bands.

    Returns (t_grid.points(), rates there, optimize_t's record).  Scheme
    "none" ignores the tap, so its rates are flat in t.
    """
    pts = t_grid.points()
    return pts, _rate_at(src, pts, ch, beta), optimize_t(src, ch, beta, t_grid)


def success_curves(v: float, k_list, t_samples) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Acceptance probability versus tap transmittance for each click count.

    t_samples is either a point count (grid on (0, 1]) or explicit values.
    Every curve vanishes at t = 1, where the tap reflects nothing.
    """
    if np.isscalar(t_samples):
        ts = np.linspace(1.0 / float(t_samples), 1.0, int(t_samples))
    else:
        ts = np.asarray(t_samples, dtype=float)
    curves = {int(k): success_prob_k(SourceSpec.k_photon(v, ts, int(k)))
              for k in k_list}
    return ts, curves


def beta_from_rate_snr(code_rate: float, snr: float) -> float:
    """Reconciliation efficiency implied by a code rate at a working SNR.

    beta = R / C(snr) with C the Shannon capacity of the Gaussian channel,
    0.5 log2(1 + snr); a capacity-achieving pair gives exactly 1.
    """
    if code_rate <= 0.0:
        raise DomainError(f"code rate must be > 0, got {code_rate}")
    if snr <= 0.0:
        raise DomainError(f"snr must be > 0, got {snr}")
    return code_rate / (0.5 * math.log2(1.0 + snr))


def snr_from_rate_beta(code_rate: float, beta: float) -> float:
    """SNR at which a code rate corresponds to efficiency beta (inverse map)."""
    if code_rate <= 0.0:
        raise DomainError(f"code rate must be > 0, got {code_rate}")
    if beta <= 0.0:
        raise DomainError(f"beta must be > 0, got {beta}")
    return 2.0 ** (2.0 * code_rate / beta) - 1.0
