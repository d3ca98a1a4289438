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
from .gaussian import ChannelSpec, KeyRateReport, _plain, apply_channel, key_rate_homodyne
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
    no evaluated t produced a positive rate.  For a channel with a distance
    axis every field (and each band edge) is an array over it.
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
    (one for scheme "none").  Arrays of tap transmittances in src, or of
    channel parameters in ch, broadcast into a report of arrays.
    """
    rep = covariance_subtracted(src)
    cov = apply_channel(rep.cov, ch)
    return key_rate_homodyne(cov, beta, success_prob=rep.success_prob)


def _rates(src: SourceSpec, ch: ChannelSpec, beta: float):
    """The key rate and success probability as functions of the tap.

    Taps of shape (m,) + S, for a channel of shape S (() for one channel,
    (n,) for a distance axis), give two arrays of that shape.  Scheme
    "none" ignores the tap, so its values are broadcast.
    """
    def evaluate(t):
        rep = pipeline_key_rate(replace(src, t=t), ch, beta)
        return np.broadcast_arrays(t, rep.key_rate, rep.success_prob)[1:]

    return evaluate


def _channel_shape(ch: ChannelSpec) -> tuple:
    """() for one channel, (n,) for a distance axis."""
    return np.broadcast_shapes(np.shape(ch.t_c), np.shape(ch.epsilon))


def _at(values, i):
    """values[i] along the first axis, for an index i per element of the rest."""
    return np.take_along_axis(values, np.expand_dims(i, 0), 0)[0]


def _band_edges(rate_fn, t_opt, bounds, targets) -> np.ndarray:
    """Bisect for each rate crossing between t_opt and bounds[i] at targets[i].

    All edges of all channels are bisected together, one array evaluation
    per step.  If the rate never drops below the target before the grid
    bound, that band is truncated there: its bracket is [bound, bound], so
    it is not bisected.  A target of -inf (a channel without key) counts as
    truncated too.  When every band is truncated none is run.
    """
    truncated = (targets == -np.inf) | (rate_fn(bounds) >= targets)
    if np.all(truncated):
        return bounds
    lo, hi = _bisect(lambda t: rate_fn(t) >= targets,
                     np.where(truncated, bounds, t_opt), bounds)
    return 0.5 * (lo + hi)


def optimize_t(src: SourceSpec, ch: ChannelSpec, beta: float = DEFAULT_BETA,
               t_grid: TGrid = TGrid(), with_bands: bool = True) -> OptimumRecord:
    """Maximize the key rate over the tap transmittance.

    Exhaustive grid scan followed by t_grid.refinements zoom passes, each
    pass one array evaluation of the grid; no unimodality is assumed, so
    the returned optimum dominates every evaluated point by construction.
    Bands are found by bisecting outward from the optimum.  A channel with
    a distance axis (t_c or epsilon of shape (n,)) is optimized at every
    distance at once: each pass evaluates a (count, n) grid, and the
    record's fields are arrays of shape (n,).
    """
    return _optimum(_rates(src, ch, beta), ch, t_grid, with_bands)


def _optimum(evaluate, ch: ChannelSpec, t_grid: TGrid, with_bands: bool,
             first=None) -> OptimumRecord:
    """optimize_t for the rate function evaluate of _rates.

    first, when given, is evaluate on the full grid t_grid.points() of
    every channel, which is the first pass's grid, so it is not evaluated
    again.
    """
    shape = _channel_shape(ch)
    lo, hi = np.full(shape, t_grid.lo), np.full(shape, t_grid.hi)
    t_opt, rate_opt, p_opt = lo, np.full(shape, -np.inf), np.full(shape, np.nan)
    for step in range(t_grid.refinements + 1):
        pts = t_grid.points(lo, hi)
        rates, probs = first if step == 0 and first is not None else evaluate(pts)
        i = np.argmax(rates, axis=0)
        better = _at(rates, i) > rate_opt
        t_opt = np.where(better, _at(pts, i), t_opt)
        p_opt = np.where(better, _at(probs, i), p_opt)
        rate_opt = np.where(better, _at(rates, i), rate_opt)
        span = (hi - lo) / 10.0
        lo = np.maximum(t_grid.lo, t_opt - 0.5 * span)
        hi = np.minimum(t_grid.hi, t_opt + 0.5 * span)
    has_key = rate_opt > 0.0
    edges = np.full((4,) + shape, np.nan)
    if with_bands and np.any(has_key):
        # edges in the order (90% lo, 90% hi, 50% lo, 50% hi)
        bounds = np.multiply.outer([t_grid.lo, t_grid.hi] * 2, np.ones(shape))
        # a channel without key gets no band: -inf marks it truncated
        targets = np.where(has_key, np.multiply.outer([0.9, 0.9, 0.5, 0.5], rate_opt),
                           -np.inf)
        found = _band_edges(lambda t: evaluate(t)[0], t_opt, bounds, targets)
        edges = np.where(has_key, found, np.nan)
    lo90, hi90, lo50, hi50 = (_plain(e) for e in edges)
    dist = math.nan if ch.distance_km is None else ch.distance_km
    return OptimumRecord(dist, _plain(t_opt), _plain(rate_opt), _plain(p_opt),
                         (lo90, hi90), (lo50, hi50), _plain(has_key))


def _bisect(pred, lo, hi, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Halve every bracket between lo and hi, keeping pred(lo) true.

    lo and hi are arrays of brackets (or scalars), in either order, and pred
    maps an array of points to a bool array; pred(hi) is taken to be false.
    A bracket stops moving once narrower than tol or once its midpoint
    rounds to one of its ends, so each ends where a bisection of it alone
    would.  The last brackets are returned.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    while True:
        mid = 0.5 * (lo + hi)
        live = (np.abs(hi - lo) >= tol) & (mid != lo) & (mid != hi)
        if not np.any(live):
            return lo, hi
        up = pred(mid)
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & np.logical_not(up), mid, hi)


def _noise_threshold(rate, shape) -> tuple:
    """The search of tolerable_excess_noise, for every cell of shape at once.

    rate maps noise values of shape (m,) + shape, or shape, to the key
    rates of the cells.  Returns (eps_max, alive), each of shape.
    """
    def positive(eps):
        return rate(eps) > 0.0

    alive = positive(np.zeros(shape))
    hi = np.full(shape, _EPS_BRACKET)
    grow = alive & positive(hi)
    while np.any(grow):
        hi = np.where(grow, 2.0 * hi, hi)
        if np.any(hi > 1e4):
            raise DomainError("no finite noise threshold found below 1e4")
        grow = grow & positive(hi)
    # a dead cell gets the closed bracket [0, 0], so eps_max = 0
    lo, hi = _bisect(positive, 0.0, np.where(alive, hi, 0.0), 1e-5)
    eps_max = 0.5 * (lo + hi)
    delta = 1e-4
    check = alive & (eps_max > delta)
    probe = np.where(check, eps_max, delta)
    broken = check & np.logical_not(positive(probe - delta) & (rate(probe + delta) <= 0.0))
    if np.any(broken):
        # Non-monotone pocket: take the last sign change on a dense scan.
        grid = np.linspace(0.0, hi + delta, 4097)
        last = grid.shape[0] - 1 - np.argmax(positive(grid)[::-1], axis=0)
        lo, hi = _bisect(positive, _at(grid, last),
                         _at(grid, np.minimum(last + 1, grid.shape[0] - 1)), 1e-5)
        eps_max = np.where(broken, 0.5 * (lo + hi), eps_max)
    return _plain(eps_max), _plain(alive)


def tolerable_excess_noise(src: SourceSpec, distance_km,
                           beta: float = DEFAULT_BETA,
                           loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM) -> tuple:
    """Largest excess noise with a positive key rate at each given distance.

    Returns (eps_max, alive) shaped like distance_km: a float and a bool
    for one distance, arrays for an array of distances, which are all
    searched together.  alive is False (and eps_max 0) where the rate is
    non-positive already in the noiseless channel.  Each search brackets
    the zero crossing, bisects to 1e-5, and falls back to a dense scan if
    the bracket contract fails, since monotonicity in the noise is an
    observed property rather than a proven one.
    """
    rep = covariance_subtracted(src)
    t_c = ChannelSpec(distance_km=distance_km, loss_db_per_km=loss_db_per_km).t_c

    def rate(eps):
        cov = apply_channel(rep.cov, ChannelSpec(t_c=t_c, epsilon=eps))
        return key_rate_homodyne(cov, beta, success_prob=rep.success_prob).key_rate

    return _noise_threshold(rate, np.shape(t_c))


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
            return pipeline_key_rate(src, ch, beta).key_rate
        return optimize_t(src, ch, beta, t_grid, with_bands=False).key_rate_opt

    if best(0.0) <= rate_floor:
        return 0.0
    if best(d_hi) > rate_floor:
        return d_hi
    return float(_bisect(lambda d: best(d) > rate_floor, 0.0, d_hi, resolution_km)[0])


def landscape(src: SourceSpec, ch: ChannelSpec, beta: float = DEFAULT_BETA,
              t_grid: TGrid = TGrid()) -> tuple[np.ndarray, np.ndarray, OptimumRecord]:
    """Key rate over the tap grid, plus the optimum and bands.

    Returns (taps, rates there, optimize_t's record).  For a channel of
    shape S (() for one channel, (n,) for a distance axis, as optimize_t
    takes), taps and rates have shape (t_grid.count,) + S, each column
    holding t_grid.points(), and the record's fields have shape S; every
    distance gets the values of its own scalar call.  Scheme "none" ignores
    the tap, so its rates are flat in t.
    """
    shape = _channel_shape(ch)
    pts = t_grid.points(np.full(shape, t_grid.lo), np.full(shape, t_grid.hi))
    evaluate = _rates(src, ch, beta)
    # the surface is optimize_t's first grid pass, evaluated once for both
    first = evaluate(pts)
    return pts, first[0], _optimum(evaluate, ch, t_grid, True, first)


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
