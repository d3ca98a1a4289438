"""Truncated Fock-basis oracle for the tapped two-mode squeezed source.

Everything here recomputes, by direct state-vector numerics, quantities that
:mod:`psqkd.subtraction` produces in closed form.  A two-mode squeezed vacuum
is expanded in the photon-number basis and the partner beam is split on the
tap beamsplitter.  Loss in front of the photon counter commutes with the
number measurement that follows it, so it is carried as the counter's
efficiency eta: a tap count l registers c counts with the binomial
probability C(l, c) eta^c (1-eta)^(l-c).  Click probabilities and
conditional covariances are read off the amplitudes with ladder-operator
matrix elements, summed per tap count and weighted by that response; both
are evaluated in logs, log n! coming from one cumulative sum of NumPy logs.
This is a cross-validation tool, not a performance path: the closed forms
stay authoritative at large squeezing where the required cutoff grows.

Mode labels: ``a`` is the mode the sender keeps, ``b1`` feeds the photon
counter, ``b2`` is transmitted to the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConditioningError, DomainError, InvalidStateError, TruncationError
from .gaussian import TwoModeCovariance, _xlogy

ON_OFF = "on_off"

# Conditioning below this raw probability is numerically meaningless.
_PROB_FLOOR = 1e-15


@dataclass(frozen=True)
class FockState:
    """Pure three-mode state with sparse real amplitudes, and its counter.

    Entry ``i`` carries amplitude ``amp[i]`` on the basis ket
    ``|na[i], nb1[i], nb2[i]>``.  All amplitudes arising from squeezing and
    a beamsplitter are non-negative reals, so no phases are stored.
    norm_defect records the squared weight lost to truncation at ``cutoff``
    photons per mode; the stored amplitudes sum (in squares) to one minus
    that defect.  eta_d is the efficiency of the photon counter on mode
    ``b1``: counter loss acts only on the count statistics, as a binomial
    response to the tap count, so the amplitudes stay those of the lossless
    state.  Instances are immutable.
    """

    na: np.ndarray
    nb1: np.ndarray
    nb2: np.ndarray
    amp: np.ndarray
    cutoff: int
    norm_defect: float
    eta_d: float = 1.0

    def __post_init__(self):
        na = np.asarray(self.na, dtype=np.int64)
        nb1 = np.asarray(self.nb1, dtype=np.int64)
        nb2 = np.asarray(self.nb2, dtype=np.int64)
        amp = np.asarray(self.amp, dtype=float)
        if not (na.shape == nb1.shape == nb2.shape == amp.shape) or na.ndim != 1:
            raise DomainError("index and amplitude arrays must be 1d and equal length")
        if self.cutoff < 2:
            raise DomainError(f"cutoff must be >= 2, got {self.cutoff}")
        for arr in (na, nb1, nb2):
            if arr.size and (arr.min() < 0 or arr.max() > self.cutoff):
                raise DomainError("mode indices must lie in [0, cutoff]")
        if self.norm_defect < 0.0:
            raise DomainError("norm_defect must be >= 0")
        if not (0.0 < self.eta_d <= 1.0):
            raise DomainError(f"eta_d must lie in (0, 1], got {self.eta_d}")
        if np.einsum("i,i->", amp, amp) > 1.0 + 1e-9:
            raise InvalidStateError("squared amplitudes exceed unit norm")
        # read-only views: the caller's own arrays stay writeable, nothing is copied
        for name, arr in (("na", na), ("nb1", nb1), ("nb2", nb2), ("amp", amp)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


@dataclass(frozen=True)
class ConditionedMoments:
    """First and second quadrature moments of the conditioned kept pair.

    Uncentered, in shot-noise units.  The x and p blocks are kept separate
    so tests can check the symmetry that the standard covariance form
    assumes; :meth:`cov` enforces it.
    """

    prob: float
    mean_xa: float
    mean_xb: float
    va_x: float
    va_p: float
    vb_x: float
    vb_p: float
    phi_x: float
    phi_p: float

    def cov(self, tol: float = 1e-8) -> TwoModeCovariance:
        """Standard-form covariance (va, vb, phi), after symmetry checks.

        Requires vanishing means, equal x and p variances per mode and
        opposite-sign cross covariances, all within tol; the conditioned
        split-squeezed states satisfy these exactly.
        """
        scale = max(1.0, abs(self.va_x), abs(self.vb_x))
        ok = (
            abs(self.mean_xa) <= tol * scale
            and abs(self.mean_xb) <= tol * scale
            and abs(self.va_x - self.va_p) <= tol * scale
            and abs(self.vb_x - self.vb_p) <= tol * scale
            and abs(self.phi_x + self.phi_p) <= tol * scale
        )
        if not ok:
            raise InvalidStateError(
                "conditioned state is not in standard form (unbalanced x/p blocks)"
            )
        return TwoModeCovariance(v1=self.va_x, v2=self.vb_x, phi=self.phi_x)


def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0 .. n, as one cumulative sum of logs."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def suggested_cutoff(v: float, tol: float = 1e-9) -> int:
    """Smallest per-mode cutoff keeping the squeezing tail at or below tol.

    The truncation defect of a variance-v source at cutoff N is
    lam^(2(N+1)) with lam^2 = (v-1)/(v+1); this inverts that bound and
    keeps a floor of roughly ten photons above the mean photon number so
    small-v states still resolve conditioning on a few counts.
    """
    if v < 1.0:
        raise DomainError(f"v must be >= 1, got {v}")
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    lam2 = (v - 1.0) / (v + 1.0)
    floor = math.ceil(10.0 + 8.0 * lam2 / (1.0 - lam2))
    if lam2 == 0.0:
        return max(2, floor)
    need = math.ceil(math.log(tol) / math.log(lam2) - 1.0)
    while lam2 ** (need + 1) > tol:
        need += 1
    return max(2, floor, need)


def build_split_tmsv(
    v: float, t: float, cutoff: int | None = None, tol: float = 1e-9
) -> FockState:
    """Tapped two-mode squeezed vacuum, truncated at cutoff photons per mode.

    The partner beam of a variance-v source passes a transmittance-t tap;
    the amplitude on |n, l, n-l> (n total photons, l reflected into the
    counter arm) is

        sqrt(1 - lam^2) lam^n sqrt(C(n, l) t^(n-l) (1-t)^l).

    The tap conserves each n shell, so the truncation defect is the pure
    squeezing tail lam^(2(cutoff+1)), recorded analytically in norm_defect.

    Parameters
    ----------
    v : source quadrature variance, >= 1.
    t : tap transmittance in (0, 1].
    cutoff : photon cutoff per mode; default picks suggested_cutoff(v, tol).
    tol : largest acceptable norm_defect.

    Raises
    ------
    TruncationError
        If the requested cutoff leaves a defect above tol.
    """
    if v < 1.0:
        raise DomainError(f"v must be >= 1, got {v}")
    if not (0.0 < t <= 1.0):
        raise DomainError(f"t must lie in (0, 1], got {t}")
    if cutoff is None:
        cutoff = suggested_cutoff(v, tol)
    if cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {cutoff}")
    lam2 = (v - 1.0) / (v + 1.0)
    defect = lam2 ** (cutoff + 1)
    if defect > tol:
        raise TruncationError(
            f"norm defect {defect:.3e} exceeds tol {tol:.1e} at cutoff {cutoff}; "
            f"suggested cutoff {suggested_cutoff(v, tol)}"
        )
    shells = np.arange(cutoff + 1)
    na = np.repeat(shells, shells + 1)
    l = np.concatenate([np.arange(n + 1) for n in shells])
    log_fact = _log_factorials(cutoff)
    log_amp = 0.5 * (
        math.log1p(-lam2)
        + _xlogy(na, lam2)
        + log_fact[na] - log_fact[l] - log_fact[na - l]
        + _xlogy(na - l, t)
        + _xlogy(l, 1.0 - t)
    )
    amp = np.exp(log_amp)
    keep = amp > 0.0
    return FockState(
        na=na[keep], nb1=l[keep], nb2=(na - l)[keep], amp=amp[keep],
        cutoff=cutoff, norm_defect=float(defect),
    )


def apply_detector_loss(state: FockState, eta_d: float) -> FockState:
    """Pure-loss channel of transmittance eta_d in front of the counter.

    Loss on the counter arm commutes with the number measurement that
    follows it, so it only thins the counts: the efficiencies of successive
    losses multiply into the state's eta_d and no amplitude is touched.
    """
    if not (0.0 < eta_d <= 1.0):
        raise DomainError(f"eta_d must lie in (0, 1], got {eta_d}")
    return replace(state, eta_d=state.eta_d * eta_d)


def _count_response(state: FockState, k) -> np.ndarray:
    """Probability that the counter reports outcome k, per tap count l.

    k is a count >= 0 or "on_off".  A tap count l registers c counts with
    probability C(l, c) eta^c (1-eta)^(l-c), evaluated in logs with
    log C(l, c) read from the log-factorial table; the on-off outcome sums
    this over c >= 1, which is one minus the no-count term (1-eta)^l.
    """
    l = np.arange(state.cutoff + 1)
    eta = state.eta_d
    if isinstance(k, str):
        if k != ON_OFF:
            raise DomainError(f"k must be a count >= 0 or {ON_OFF!r}, got {k!r}")
        return -np.expm1(_xlogy(l, 1.0 - eta))
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    # tap counts l < k cannot give k counts; hit = min(l, k) keeps the table in range
    hit = np.minimum(l, int(k))
    miss = l - hit
    log_fact = _log_factorials(state.cutoff)
    log_p = (_xlogy(hit, eta) + _xlogy(miss, 1.0 - eta)
             + log_fact[l] - log_fact[hit] - log_fact[miss])
    return np.where(l >= k, np.exp(log_p), 0.0)


def _tap_moments(state: FockState) -> np.ndarray:
    """Kept-pair moment sums for every tap count l, shape (cutoff + 1, 9).

    Row l holds [weight, <a>, <b>, <n_a>, <n_b>, <a^2>, <b^2>, <ab>, <ab+>]
    of the unnormalized kept-pair state with l photons in the counter arm,
    where a, b are the annihilators of modes a and b2; all real because the
    amplitudes are.  A ladder term pairs each ket |na, l, nb> with the
    partner |na - da, l, nb - db> it reaches, found by binary search on the
    sorted (na, nb1, nb2) key.
    """
    n1 = state.cutoff + 1
    na, nb, amp = state.na, state.nb2, state.amp
    key = (na * n1 + state.nb1) * n1 + nb
    order = np.argsort(key)
    # a sentinel entry keeps keys[pos] in range when a target exceeds every key
    keys = np.append(key[order], -1)
    amps = np.append(amp[order], 0.0)

    def pair(da, db):
        target = key - da * n1 * n1 - db
        pos = np.searchsorted(keys[:-1], target)
        hit = (keys[pos] == target) & (na >= da) & (nb >= db) & (nb - db < n1)
        return np.where(hit, amp * amps[pos], 0.0)

    w = amp * amp
    ra, rb = np.sqrt(na), np.sqrt(nb)
    sums = (
        w,
        pair(1, 0) * ra,
        pair(0, 1) * rb,
        w * na,
        w * nb,
        pair(2, 0) * np.sqrt(na * (na - 1)),
        pair(0, 2) * np.sqrt(nb * (nb - 1)),
        pair(1, 1) * ra * rb,
        pair(1, -1) * ra * np.sqrt(nb + 1),
    )
    return np.stack([np.bincount(state.nb1, weights=s, minlength=n1) for s in sums],
                    axis=1)


def conditioned_moments(state: FockState, k) -> ConditionedMoments:
    """Quadrature moments of the kept pair after conditioning the counter.

    k is a count >= 0 or "on_off".  Different tap counts never interfere,
    so the conditioned moments are the per-count moment sums weighted by the
    counter's response to outcome k.  Second moments use x = a + a*,
    p = -i (a - a*), so the vacuum variance is 1 and
    <x^2> = 2<n> + 1 + 2<a^2>, with the cross terms analogous.
    """
    acc = _count_response(state, k) @ _tap_moments(state)
    prob = acc[0]
    if prob <= _PROB_FLOOR:
        raise ConditioningError(f"conditioning probability {prob:.3e} is vanishing")
    mean_a, mean_b, num_a, num_b, sq_a, sq_b, ab, abdag = acc[1:] / prob
    return ConditionedMoments(
        prob=float(prob),
        mean_xa=2.0 * mean_a,
        mean_xb=2.0 * mean_b,
        va_x=2.0 * num_a + 1.0 + 2.0 * sq_a,
        va_p=2.0 * num_a + 1.0 - 2.0 * sq_a,
        vb_x=2.0 * num_b + 1.0 + 2.0 * sq_b,
        vb_p=2.0 * num_b + 1.0 - 2.0 * sq_b,
        phi_x=2.0 * (ab + abdag),
        phi_p=2.0 * (abdag - ab),
    )


def condition_on_count(state, k) -> tuple[float, TwoModeCovariance]:
    """Click probability and conditional covariance of the kept pair.

    The covariance is returned in standard form; see ConditionedMoments.cov
    for the symmetry requirements.
    """
    m = conditioned_moments(state, k)
    return m.prob, m.cov()

