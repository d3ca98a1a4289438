"""Truncated Fock-basis oracle for the tapped two-mode squeezed source.

Everything here recomputes, by direct state-vector numerics, quantities that
:mod:`psqkd.subtraction` produces in closed form.  A two-mode squeezed vacuum
is expanded in the photon-number basis, the partner beam is split on the tap
beamsplitter, the counter arm is degraded by a pure-loss channel, and the
click outcome is applied as an explicit number projection.  Click
probabilities and conditional covariances are then read off the surviving
amplitudes with ladder-operator matrix elements.  This is a cross-validation
tool, not a performance path: the closed forms stay authoritative at large
squeezing where the required cutoff grows.

Mode labels: ``a`` is the mode the sender keeps, ``b1`` feeds the photon
counter, ``b2`` is transmitted to the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConditioningError, DomainError, InvalidStateError, TruncationError
from .gaussian import TwoModeCovariance

ON_OFF = "on_off"

# Conditioning below this raw probability is numerically meaningless.
_PROB_FLOOR = 1e-15


@dataclass(frozen=True)
class FockState:
    """Pure three-mode state with sparse real amplitudes.

    Entry ``i`` carries amplitude ``amp[i]`` on the basis ket
    ``|na[i], nb1[i], nb2[i]>``.  All amplitudes arising from squeezing, a
    beamsplitter and photon loss are non-negative reals, so no phases are
    stored.  norm_defect records the squared weight lost to truncation at
    ``cutoff`` photons per mode; the stored amplitudes sum (in squares) to
    one minus that defect.  Instances are immutable.
    """

    na: np.ndarray
    nb1: np.ndarray
    nb2: np.ndarray
    amp: np.ndarray
    cutoff: int
    norm_defect: float

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
        if amp @ amp > 1.0 + 1e-9:
            raise InvalidStateError("squared amplitudes exceed unit norm")
        for arr in (na, nb1, nb2, amp):
            arr.flags.writeable = False
        object.__setattr__(self, "na", na)
        object.__setattr__(self, "nb1", nb1)
        object.__setattr__(self, "nb2", nb2)
        object.__setattr__(self, "amp", amp)


@dataclass(frozen=True)
class LossMixture:
    """Ensemble produced by photon loss on the counter arm.

    components[j] is the (sub-normalized) pure state in which exactly j tap
    photons were lost before detection; its squared norm is the probability
    of that branch, and the branch norms sum to the parent state's norm.
    Branches never interfere, so conditional moments are branch sums.
    """

    components: tuple[FockState, ...]
    eta_d: float


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
    with np.errstate(divide="ignore", invalid="ignore"):
        log_amp = 0.5 * (
            math.log1p(-lam2)
            + special.xlogy(na, lam2)
            + special.gammaln(na + 1)
            - special.gammaln(l + 1)
            - special.gammaln(na - l + 1)
            + special.xlogy(na - l, t)
            + special.xlogy(l, 1.0 - t)
        )
    amp = np.exp(log_amp)
    keep = amp > 0.0
    return FockState(
        na=na[keep], nb1=l[keep], nb2=(na - l)[keep], amp=amp[keep],
        cutoff=cutoff, norm_defect=float(defect),
    )


def apply_detector_loss(state: FockState, eta_d: float) -> LossMixture:
    """Pure-loss channel of transmittance eta_d on the counter arm.

    Photon loss commutes with the later number measurement, so it is applied
    as Kraus operators labeled by the number of photons lost,
    K_j |l> = sqrt(C(l, j) eta^(l-j) (1-eta)^j) |l-j>, giving a block
    ensemble exactly equivalent to binomial thinning of the counter counts.
    """
    if not (0.0 < eta_d <= 1.0):
        raise DomainError(f"eta_d must lie in (0, 1], got {eta_d}")
    if eta_d == 1.0:
        return LossMixture(components=(state,), eta_d=1.0)
    log_eta = math.log(eta_d)
    log_miss = math.log1p(-eta_d)
    max_l = int(state.nb1.max()) if state.nb1.size else 0
    comps = []
    for j in range(max_l + 1):
        sel = state.nb1 >= j
        l = state.nb1[sel]
        log_f = 0.5 * (
            special.gammaln(l + 1)
            - special.gammaln(j + 1)
            - special.gammaln(l - j + 1)
            + (l - j) * log_eta
            + j * log_miss
        )
        comps.append(
            FockState(
                na=state.na[sel], nb1=l - j, nb2=state.nb2[sel],
                amp=state.amp[sel] * np.exp(log_f),
                cutoff=state.cutoff, norm_defect=state.norm_defect,
            )
        )
    return LossMixture(components=tuple(comps), eta_d=eta_d)


def _components(state) -> tuple[FockState, ...]:
    if isinstance(state, LossMixture):
        return state.components
    if isinstance(state, FockState):
        return (state,)
    raise DomainError(f"expected FockState or LossMixture, got {type(state).__name__}")


def _counts(k):
    """Validate the conditioning target, return (is_on_off, k_int)."""
    if isinstance(k, str):
        if k != ON_OFF:
            raise DomainError(f"k must be a count >= 0 or {ON_OFF!r}, got {k!r}")
        return True, 0
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return False, int(k)


def _slices(state, k):
    """Yield the dense kept-pair amplitude block of every contributing slice.

    A slice fixes a loss branch and a counter count; within it the kept pair
    is pure, and distinct slices add incoherently.
    """
    on_off, k_int = _counts(k)
    comps = _components(state)
    n1 = comps[0].cutoff + 1
    for comp in comps:
        if comp.amp.size == 0:
            continue
        if on_off:
            counts = np.unique(comp.nb1)
            counts = counts[counts >= 1]
        else:
            counts = [k_int] if k_int <= comp.cutoff else []
        for c in counts:
            sel = comp.nb1 == c
            if not sel.any():
                continue
            psi = np.zeros((n1, n1))
            psi[comp.na[sel], comp.nb2[sel]] = comp.amp[sel]
            yield psi


def _slice_moments(psi: np.ndarray) -> np.ndarray:
    """Unnormalized moment sums of one pure kept-pair block.

    Returns [weight, <a>, <b>, <n_a>, <n_b>, <a^2>, <b^2>, <ab>, <ab+>]
    where a, b are annihilators of the kept modes; all real because the
    amplitudes are.
    """
    w = psi * psi
    n1 = psi.shape[0]
    idx = np.arange(n1, dtype=float)
    root = np.sqrt(idx[1:])  # sqrt(1..N)
    out = np.empty(9)
    out[0] = w.sum()
    out[1] = (psi[:-1] * psi[1:] * root[:, None]).sum()
    out[2] = (psi[:, :-1] * psi[:, 1:] * root[None, :]).sum()
    out[3] = (w * idx[:, None]).sum()
    out[4] = (w * idx[None, :]).sum()
    out[5] = (psi[:-2] * psi[2:] * (root[:-1] * root[1:])[:, None]).sum()
    out[6] = (psi[:, :-2] * psi[:, 2:] * (root[:-1] * root[1:])[None, :]).sum()
    out[7] = (psi[:-1, :-1] * psi[1:, 1:] * np.outer(root, root)).sum()
    out[8] = (psi[:-1, 1:] * psi[1:, :-1] * np.outer(root, root)).sum()
    return out


def conditioned_moments(state, k) -> ConditionedMoments:
    """Quadrature moments of the kept pair after conditioning the counter.

    state is a FockState or a LossMixture; k is a count >= 0 or "on_off".
    Second moments use x = a + a*, p = -i (a - a*), so the vacuum variance
    is 1 and <x^2> = 2<n> + 1 + 2<a^2>, with the cross terms analogous.
    """
    acc = np.zeros(9)
    for psi in _slices(state, k):
        acc += _slice_moments(psi)
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

