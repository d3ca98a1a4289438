"""Conditional source preparation by photon counting on a tap of mode B.

A two-mode squeezed vacuum of variance V is split on a beamsplitter of
transmittance T; the reflected arm hits a photon counter of efficiency
eta_d.  Registering k clicks (or any click, for on-off counters) prepares a
non-Gaussian conditional state of the kept pair whose second moments, click
probabilities and equivalent-loss parametrization are computed here in
closed form.  In the prepare-and-measure picture the same conditioning is a
classical acceptance filter on Alice's heterodyne data, implemented by
:func:`filter_q`.

Counter loss has closed forms too.  The tap photon number m is geometric,
P(m) = (1 - r) r^m with r = lam^2 (1 - T)/(1 - T lam^2), and the counter
thins it binomially.  Summing the thinned series with
sum_{m>=k} C(m, k) x^(m-k) = (1 - x)^-(k+1), where x = (1 - eta_d) r, gives

    P(k clicks) = (1 - r) (eta_d r)^k / (1 - x)^(k+1),
    <vt | k>    = (k + 1) / ((1 - x)(1 - T lam^2)),

and the on-off scheme follows from the k = 0 term.  For eta_d = 1 (x = 0)
these are the ideal-counter laws, evaluated by the same expressions.

The tap transmittance T may be a NumPy array: every closed form here is one
NumPy expression that broadcasts over it, and a scalar T gives floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import TwoModeCovariance, _first, _plain

SCHEME_NONE = "none"
SCHEME_K_PHOTON = "k_photon"
SCHEME_ON_OFF = "on_off"
_SCHEMES = (SCHEME_NONE, SCHEME_K_PHOTON, SCHEME_ON_OFF)

K_MAX = 64


@dataclass(frozen=True)
class SourceSpec:
    """Source configuration: squeezing, tap transmittance, conditioning scheme.

    scheme "none" disables the tap entirely (t is forced to 1, k to 0),
    "k_photon" conditions on exactly ``k`` clicks, "on_off" on at least one
    click.
    eta_d is the counter efficiency; the detected fraction of tap photons.
    t may be an array of tap transmittances (a list is converted to one);
    v, k and eta_d are scalars.
    """

    v: float
    t: float = 1.0
    scheme: str = SCHEME_NONE
    k: int = 0
    eta_d: float = 1.0

    def __post_init__(self):
        if self.v < 1.0:
            raise DomainError(f"v must be >= 1, got {self.v}")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.scheme == SCHEME_NONE:
            object.__setattr__(self, "t", 1.0)
            object.__setattr__(self, "k", 0)
        elif isinstance(self.t, (list, tuple)):
            object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        t = self.t
        bad = np.logical_not((0.0 < t) & (t <= 1.0))
        if np.any(bad):
            raise DomainError(f"t must lie in (0, 1], got {_first(bad, t)[0]}")
        if self.scheme == SCHEME_K_PHOTON and not (0 <= self.k <= K_MAX):
            raise DomainError(f"k must lie in [0, {K_MAX}], got {self.k}")
        if not (0.0 < self.eta_d <= 1.0):
            raise DomainError(f"eta_d must lie in (0, 1], got {self.eta_d}")
        if not np.all(t * self.lambda2 < 1.0):
            raise DomainError("t * lambda^2 must be < 1")

    @property
    def lambda2(self) -> float:
        """Squared squeezing parameter (v - 1)/(v + 1)."""
        return (self.v - 1.0) / (self.v + 1.0)

    @property
    def lam(self) -> float:
        return math.sqrt(self.lambda2)

    @classmethod
    def tmsv(cls, v):
        return cls(v=v)

    @classmethod
    def k_photon(cls, v, t, k, eta_d=1.0):
        return cls(v=v, t=t, scheme=SCHEME_K_PHOTON, k=k, eta_d=eta_d)

    @classmethod
    def on_off(cls, v, t, eta_d=1.0):
        return cls(v=v, t=t, scheme=SCHEME_ON_OFF, eta_d=eta_d)


@dataclass(frozen=True)
class SubtractionReport:
    """Closed-form summary of the conditional state.

    success_prob is the click probability, v_tilde the variance of Alice's
    accepted heterodyne marginal and cov the conditional covariance of the
    kept pair.  Every field is an array shaped like the source's t when t
    is an array.
    """

    success_prob: float
    v_tilde: float
    cov: TwoModeCovariance

    @property
    def v_a(self):
        """Variance of the equivalent pure source, cov.v1."""
        return self.cov.v1

    @property
    def eta_a(self):
        """Transmittance of the equivalent loss on mode B.

        (v_a, eta_a) reproduce cov exactly as a pure source of variance v_a
        whose second mode passed a loss eta_a:
        cov = (v_a, eta_a*v_a + 1 - eta_a, sqrt(eta_a*(v_a^2 - 1))), so
        eta_a = (v2 - 1)/(v1 - 1), and 1 in the vacuum limit v1 = 1.  For an
        ideal k-click counter this is T lam^2 (k+1)/(k + T lam^2).
        """
        v1, v2 = self.cov.v1, self.cov.v2
        vacuum = v1 <= 1.0
        return _plain(np.where(vacuum, 1.0, (v2 - 1.0) / np.where(vacuum, 1.0, v1 - 1.0)))


def _tap_law(src: SourceSpec):
    """(1 - T lam^2, r, x): the geometric tap-photon ratio r and x = (1 - eta_d) r."""
    denom = 1.0 - src.t * src.lambda2
    r = src.lambda2 * (1.0 - src.t) / denom
    return denom, r, (1.0 - src.eta_d) * r


def success_prob_k(src: SourceSpec, k: int | None = None):
    """Probability of exactly k clicks (k defaults to the source's count).

    (1 - lam^2)/(1 - T lam^2) * (eta_d r)^k / (1 - x)^(k+1), the closed sum
    of the binomially thinned geometric tap law (module docstring); for an
    ideal counter, x = 0 leaves the geometric law itself.
    """
    if k is None:
        k = src.k
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    denom, r, x = _tap_law(src)
    base = (1.0 - src.lambda2) / denom
    return base * np.power(src.eta_d * r, k) / np.power(1.0 - x, k + 1)


def success_prob_onoff(src: SourceSpec):
    """Probability of at least one click, eta_d r / (1 - x).

    One minus the k = 0 term; for an ideal counter (1-T) lam^2 / (1 - T lam^2).
    """
    _, r, x = _tap_law(src)
    return src.eta_d * r / (1.0 - x)


def v_tilde(src: SourceSpec, k: int | None = None):
    """Conditional variance of Alice's accepted heterodyne marginal.

    Exactly k clicks (k defaults to the source's count):
    (k+1)/((1 - x)(1 - T lam^2)), which for an ideal counter is
    (k+1)/(1 - T lam^2); for k = 0, T = 1 this is the unconditioned
    heterodyne variance (V+1)/2.  On-off sources with k omitted get the
    variance over all k >= 1 clicks,
    (2 - r - x) / ((1 - r)(1 - x)(1 - T lam^2)), the whole tap law's mean
    1/((1 - r)(1 - T lam^2)) with the k = 0 branch taken out.  A dark tap
    (r = 0) keeps the limiting values of these formulas.
    """
    denom, r, x = _tap_law(src)
    if k is None and src.scheme == SCHEME_ON_OFF:
        return (2.0 - r - x) / ((1.0 - r) * (1.0 - x) * denom)
    if k is None:
        k = src.k
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return (k + 1.0) / ((1.0 - x) * denom)


def _cov_from_v_tilde(lam, t, vt) -> TwoModeCovariance:
    """Conditional covariance of the kept pair for acceptance variance vt."""
    return TwoModeCovariance(
        v1=2.0 * vt - 1.0,
        v2=2.0 * t * lam * lam * vt + 1.0,
        phi=2.0 * np.sqrt(t) * lam * vt,
    )


def covariance_subtracted(src: SourceSpec) -> SubtractionReport:
    """Conditional covariance and click probability for the configured scheme.

    Every conditional component with m tap photons removed has second moments
    linear in its acceptance variance (m+1)/(1 - T lam^2) and zero mean, so
    any counter model reduces to the weight-averaged variance <vt>
    (:func:`v_tilde`).
    """
    if src.scheme == SCHEME_NONE:
        vt = (src.v + 1.0) / 2.0
        cov = TwoModeCovariance(src.v, src.v, math.sqrt(src.v**2 - 1.0))
        return SubtractionReport(1.0, vt, cov)

    if src.scheme == SCHEME_K_PHOTON:
        prob = success_prob_k(src)
    else:
        prob = success_prob_onoff(src)
    vt = v_tilde(src)
    return SubtractionReport(prob, vt, _cov_from_v_tilde(src.lam, src.t, vt))


def _filter_coefficient(src: SourceSpec):
    """c in the filter's detected mean photon number u = c (x_a^2 + p_a^2)."""
    return src.eta_d * (1.0 - src.t) * src.lambda2 / 2.0


def filter_q(x_a, p_a, src: SourceSpec):
    """Acceptance probability of Alice's heterodyne outcome (x_a, p_a).

    The virtual-conditioning filter.  Given Alice's outcome, the tap arm
    holds a coherent state of mean photon number (1-T) lam^2 (x_a^2 + p_a^2)/2,
    and a counter of efficiency eta_d thins it to
    u = eta_d (1-T) lam^2 (x_a^2 + p_a^2)/2.  k-click acceptance is the
    Poisson weight e^(-u) u^k / k!, on-off acceptance is 1 - e^(-u), and
    scheme "none" accepts everything.  A lossy counter therefore equals an
    ideal one on outcomes scaled by sqrt(eta_d).  Vectorized over numpy
    inputs; values lie in [0, 1] with supremum k^k e^(-k)/k! over outcomes
    for the k-click filter.
    """
    x_a = np.asarray(x_a, dtype=float)
    p_a = np.asarray(p_a, dtype=float)
    shape = np.broadcast_shapes(x_a.shape, p_a.shape, np.shape(_filter_coefficient(src)))
    q = np.empty(shape)
    _filter_into(x_a, p_a, src, q, np.empty(shape))
    if q.shape == ():
        return float(q)
    return q


def _filter_into(x, p, src: SourceSpec, q, scratch) -> None:
    """Write filter_q(x, p, src) into the float array q, with no other temporary.

    x and p broadcast to q's shape, and scratch is a float array of that
    shape whose contents are overwritten.  The operations are filter_q's
    formula step by step, so q gets its bits exactly.  Block-wise callers
    pass slices of small reused buffers and keep the work in cache.
    """
    if src.scheme == SCHEME_NONE:
        q[...] = 1.0
        return
    np.multiply(x, x, out=q)
    np.multiply(p, p, out=scratch)
    np.add(q, scratch, out=q)
    np.multiply(_filter_coefficient(src), q, out=q)  # u
    if src.scheme == SCHEME_ON_OFF:
        np.negative(q, out=q)
        np.expm1(q, out=q)
        np.negative(q, out=q)
        return
    # exp(k log u - u - lgamma(k + 1)), the k log u term taken as 0 at k = 0
    # (0 log 0 = 0), as gaussian._xlogy takes it
    if src.k == 0:
        scratch[...] = 0.0
    else:
        with np.errstate(divide="ignore"):
            np.log(q, out=scratch)
        np.multiply(src.k, scratch, out=scratch)
    np.subtract(scratch, q, out=q)
    np.subtract(q, math.lgamma(src.k + 1), out=q)
    np.exp(q, out=q)
