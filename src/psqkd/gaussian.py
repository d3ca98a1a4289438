"""Two-mode Gaussian state algebra and the collective-attack key rate.

Conventions
-----------
Shot-noise units throughout: the vacuum has quadrature variance 1, a
symmetric two-mode state in standard form is

    gamma = [[v1*I2, phi*Z], [phi*Z, v2*I2]],    Z = diag(1, -1),

and a pure two-mode squeezed vacuum of variance V has (v1, v2, phi) =
(V, V, sqrt(V^2 - 1)).  The key rate is for reverse reconciliation with
homodyne detection on the second mode, Holevo-bounded collective attacks,
and an overall success probability multiplying the raw rate.

Array evaluation
----------------
The state parameters (v1, v2, phi), a success probability and the results
may be NumPy arrays: every function here broadcasts elementwise through the
same code that evaluates scalars, and every range or physicality check
raises when any element fails it.  Channel parameters stay scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .batch import all_set, any_set, at_least, first_where, sqrt
from .errors import DomainError, InvalidStateError, SingularityError

LN2 = math.log(2.0)

# A symplectic eigenvalue this far below 1 still counts as physical (rounding slack).
PHYSICALITY_TOL = 1e-9


@dataclass(frozen=True)
class TwoModeCovariance:
    """Standard-form two-mode covariance matrix, stored as its three parameters.

    The dataclass performs no validation: unphysical parameter triples are
    representable on purpose so that :func:`check_physicality` can be a total
    function.  Operations that require physicality check it themselves.  The
    parameters may be arrays of one shape, a batch of states; matrix() and
    as_tuple() are for single states.
    """

    v1: float
    v2: float
    phi: float

    def matrix(self) -> np.ndarray:
        """Return the dense 4x4 covariance matrix in (x1, p1, x2, p2) ordering."""
        g = np.zeros((4, 4))
        g[0, 0] = g[1, 1] = self.v1
        g[2, 2] = g[3, 3] = self.v2
        g[0, 2] = g[2, 0] = self.phi
        g[1, 3] = g[3, 1] = -self.phi
        return g

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.v1, self.v2, self.phi)


@dataclass(frozen=True)
class ChannelSpec:
    """Thermal-loss channel, given either directly or through a fiber length.

    Parameters
    ----------
    t_c : float, optional
        Channel transmittance in (0, 1].  Derived from the distance form when
        omitted.
    epsilon : float
        Excess noise referred to the channel input, >= 0.
    distance_km, loss_db_per_km : float, optional
        Fiber form; t_c = 10**(-loss_db_per_km * distance_km / 10).  When both
        forms are given they must agree to 1e-12.
    """

    t_c: float | None = None
    epsilon: float = 0.0
    distance_km: float | None = None
    loss_db_per_km: float | None = None

    def __post_init__(self):
        t_c = self.t_c
        if self.distance_km is not None:
            if self.loss_db_per_km is None:
                raise DomainError("distance_km given without loss_db_per_km")
            if self.distance_km < 0 or self.loss_db_per_km < 0:
                raise DomainError("distance and loss must be non-negative")
            derived = 10.0 ** (-self.loss_db_per_km * self.distance_km / 10.0)
            if t_c is None:
                t_c = derived
            elif abs(t_c - derived) > 1e-12:
                raise DomainError(
                    f"t_c={t_c} inconsistent with distance form (expected {derived})"
                )
        elif self.loss_db_per_km is not None:
            raise DomainError("loss_db_per_km given without distance_km")
        if t_c is None:
            raise DomainError("ChannelSpec needs t_c or the distance form")
        if not (0.0 < t_c <= 1.0):
            raise DomainError(f"t_c must lie in (0, 1], got {t_c}")
        if self.epsilon < 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        object.__setattr__(self, "t_c", float(t_c))

    @property
    def chi(self) -> float:
        """Total channel-referred added noise (1 - t_c)/t_c + epsilon."""
        return (1.0 - self.t_c) / self.t_c + self.epsilon


@dataclass(frozen=True)
class KeyRateReport:
    """Decomposition of one key-rate evaluation (bits per emitted symbol).

    The fields are arrays of one shape for a batch of states.
    """

    mutual_info: float
    holevo: float
    raw_rate: float
    success_prob: float
    key_rate: float
    beta: float

    @property
    def is_secure(self):
        """True iff the key rate is positive (a bool array for a batch)."""
        secure = self.key_rate > 0.0
        return secure if isinstance(secure, np.ndarray) else bool(secure)


def _physicality(cov: TwoModeCovariance):
    """(physical mask, real-spectrum mask, lam2^2, Delta) of cov.

    lam2^2 = (Delta - sqrt(disc))/2 takes the discriminant
    disc = Delta^2 - 4 det in its factored form
    (v1 - v2)^2 ((v1 + v2)^2 - 4 phi^2), which vanishes exactly for v1 = v2
    (lam1 = lam2, as for a pure state), where the difference of squares
    leaves rounding noise of order sqrt(machine epsilon) in lam2.  A
    discriminant slightly below zero is rounding and counts as zero.  A
    state is physical iff its spectrum is real and v1, v2 and lam2 are all
    >= 1 - PHYSICALITY_TOL (a vacuum sent through a lossy channel comes out
    with v2 = 1 - 1e-16); a NaN anywhere fails the test.
    """
    v1, v2, phi = cov.v1, cov.v2, cov.phi
    delta = v1 * v1 + v2 * v2 - 2.0 * phi * phi
    gap, total = v1 - v2, v1 + v2
    disc = gap * gap * (total * total - 4.0 * phi * phi)
    real = disc >= -1e-12 * at_least(delta * delta, 1.0)
    lo = (delta - sqrt(at_least(disc, 0.0))) / 2.0
    floor = 1.0 - PHYSICALITY_TOL
    good = real & (v1 >= floor) & (v2 >= floor) & (lo >= floor * floor)
    return good, real, lo, delta


def check_physicality(cov: TwoModeCovariance):
    """True iff ``cov`` describes a physical state (a bool array for a batch).

    The test is v1, v2 and the smaller symplectic eigenvalue all
    >= 1 - 1e-9.  Total function: never raises.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        good = _physicality(cov)[0]
    return good if isinstance(good, np.ndarray) else bool(good)


def symplectic_eigenvalues(cov: TwoModeCovariance):
    """Symplectic spectrum (lam1 >= lam2) of a physical standard-form state.

    Closed form via the two symplectic invariants
    Delta = v1^2 + v2^2 - 2 phi^2 and det = (v1 v2 - phi^2)^2:
    lam_{1,2}^2 = (Delta +/- sqrt(Delta^2 - 4 (v1 v2 - phi^2)^2)) / 2.
    The values use this difference of squares as written (the physicality
    test uses the factored form, see _physicality); near lam1 = lam2 both
    carry rounding noise of order sqrt(machine epsilon).
    """
    good, real, lo, delta = _physicality(cov)
    if not all_set(good):
        is_real, lo_i, *state = first_where(np.logical_not(good), real, lo,
                                            cov.v1, cov.v2, cov.phi)
        state = TwoModeCovariance(*state)
        if not is_real:
            raise InvalidStateError(f"complex symplectic spectrum for {state}")
        if lo_i < 0.0:
            raise InvalidStateError(f"negative squared symplectic eigenvalue for {state}")
        raise InvalidStateError(
            f"non-physical covariance {state}: smallest symplectic eigenvalue "
            f"{math.sqrt(lo_i)}")
    d = cov.v1 * cov.v2 - cov.phi * cov.phi
    root = sqrt(at_least(delta * delta - 4.0 * d * d, 0.0))
    return sqrt((delta + root) / 2.0), sqrt(at_least((delta - root) / 2.0, 0.0))


def _entropy(x):
    # special.xlogy evaluates x log x with the C library's log on scalars and
    # arrays alike, so a batch gives the same bits as its elements one by one.
    return (special.xlogy(x + 1.0, x + 1.0) - special.xlogy(x, x)) / LN2


def entropy_term(x):
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0.

    ``x`` is the mean thermal photon number (lam - 1)/2 of a symplectic
    eigenvalue lam.
    """
    if any_set(x < 0.0):
        raise DomainError(f"entropy_term needs x >= 0, got {first_where(x < 0.0, x)[0]}")
    return _entropy(x)


def apply_channel(cov: TwoModeCovariance, ch: ChannelSpec) -> TwoModeCovariance:
    """Send the second mode through a thermal-loss channel.

    (v1, v2, phi) -> (v1, t_c*(v2 + chi), sqrt(t_c)*phi) with
    chi = (1 - t_c)/t_c + epsilon.  t_c = 1, epsilon = 0 is the identity.
    """
    good = _physicality(cov)[0]
    if not all_set(good):
        state = TwoModeCovariance(*first_where(np.logical_not(good),
                                               cov.v1, cov.v2, cov.phi))
        raise InvalidStateError(f"apply_channel needs a physical input, got {state}")
    return TwoModeCovariance(
        v1=cov.v1,
        v2=ch.t_c * (cov.v2 + ch.chi),
        phi=math.sqrt(ch.t_c) * cov.phi,
    )


def key_rate_homodyne(
    cov: TwoModeCovariance,
    beta: float,
    success_prob: float = 1.0,
) -> KeyRateReport:
    """Reverse-reconciliation key rate of a shared state against collective attacks.

    Mutual information uses Alice's heterodyne variance (v1+1)/2 conditioned on
    Bob's homodyne outcome; the Holevo bound uses the joint symplectic spectrum
    and the conditional single-mode eigenvalue sqrt(v1*(v1 - phi^2/v2)).
    Negative rates are returned as-is, never clamped.

    Parameters
    ----------
    cov : TwoModeCovariance
        Post-channel state shared by Alice and Bob.
    beta : float
        Reconciliation efficiency in (0, 1].
    success_prob : float
        Probability weight multiplying the raw rate (postselection yield).
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    in_range = (0.0 <= success_prob) & (success_prob <= 1.0)
    if not all_set(in_range):
        bad = np.logical_not(in_range)
        raise DomainError(f"success_prob must lie in [0, 1], got "
                          f"{first_where(bad, success_prob)[0]}")
    v1, v2, phi = cov.v1, cov.v2, cov.phi
    if any_set(v2 == 0.0):
        raise SingularityError("key_rate_homodyne: v2 = 0")

    va = (v1 + 1.0) / 2.0
    va_cond = va - phi * phi / (2.0 * v2)
    if any_set(va_cond <= 0.0):
        state = TwoModeCovariance(*first_where(va_cond <= 0.0, v1, v2, phi))
        raise InvalidStateError(f"negative conditional variance for {state}")
    mutual_info = 0.5 * np.log2(va / va_cond)

    lam1, lam2 = symplectic_eigenvalues(cov)
    lam3 = sqrt(at_least(v1 * (v1 - phi * phi / v2), 0.0))
    x1, x2, x3 = (lam1 - 1.0) / 2.0, (lam2 - 1.0) / 2.0, (lam3 - 1.0) / 2.0
    # lam1 >= lam2 passed the physicality test, so x1 and x2 are at worst
    # rounding below zero; the conditional eigenvalue lam3 gets a 2e-9 slack.
    if any_set(x3 < -1e-9):
        *state, lam = first_where(x3 < -1e-9, v1, v2, phi, lam3)
        raise InvalidStateError(f"conditional symplectic eigenvalue {lam} below 1 "
                                f"for {TwoModeCovariance(*state)}")
    holevo = (
        _entropy(at_least(x1, 0.0))
        + _entropy(at_least(x2, 0.0))
        - _entropy(at_least(x3, 0.0))
    )
    raw = beta * mutual_info - holevo
    return KeyRateReport(
        mutual_info=mutual_info,
        holevo=holevo,
        raw_rate=raw,
        success_prob=success_prob,
        key_rate=success_prob * raw,
        beta=beta,
    )
