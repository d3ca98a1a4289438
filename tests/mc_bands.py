"""Standard-error bands for the Monte Carlo moment estimates.

MomentEstimate carries the Gaussian fourth-moment standard errors, which
run a little small on the non-Gaussian accepted subset, so the band checks
in the tests inflate them by SE_INFLATION.
"""

SE_INFLATION = 1.2


def cov_within(est, target, n_sigma: float = 3.0) -> bool:
    """Entrywise |est.cov - target| <= n_sigma inflated standard errors."""
    s = n_sigma * SE_INFLATION
    return (
        abs(est.cov.v1 - target.v1) <= s * est.se_v1
        and abs(est.cov.v2 - target.v2) <= s * est.se_v2
        and abs(est.cov.phi - target.phi) <= s * est.se_phi
    )
