"""Syndrome belief-propagation decoding (sum-product, vectorized).

Messages live on edge arrays in check-sorted order; per-check tanh
products go through LdpcCode.check_fold and per-variable sums through
bincount, so one iteration is a handful of array passes in float32.
A nonzero target syndrome flips the sign of the corresponding check
product, which is all coset decoding needs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .ldpc import LdpcCode

# tanh magnitudes clipped into [_TANH_FLOOR, _TANH_CEIL] before the
# divide-out step; arctanh argument capped to keep messages finite
_TANH_FLOOR = 1e-12
_TANH_CEIL = 1.0 - 1e-7
_STALL_WINDOW = 50


def decode_syndrome(code: LdpcCode, llr, syndrome, max_iter: int = 200):
    """Run sum-product decoding toward a target syndrome.

    Returns (bits, iterations) on success and (None, iterations) on
    failure.  Success requires the hard-decision syndrome to equal the
    target on two consecutive iterations, which guards against declaring
    success inside an oscillation.  Decoding also stops early once the
    number of unsatisfied checks has not improved for 50 iterations.
    """
    llr = np.asarray(llr, dtype=np.float32)
    if llr.shape != (code.n,):
        raise DomainError(f"llr must have shape ({code.n},), got {llr.shape}")
    syndrome = np.asarray(syndrome)
    if syndrome.shape != (code.m,):
        raise DomainError(f"syndrome must have shape ({code.m},), got {syndrome.shape}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    syn_sign = (1.0 - 2.0 * syndrome.astype(np.float32))

    edge_var = code.edge_var
    edge_chk = code.edge_chk
    m_cv = np.zeros(code.n_edges, dtype=np.float32)
    # llr plus the zero initial messages; a -0.0 here is floored like +0.0
    total = llr
    prev_ok = False
    best_unsat = code.m + 1
    best_iter = 0
    it = 0
    for it in range(1, max_iter + 1):
        t = total[edge_var] - m_cv
        t *= 0.5
        np.tanh(t, out=t)
        np.clip(t, -_TANH_CEIL, _TANH_CEIL, out=t)
        small = np.abs(t) < _TANH_FLOOR
        if small.any():
            t[small] = np.where(t[small] < 0.0, -_TANH_FLOOR, _TANH_FLOOR)
        prod = code.check_fold(np.multiply, t) * syn_sign
        m_cv = prod[edge_chk] / t
        np.clip(m_cv, -_TANH_CEIL, _TANH_CEIL, out=m_cv)
        np.arctanh(m_cv, out=m_cv)
        m_cv *= 2.0

        # the posterior gives the hard decision now and, less each edge's own
        # message, the variable-to-check messages of the next iteration
        total = llr + np.bincount(edge_var, weights=m_cv,
                                  minlength=code.n).astype(np.float32)
        bits = (total < 0.0).astype(np.uint8)
        s_hat = code.syndrome(bits)
        unsat = int(np.count_nonzero(s_hat != syndrome))
        ok = unsat == 0
        if ok and prev_ok:
            return bits, it
        prev_ok = ok
        if unsat < best_unsat:
            best_unsat = unsat
            best_iter = it
        elif it - best_iter >= _STALL_WINDOW:
            break
    return None, it
