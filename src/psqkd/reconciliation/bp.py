"""Syndrome belief-propagation decoding (sum-product, vectorized).

Messages live in the code's slot order (LdpcCode.slots): check-to-variable
messages on check slots, where a check's edges are one entry in each of
its degree's leading columns, so per-check tanh products are a fold over
contiguous column slices.  One gather through c2v brings the messages to
variable slots, where a float64 column fold sums each variable's messages
in canonical edge order; one gather through sv brings the posteriors back
to check slots, as the hard decisions whose parities are checked and as
the next iteration's variable-to-check inputs.  Messages are float32.  A
nonzero target syndrome flips the sign of the corresponding check product,
which is all coset decoding needs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .ldpc import LdpcCode, fold_columns

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

    lay = code.slots
    chk_cols, var_cols, sv, c2v = lay.chk_cols, lay.var_cols, lay.sv, lay.c2v
    # checks and variables in rank order from here on
    syndrome = syndrome[lay.chk_order]
    syn_sign = (1.0 - 2.0 * syndrome.astype(np.float32))
    llr = llr[lay.var_order]

    m_cv = np.zeros(code.n_edges, dtype=np.float32)
    # llr plus the zero initial messages; a -0.0 here is floored like +0.0
    te = llr[sv]
    prev_ok = False
    best_unsat = code.m + 1
    best_iter = 0
    it = 0
    for it in range(1, max_iter + 1):
        t = te
        t -= m_cv
        t *= 0.5
        np.tanh(t, out=t)
        np.clip(t, -_TANH_CEIL, _TANH_CEIL, out=t)
        small = np.abs(t) < _TANH_FLOOR
        if small.any():
            t[small] = np.where(t[small] < 0.0, -_TANH_FLOOR, _TANH_FLOOR)
        prod = fold_columns(np.multiply, t, chk_cols)
        prod *= syn_sign
        for col in chk_cols:
            np.divide(prod[:col.stop - col.start], t[col], out=m_cv[col])
        np.clip(m_cv, -_TANH_CEIL, _TANH_CEIL, out=m_cv)
        np.arctanh(m_cv, out=m_cv)
        m_cv *= 2.0

        # the posterior gives the hard decision now and, less each edge's own
        # message, the variable-to-check messages of the next iteration; its
        # sums start from the first message, so + 0.0 turns a -0.0 into the
        # +0.0 that a sum starting from zero gives
        acc = fold_columns(np.add, m_cv[c2v], var_cols, np.float64)
        acc += 0.0
        total = llr + acc.astype(np.float32)
        te = total[sv]
        s_hat = fold_columns(np.bitwise_xor, te < 0.0, chk_cols)
        unsat = int(np.count_nonzero(s_hat != syndrome))
        ok = unsat == 0
        if ok and prev_ok:
            bits = np.empty(code.n, dtype=np.uint8)
            bits[lay.var_order] = total < 0.0
            return bits, it
        prev_ok = ok
        if unsat < best_unsat:
            best_unsat = unsat
            best_iter = it
        elif it - best_iter >= _STALL_WINDOW:
            break
    return None, it
