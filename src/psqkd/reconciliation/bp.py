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

A decode works in the arrays of a Workspace: two float32 arrays and one
bool mask per edge, and a few arrays per check and per variable.  Its
iterations allocate nothing but the few entries that sit on the tanh
floor.  The edge array t holds the variable-to-check messages, then the
gathered check-to-variable messages, then the gathered posteriors, which
are the next iteration's inputs; m_cv holds the checks' |product| for the
floor test, and |t| when that test falls back to scanning the edges,
before the new messages overwrite it.  A caller decoding many blocks
allocates one Workspace per thread and passes it to every call, as bench
does for each of its workers; a call without one allocates its own.  The
workspace changes no result.

The floor is tested on the per-check products, not on every edge: each
|t| is at most _TANH_CEIL < 1, so no product is larger in magnitude than
the least |t| it folds, and when no product is below the floor no edge
is.  A product below it, or nan, sends the iteration through the edge
scan and a refold, so every result is that of flooring the edges first.
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


class Workspace:
    """The arrays decode_syndrome works in, for codes of one (n, m, edges).

    Per edge: the messages m_cv and t (float32) and the mask small.  Per
    check: the tanh products prod and the syndrome signs sign (float32),
    and the hard-decision parities s_hat.  Per variable: the ranked llr
    and the posteriors total (float32), and the float64 message sums acc.
    A workspace serves one decode at a time.
    """

    def __init__(self, code: LdpcCode):
        self.shape = (code.n, code.m, code.n_edges)
        self.m_cv, self.t = (np.empty(code.n_edges, dtype=np.float32) for _ in range(2))
        self.small = np.empty(code.n_edges, dtype=bool)
        self.prod, self.sign = (np.empty(code.m, dtype=np.float32) for _ in range(2))
        self.s_hat = np.empty(code.m, dtype=bool)
        self.llr, self.total = (np.empty(code.n, dtype=np.float32) for _ in range(2))
        self.acc = np.empty(code.n)


def decode_syndrome(code: LdpcCode, llr, syndrome, max_iter: int = 200,
                    workspace: Workspace | None = None):
    """Run sum-product decoding toward a target syndrome.

    Returns (bits, iterations) on success and (None, iterations) on
    failure.  Success requires the hard-decision syndrome to equal the
    target on two consecutive iterations, which guards against declaring
    success inside an oscillation.  Decoding also stops early once the
    number of unsatisfied checks has not improved for 50 iterations.  The
    decode works in workspace, a Workspace for the code, or in a new one.
    """
    llr = np.asarray(llr, dtype=np.float32)
    if llr.shape != (code.n,):
        raise DomainError(f"llr must have shape ({code.n},), got {llr.shape}")
    syndrome = np.asarray(syndrome)
    if syndrome.shape != (code.m,):
        raise DomainError(f"syndrome must have shape ({code.m},), got {syndrome.shape}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    ws = Workspace(code) if workspace is None else workspace
    if ws.shape != (code.n, code.m, code.n_edges):
        raise DomainError(f"workspace is for (n, m, edges) {ws.shape}, the code has "
                          f"{(code.n, code.m, code.n_edges)}")

    lay = code.slots
    # the writeable bases of the layout's read-only index views, which take
    # would copy; the indices are in range, so its "wrap" mode wraps none,
    # and its default mode would copy the result through a temporary
    chk_cols, var_cols, sv, c2v = lay.chk_cols, lay.var_cols, lay.sv.base, lay.c2v.base
    m_cv, t, small = ws.m_cv, ws.t, ws.small
    prod_abs = m_cv[:code.m]
    prod, syn_sign, s_hat = ws.prod, ws.sign, ws.s_hat
    ranked, acc, total = ws.llr, ws.acc, ws.total
    # checks and variables in rank order from here on
    syndrome = syndrome[lay.chk_order]
    np.multiply(syndrome, -2.0, out=syn_sign)
    syn_sign += 1.0
    np.take(llr, lay.var_order.base, out=ranked, mode="wrap")

    m_cv.fill(0.0)
    # llr plus the zero initial messages; a -0.0 here is floored like +0.0
    np.take(ranked, sv, out=t, mode="wrap")
    prev_ok = False
    best_unsat = code.m + 1
    best_iter = 0
    it = 0
    for it in range(1, max_iter + 1):
        t -= m_cv
        t *= 0.5
        np.tanh(t, out=t)
        np.clip(t, -_TANH_CEIL, _TANH_CEIL, out=t)
        fold_columns(np.multiply, t, chk_cols, prod)
        # no |product| exceeds the least |t| it folds, so only a product
        # below the floor (or nan) needs the edge scan and a refold; m_cv
        # is dead until the divide below writes the new messages
        np.abs(prod, out=prod_abs)
        if not prod_abs.min() >= _TANH_FLOOR:
            np.abs(t, out=m_cv)
            np.less(m_cv, _TANH_FLOOR, out=small)
            if small.any():
                t[small] = np.where(t[small] < 0.0, -_TANH_FLOOR, _TANH_FLOOR)
                fold_columns(np.multiply, t, chk_cols, prod)
        prod *= syn_sign
        for col in chk_cols:
            np.divide(prod[:col.stop - col.start], t[col], out=m_cv[col])
        np.clip(m_cv, -_TANH_CEIL, _TANH_CEIL, out=m_cv)
        np.arctanh(m_cv, out=m_cv)
        m_cv *= 2.0

        # the posterior gives the hard decision now and, less each edge's own
        # message, the variable-to-check messages of the next iteration; its
        # sums start from the first message, so + 0.0 turns a -0.0 into the
        # +0.0 that a sum starting from zero gives.  t is free until then
        np.take(m_cv, c2v, out=t, mode="wrap")
        fold_columns(np.add, t, var_cols, acc)
        acc += 0.0
        # the float64 sums rounded to float32, then added: llr + sums.astype
        np.add(ranked, acc, out=total, dtype=np.float32)
        np.take(total, sv, out=t, mode="wrap")
        np.less(t, 0.0, out=small)
        fold_columns(np.bitwise_xor, small, chk_cols, s_hat)
        np.not_equal(s_hat, syndrome, out=s_hat)
        unsat = int(np.count_nonzero(s_hat))
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
