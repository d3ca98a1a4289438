"""Eight-dimensional reconciliation over the induced binary-input channel.

Bob maps each block of eight samples onto the unit sphere point carrying
his key bits, publishes the rotation coefficients taking his normalized
block there, and the syndrome of the bits.  Alice applies the same
rotation to her normalized block; her result concentrates around Bob's
sphere point with a spread set only by the correlation of the data.

The per-dimension channel model is computed exactly rather than assumed.
Writing Alice's normalized block as cos(theta) times Bob's direction plus
an isotropic remainder, each rotated coordinate v_i obeys
E[v_i | u_i] = mu u_i and Var[v_i] = (1 - mu^2)/8 with mu = E[cos theta].
For correlated unit-variance Gaussian vectors in d dimensions
mu = (2/d) (Gamma((d+1)/2)/Gamma(d/2))^2 rho 2F1(1/2, 1/2; d/2+1; rho^2)
with rho^2 = snr/(1 + snr) (Leverrier et al., PRA 77, 042325 (2008)); at
d = 1 this is the sign-correlation law (2/pi) arcsin(rho).  LLRs then
follow from the Gaussian approximation of v_i, whose first two moments the
model gets exactly (the calibration test gates this).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateBlockError, DomainError
from .bp import decode_syndrome
from .ldpc import LdpcCode
from .rotation import apply_rotation, rotation_coefficients

_NORM_FLOOR = 1e-12
_ROOT8 = math.sqrt(8.0)
# small-snr slope mu/rho = (2/8) (Gamma(9/2)/Gamma(4))^2
_MU_SLOPE = 0.25 * (math.gamma(4.5) / math.gamma(4.0)) ** 2


class OctetBuffers:
    """The arrays one block's preparation works in, for blocks of n symbols.

    Three octet arrays of n doubles, each used as (n/8, 8) rows or as the
    transpose of an (8, n/8) buffer, which apply_rotation reads and writes
    in place: unit, the normalized block, Bob's in rows and then Alice's
    transposed; alpha, the rotation coefficients, transposed; and spare,
    the squares behind each block's norms, then Bob's sphere point u in
    rows, then Alice's rotated block transposed.  Plus the n/8 block norms.
    A caller preparing many blocks allocates one and passes it to
    encode_side_info and block_llr for each block, as bench does; the
    buffers change no result.  Views they return are valid until the next
    call with the same buffers.
    """

    def __init__(self, n: int):
        if n < 0 or n % 8:
            raise DomainError(f"block length must be a multiple of 8, got {n}")
        self.octets = n // 8
        self.unit, self.alpha, self.spare = (np.empty(n) for _ in range(3))
        self.norms = np.empty(self.octets)

    def rows(self, buf) -> np.ndarray:
        return buf.reshape(self.octets, 8)

    def transposed(self, buf) -> np.ndarray:
        return buf.reshape(8, self.octets).T


def _buffers(blocks, side: str, buffers: OctetBuffers | None) -> OctetBuffers:
    """Validated (nb, 8) blocks' buffers: the given ones or new ones."""
    if blocks.ndim != 2 or blocks.shape[1] != 8:
        raise DomainError(f"{side} blocks must have shape (nb, 8), got {blocks.shape}")
    if buffers is None:
        return OctetBuffers(blocks.size)
    if buffers.octets != len(blocks):
        raise DomainError(f"buffers hold {buffers.octets} octets, {side} blocks "
                          f"have {len(blocks)}")
    return buffers


def _unit_blocks(blocks, side: str, buf: OctetBuffers, out) -> np.ndarray:
    """The blocks over their norms, written to out, a view of buf.unit."""
    squares = buf.rows(buf.spare)
    # np.linalg.norm's own steps, in the buffers: squares, their sum per
    # block, its root
    np.multiply(blocks, blocks, out=squares)
    np.add.reduce(squares, axis=1, out=buf.norms)
    np.sqrt(buf.norms, out=buf.norms)
    bad = int(np.count_nonzero(buf.norms <= _NORM_FLOOR))
    if bad:
        raise DegenerateBlockError(f"{bad} {side} block(s) with norm below {_NORM_FLOOR:g}")
    return np.divide(blocks, buf.norms[:, None], out=out)


def encode_side_info(y_blocks, bits, buffers: OctetBuffers | None = None):
    """Bob's side information: rotation coefficients per block, plus u.

    y_blocks has shape (nb, 8) and bits length 8*nb; returns (alpha, u)
    with both shaped (nb, 8), u_i = (1 - 2 b_i)/sqrt(8).  The syndrome of
    the bits travels separately (an LdpcCode computes it).  The work runs
    in buffers, or in new ones; alpha and u are views of them.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % 8:
        raise DomainError(f"bit count must be a multiple of 8, got shape {bits.shape}")
    blocks = np.asarray(y_blocks, dtype=float)
    buf = _buffers(blocks, "reference", buffers)
    y_unit = _unit_blocks(blocks, "reference", buf, buf.rows(buf.unit))
    if bits.size != buf.octets * 8:
        raise DomainError(f"bit blocks {(bits.size // 8, 8)} do not match data blocks "
                          f"{y_unit.shape}")
    u = buf.rows(buf.spare)  # the squares are spent
    np.multiply(bits, -2.0, out=u.reshape(-1))
    u += 1.0
    u /= _ROOT8
    return rotation_coefficients(y_unit, u, out=buf.transposed(buf.alpha)), u


def mu_of_snr(snr: float) -> float:
    """Mean alignment mu = E[cos theta] between rotated blocks at a given snr.

    Closed form for d = 8: mu = rho (Gamma(9/2)/Gamma(4))^2/4 times
    2F1(1/2, 1/2; 5; rho^2), the series summed until a term no longer
    changes the total.
    """
    if not 0.0 < snr < math.inf:
        raise DomainError(f"snr must be > 0 and finite, got {snr}")
    z = snr / (1.0 + snr)
    total, term, n = 0.0, 1.0, 0
    while total + term != total:
        total += term
        term *= (n + 0.5) ** 2 / ((n + 5.0) * (n + 1.0)) * z
        n += 1
    return _MU_SLOPE * math.sqrt(z) * total


def llr_scale(mu: float) -> float:
    """LLR per unit v for the Gaussian N(mu*u_i, (1-mu^2)/8) model."""
    if not (0.0 < mu < 1.0):
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    return 2.0 * (mu / _ROOT8) / ((1.0 - mu * mu) / 8.0)


def snr_estimate(x, y) -> float:
    """Batch snr from the empirical correlation, rho^2/(1 - rho^2)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise DomainError("need two equal-length batches of at least 2 samples")
    # einsum, not a BLAS dot: the sums do not depend on the BLAS thread count
    sxx = float(np.einsum("i,i->", x, x))
    syy = float(np.einsum("i,i->", y, y))
    if sxx <= 0.0 or syy <= 0.0:
        raise DomainError("zero-energy batch; snr undefined")
    rho2 = float(np.einsum("i,i->", x, y)) ** 2 / (sxx * syy)
    if rho2 >= 1.0 - 1e-12:
        raise DomainError("correlation saturated; snr estimate diverges")
    return rho2 / (1.0 - rho2)


def block_llr(x_blocks, alpha, snr_est: float, buffers: OctetBuffers | None = None,
              out=None) -> np.ndarray:
    """Alice's LLRs for one block: rotate, then scale by the channel model.

    The LLRs are written to out, flat, whose dtype they are rounded to
    (bench passes float32), or returned as new float64.  The work runs in
    buffers, or in new ones; alpha may be a view of the same buffers.
    """
    blocks = np.asarray(x_blocks, dtype=float)
    buf = _buffers(blocks, "query", buffers)
    x_unit = _unit_blocks(blocks, "query", buf, buf.transposed(buf.unit))
    if alpha is None or np.asarray(alpha).shape != x_unit.shape:
        raise DomainError("rotation coefficients must match block shape")
    v = apply_rotation(alpha, x_unit, out=buf.transposed(buf.spare))
    mu = mu_of_snr(float(snr_est))
    if out is None:
        out = np.empty(v.size)
    np.multiply(llr_scale(mu), v, out=out.reshape(v.shape), casting="same_kind")
    return out


def decode(x_blocks, alpha, syndrome, code: LdpcCode, snr_est: float,
           max_iter: int = 200):
    """Alice's decoding pass: rotate, model LLRs, run syndrome decoding.

    Returns (bits, iterations) with bits None on failure.
    """
    return decode_syndrome(code, block_llr(x_blocks, alpha, snr_est), syndrome,
                           max_iter=max_iter)
