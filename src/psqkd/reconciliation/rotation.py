"""Octonion-frame rotations for eight-dimensional reconciliation.

The eight left-multiplication matrices of the octonion basis are orthogonal
sign-permutations, and for any unit vector w the images A_1 w .. A_8 w form
an orthonormal frame (octonion multiplication is norm-composing).  A
rotation carrying unit x to unit y is therefore M = sum_i <y, A_i x> A_i:
expanding y in the frame of x makes M x = y exact, and the coefficients
have unit norm, which makes M orthogonal.

The basis is generated at import by Cayley-Dickson doubling from the reals,
as the rule the doubling keeps: e_i e_j = s[i, j] e_(i xor j).  Each
doubling takes the sign table s to [[s, s^T], [s c, -s^T c]], where c_j is
the sign of conj(e_j) (+1 for j = 0, -1 otherwise) and scales column j.
A_1 is the identity.  Each A_i w is applied as what it is, a signed
permutation of w's entries: apply_rotation gathers whole rows of w's
transpose, and rotation_coefficients forms the frame of at most _SLAB
octets at a time.  Both give the whole-frame einsum's bits.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def _sign_table() -> np.ndarray:
    """s[i, j] of e_i e_j = s[i, j] e_(i xor j), doubled three times from [[1]]."""
    s = np.ones((1, 1))
    for _ in range(3):
        c = np.where(np.arange(len(s)) == 0, 1.0, -1.0)  # signs of conj(e_j)
        s = np.block([[s, s.T], [s * c, -s.T * c]])
    return s


# (A_i w)_k = _SIGN[i, k] * w[_PERM[i, k]]: the one nonzero of each row,
# at the j with i xor j = k
_PERM = np.arange(8)[:, None] ^ np.arange(8)
_SIGN = np.take_along_axis(_sign_table(), _PERM, axis=1)

# BASIS[i] is the matrix of left multiplication by e_i; BASIS[0] = identity.
OCTONION_BASIS = np.zeros((8, 8, 8))
np.put_along_axis(OCTONION_BASIS, _PERM[..., None], _SIGN[..., None], axis=2)
OCTONION_BASIS.flags.writeable = False


# octets per slab of rotation_coefficients' images: 64 doubles each, so a
# slab's images take 128 KB and stay in cache
_SLAB = 256


def rotation_coefficients(src_unit, dst_unit, out=None) -> np.ndarray:
    """Coefficients alpha_i = <dst, A_i src> of the rotation src -> dst.

    Both inputs must already be unit vectors (last axis length 8); for unit
    src the frame is orthonormal, so sum_i alpha_i A_i maps src to dst
    exactly and is orthogonal.  The octets go in slabs of _SLAB: one take
    fetches a slab's eight images A_i src, their signs flip in place, and
    one einsum reduces them against dst.  That is the whole-frame product's
    einsum over the same (octets, 8, 8) layout, so alpha is its bit for
    bit.  out, if given, receives alpha in any memory layout, e.g. the
    transpose of an (8, octets) buffer, which apply_rotation reads in place.
    """
    src = np.asarray(src_unit, dtype=float)
    dst = np.asarray(dst_unit, dtype=float)
    shape = np.broadcast_shapes(src.shape, dst.shape)
    src = np.broadcast_to(src, shape).reshape(-1, 8)
    dst = np.broadcast_to(dst, shape).reshape(-1, 8)
    alpha = np.empty(shape) if out is None else out
    if alpha.shape != shape:
        raise DomainError(f"out has shape {alpha.shape}, the coefficients {shape}")
    flat = alpha.reshape(-1, 8)
    if not np.may_share_memory(flat, alpha):
        raise DomainError("out must reshape to (octets, 8) without a copy")
    images = np.empty((min(len(src), _SLAB), 8, 8))
    for lo in range(0, len(src), _SLAB):
        hi = min(lo + _SLAB, len(src))
        # the indices are in range, so "wrap" wraps none; the default mode
        # would write through a temporary
        src[lo:hi].take(_PERM, axis=1, out=images[:hi - lo], mode="wrap")
        images[:hi - lo] *= _SIGN
        np.einsum("nik,nk->ni", images[:hi - lo], dst[lo:hi], out=flat[lo:hi])
    return alpha


def apply_rotation(alpha, w, out=None) -> np.ndarray:
    """Apply M = sum_i alpha_i A_i to w, vectorized over leading axes.

    The work runs on transposes, (8, octets) rows, where each image A_i w
    is eight whole rows: (M w)_k = sum_i _SIGN[i, k] alpha_i w_(_PERM[i, k]),
    one product and one add or subtract per row, summed over i in the
    order of the whole-frame product, bit for bit.  alpha and w are read
    in place where their transposes are C-contiguous (views of (8, octets)
    buffers) and copied otherwise.  out, if given, must be such a view; the
    result is returned in it, or else as the transpose of a new buffer.
    """
    alpha = np.asarray(alpha, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(alpha.shape, w.shape)
    at = np.ascontiguousarray(np.broadcast_to(alpha, shape).reshape(-1, 8).T)
    wt = np.ascontiguousarray(np.broadcast_to(w, shape).reshape(-1, 8).T)
    if out is None:
        ot = np.empty(wt.shape)
    elif out.shape != shape:
        raise DomainError(f"out has shape {out.shape}, the rotated block {shape}")
    else:
        ot = out.reshape(-1, 8).T
        if not (ot.flags.c_contiguous and np.may_share_memory(ot, out)):
            raise DomainError("out must be the transpose of an (8, octets) buffer")
    row = np.empty(wt.shape[1])
    np.multiply(at[0], wt, out=ot)  # A_1 is the identity
    for i in range(1, 8):
        for k in range(8):
            np.multiply(at[i], wt[_PERM[i, k]], out=row)
            (np.add if _SIGN[i, k] > 0 else np.subtract)(ot[k], row, out=ot[k])
    return ot.T.reshape(shape) if out is None else out
