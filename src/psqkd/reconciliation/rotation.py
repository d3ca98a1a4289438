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
permutation of w's entries, so no (..., 8, 8) frame is ever formed.
"""

from __future__ import annotations

import numpy as np


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


def _image(w, i):
    """A_i w over the last axis, C-contiguous: take keeps that layout, where
    indexing by _PERM[i] would transpose it."""
    return w.take(_PERM[i], axis=-1) * _SIGN[i]


def rotation_coefficients(src_unit, dst_unit) -> np.ndarray:
    """Coefficients alpha_i = <dst, A_i src> of the rotation src -> dst.

    Both inputs must already be unit vectors (last axis length 8); for unit
    src the frame is orthonormal, so sum_i alpha_i A_i maps src to dst
    exactly and is orthogonal.
    """
    src = np.asarray(src_unit, dtype=float)
    dst = np.asarray(dst_unit, dtype=float)
    shape = np.broadcast_shapes(src.shape, dst.shape)
    src = np.broadcast_to(src, shape).reshape(-1, 8)
    dst = np.broadcast_to(dst, shape).reshape(-1, 8)
    alpha = np.empty(src.shape)
    for i in range(8):
        # over C-contiguous (n, 8) operands einsum sums in the order of the
        # whole-frame product, so alpha is that product's bit for bit
        alpha[:, i] = np.einsum("nk,nk->n", _image(src, i), dst)
    return alpha.reshape(shape)


def apply_rotation(alpha, w) -> np.ndarray:
    """Apply M = sum_i alpha_i A_i to w, vectorized over leading axes."""
    alpha = np.asarray(alpha, dtype=float)
    w = np.asarray(w, dtype=float)
    out = alpha[..., 0:1] * _image(w, 0)
    for i in range(1, 8):
        out += alpha[..., i:i + 1] * _image(w, i)
    return out
