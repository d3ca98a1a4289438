"""Octonion-frame rotations for eight-dimensional reconciliation.

The eight left-multiplication matrices of the octonion basis are orthogonal
sign-permutations, and for any unit vector w the images A_1 w .. A_8 w form
an orthonormal frame (octonion multiplication is norm-composing).  A
rotation carrying unit x to unit y is therefore M = sum_i <y, A_i x> A_i:
expanding y in the frame of x makes M x = y exact, and the coefficients
have unit norm, which makes M orthogonal.

The basis is generated at import by Cayley-Dickson doubling from the reals;
A_1 is the identity.  Each A_i w is applied as what it is, a signed
permutation of w's entries, so no (..., 8, 8) frame is ever formed.
"""

from __future__ import annotations

import numpy as np


def _doubled(table):
    """One Cayley-Dickson doubling of a basis multiplication table.

    table[i][j] = (sign, k) meaning e_i e_j = sign * e_k.  Conjugation
    negates every basis element except e_0, and products of pairs follow
    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)).
    """
    nn = len(table)

    def conj_sign(k):
        return 1 if k == 0 else -1

    out = [[None] * (2 * nn) for _ in range(2 * nn)]
    for i in range(2 * nn):
        ib, i0 = divmod(i, nn)
        for j in range(2 * nn):
            jb, j0 = divmod(j, nn)
            if ib == 0 and jb == 0:
                s, k = table[i0][j0]
                out[i][j] = (s, k)
            elif ib == 0 and jb == 1:
                s, k = table[j0][i0]
                out[i][j] = (s, k + nn)
            elif ib == 1 and jb == 0:
                s, k = table[i0][j0]
                out[i][j] = (s * conj_sign(j0), k + nn)
            else:
                s, k = table[j0][i0]
                out[i][j] = (-s * conj_sign(j0), k)
    return out


def _octonion_basis() -> np.ndarray:
    table = [[(1, 0)]]
    for _ in range(3):
        table = _doubled(table)
    basis = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            s, k = table[i][j]
            basis[i, k, j] = float(s)
    basis.flags.writeable = False
    return basis


# BASIS[i] is the matrix of left multiplication by e_i; BASIS[0] = identity.
OCTONION_BASIS = _octonion_basis()


# (A_i w)_k = _SIGN[i, k] * w[_PERM[i, k]]: the one nonzero of each row
_PERM = np.abs(OCTONION_BASIS).argmax(axis=2)
_SIGN = np.take_along_axis(OCTONION_BASIS, _PERM[..., None], axis=2)[..., 0]


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
