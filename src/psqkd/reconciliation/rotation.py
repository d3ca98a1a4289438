"""Octonion-frame rotations for eight-dimensional reconciliation.

The eight left-multiplication matrices of the octonion basis are orthogonal
sign-permutations, and for any unit vector w the images A_1 w .. A_8 w form
an orthonormal frame (octonion multiplication is norm-composing).  A
rotation carrying unit x to unit y is therefore M = sum_i <y, A_i x> A_i:
expanding y in the frame of x makes M x = y exact, and the coefficients
have unit norm, which makes M orthogonal.

The basis is generated at import by Cayley-Dickson doubling from the reals;
A_1 is the identity.
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


def frame(w) -> np.ndarray:
    """Images A_i w of the basis matrices, shape (..., 8, 8), [..., i, :]."""
    w = np.asarray(w, dtype=float)
    return np.einsum("ikj,...j->...ik", OCTONION_BASIS, w)


def rotation_coefficients(src_unit, dst_unit) -> np.ndarray:
    """Coefficients alpha_i = <dst, A_i src> of the rotation src -> dst.

    Both inputs must already be unit vectors (last axis length 8); for unit
    src the frame is orthonormal, so sum_i alpha_i A_i maps src to dst
    exactly and is orthogonal.
    """
    return np.einsum("...ik,...k->...i", frame(src_unit), np.asarray(dst_unit, dtype=float))


def apply_rotation(alpha, w) -> np.ndarray:
    """Apply M = sum_i alpha_i A_i to w, vectorized over leading axes."""
    return np.einsum("...i,...ik->...k", np.asarray(alpha, dtype=float), frame(w))

