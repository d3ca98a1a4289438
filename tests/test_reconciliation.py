"""Reconciliation tests: rotation algebra, code construction, decoding,
and the bench harness at desk scale."""

import hashlib
import heapq
import importlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psqkd import _pool
from psqkd.analysis import beta_from_rate_snr
from psqkd.cli import PEG_PROFILE
from psqkd.errors import DegenerateBlockError, DomainError
from psqkd.montecarlo import collect_accepted_pairs, run_experiment
from psqkd.reconciliation import (
    OCTONION_BASIS,
    accepted_pairs,
    apply_rotation,
    bench,
    decode,
    decode_syndrome,
    encode_side_info,
    gaussian_pairs,
    llr_scale,
    load_alist,
    matched_channel,
    mu_of_snr,
    non_gaussian_label,
    peg_construct,
    rotation_coefficients,
    save_alist,
    snr_estimate,
)
from psqkd.reconciliation import rotation
from psqkd.reconciliation.bp import Workspace
from psqkd.reconciliation.ldpc import LdpcCode, SlotLayout, _degree_sequence, fold_columns
from psqkd.reconciliation.multidim import OctetBuffers
from psqkd.records import ExperimentRecords
from psqkd.subtraction import SourceSpec, covariance_subtracted

PROFILE = {2: 0.2, 3: 0.7, 6: 0.1}
# the module; psqkd.reconciliation.bench is the function it exports
bench_module = importlib.import_module("psqkd.reconciliation.bench")


@pytest.fixture(scope="module")
def code512():
    return peg_construct(512, 461, PROFILE, seed=11)


@pytest.fixture(scope="module")
def code2048():
    return peg_construct(2048, 1843, PROFILE, seed=42)


def adjacency_code(n, m, var_lists):
    """A code from each variable's list of checks, built as load_alist builds."""
    degs = np.array([len(chks) for chks in var_lists], dtype=np.int64)
    var_chks = np.concatenate([np.asarray(chks, dtype=np.int64) for chks in var_lists])
    return LdpcCode._from_var_major(n, m, degs, var_chks)


def frame(w) -> np.ndarray:
    """Images A_i w of the basis matrices, shape (..., 8, 8), [..., i, :]:
    the whole frame, which the rotations must reproduce bit for bit."""
    w = np.asarray(w, dtype=float)
    return np.einsum("ikj,...j->...ik", OCTONION_BASIS, w)


def reference_octonion_basis():
    """The basis, _PERM and _SIGN as Cayley-Dickson doubling of a nested
    (sign, index) table built them, verbatim."""
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

    table = [[(1, 0)]]
    for _ in range(3):
        table = _doubled(table)
    basis = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            s, k = table[i][j]
            basis[i, k, j] = float(s)
    perm = np.abs(basis).argmax(axis=2)
    sign = np.take_along_axis(basis, perm[..., None], axis=2)[..., 0]
    return basis, perm, sign


class TestRotationBasis:
    def test_basis_equals_the_doubled_table(self):
        for got, want in zip((OCTONION_BASIS, rotation._PERM, rotation._SIGN),
                             reference_octonion_basis()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert not OCTONION_BASIS.flags.writeable

    def test_sign_permutation_structure(self):
        assert OCTONION_BASIS.shape == (8, 8, 8)
        assert np.array_equal(OCTONION_BASIS[0], np.eye(8))
        for i in range(8):
            a = OCTONION_BASIS[i]
            assert set(np.unique(a)) <= {-1.0, 0.0, 1.0}
            assert (np.abs(a).sum(axis=0) == 1.0).all()
            assert (np.abs(a).sum(axis=1) == 1.0).all()
            assert np.abs(a.T @ a - np.eye(8)).max() < 1e-12

    def test_frames_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.standard_normal(8)
            u /= np.linalg.norm(u)
            f = frame(u)
            assert np.abs(f @ f.T - np.eye(8)).max() < 1e-12

    # 512 and 8192 blocks are the protocol and reconcile benches' block counts
    @pytest.mark.parametrize("shape", [(8,), (1, 8), (512, 8), (8192, 8)])
    def test_rotation_matches_frame_products(self, shape):
        rng = np.random.default_rng(40)
        x, y, w = (rng.standard_normal(shape) for _ in range(3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
        alpha = rotation_coefficients(x, y)
        assert np.array_equal(alpha, np.einsum("...ik,...k->...i", frame(x), y))
        assert np.array_equal(apply_rotation(alpha, w),
                              np.einsum("...i,...ik->...k", alpha, frame(w)))


@st.composite
def octet_batches(draw):
    """Unit x and y and a free w, (count, 8) each: one octet, or a count at
    a slab edge of rotation_coefficients; w's entries scaled from subnormal
    to huge, some of them zero."""
    count = draw(st.sampled_from([1, rotation._SLAB - 1, rotation._SLAB,
                                  rotation._SLAB + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y, w = (rng.standard_normal((count, 8)) for _ in range(3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    w *= 10.0 ** draw(st.integers(-320, 300))
    w[rng.random(w.shape) < draw(st.sampled_from([0.0, 0.25]))] = 0.0
    return x, y, w


def transposed(a):
    """a's values as the transpose of a C-contiguous (8, count) buffer, the
    layout bench prepares blocks in."""
    return np.ascontiguousarray(a.T).T


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(octet_batches())
def test_rotations_are_the_frame_products_bit_for_bit(batch):
    x, y, w = batch
    want = np.einsum("...ik,...k->...i", frame(x), y)
    alpha = rotation_coefficients(x, y)
    assert np.array_equal(alpha, want)
    alpha_t = transposed(np.empty_like(x))
    assert rotation_coefficients(x, y, out=alpha_t) is alpha_t
    assert np.array_equal(alpha_t, want)
    # one x rotated toward every y, broadcast
    assert np.array_equal(rotation_coefficients(x[0], y),
                          np.einsum("...ik,...k->...i", frame(x[0]), y))

    want = np.einsum("...i,...ik->...k", alpha, frame(w))
    assert np.array_equal(apply_rotation(alpha, w), want)
    out = transposed(np.empty_like(w))
    assert apply_rotation(alpha_t, transposed(w), out=out) is out
    assert np.array_equal(out, want)
    # one rotation applied to every octet: alpha (8,) against w (count, 8)
    assert np.array_equal(apply_rotation(alpha[0], w),
                          np.einsum("i,...ik->...k", alpha[0], frame(w)))
    # M x = y
    assert np.abs(apply_rotation(alpha, x) - y).max() < 1e-12


def test_out_layouts_and_buffer_sizes_are_checked():
    # apply_rotation writes only into the transpose of an (8, octets)
    # buffer, rotation_coefficients only into an out of the result's shape,
    # and prepared blocks must fit their OctetBuffers
    rng = np.random.default_rng(41)
    x, y = (rng.standard_normal((4, 8)) for _ in range(2))
    with pytest.raises(DomainError):
        apply_rotation(x, y, out=np.empty((4, 8)))
    with pytest.raises(DomainError):
        rotation_coefficients(x, y, out=np.empty((3, 8)))
    buffers = OctetBuffers(24)
    with pytest.raises(DomainError):
        encode_side_info(x, np.zeros(32, dtype=np.uint8), buffers)
    with pytest.raises(DomainError):
        OctetBuffers(12)


def unit_coefficients(x, y):
    """Coefficients of the rotation carrying x/|x| to y/|y|."""
    return rotation_coefficients(x / np.linalg.norm(x), y / np.linalg.norm(y))


def matrix_of(alpha):
    """The rotation matrix sum_i alpha_i A_i of one coefficient vector."""
    return np.einsum("i,ikj->kj", alpha, OCTONION_BASIS)


class TestRotationMap:
    """Single rotation instances and their matrices over OCTONION_BASIS."""

    def test_identity_instance(self):
        e1 = np.eye(8)[0]
        alpha = unit_coefficients(e1, e1)
        assert np.abs(apply_rotation(alpha, e1) - e1).max() < 1e-12
        assert np.abs(matrix_of(alpha) - np.eye(8)).max() < 1e-12

    def test_axis_to_axis(self):
        e = np.eye(8)
        alpha = unit_coefficients(e[0], e[1])
        assert np.abs(apply_rotation(alpha, e[0]) - e[1]).max() < 1e-12
        mt = matrix_of(alpha)
        assert np.abs(mt.T @ mt - np.eye(8)).max() < 1e-10

    def test_random_recovery(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            alpha = unit_coefficients(x, y)
            xu = x / np.linalg.norm(x)
            got = apply_rotation(alpha, xu)
            assert np.abs(got - y / np.linalg.norm(y)).max() < 1e-10
            mt = matrix_of(alpha)
            assert np.abs(mt @ xu - got).max() < 1e-12
            assert np.abs(mt.T @ mt - np.eye(8)).max() < 1e-10

    def test_bulk_instances(self):
        # vectorized form of the same contract, many instances at once
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10_000, 8))
        y = rng.standard_normal((10_000, 8))
        xu = x / np.linalg.norm(x, axis=1, keepdims=True)
        yu = y / np.linalg.norm(y, axis=1, keepdims=True)
        alpha = rotation_coefficients(xu, yu)
        assert np.abs(apply_rotation(alpha, xu) - yu).max() < 1e-10
        assert np.abs((alpha**2).sum(axis=1) - 1.0).max() < 1e-10

    def test_norm_preservation(self):
        rng = np.random.default_rng(4)
        alpha = unit_coefficients(rng.standard_normal(8), rng.standard_normal(8))
        for _ in range(20):
            w = rng.standard_normal(8) * rng.uniform(0.1, 5.0)
            assert abs(np.linalg.norm(apply_rotation(alpha, w)) - np.linalg.norm(w)) < 1e-10

    def test_degenerate_raises(self, code512):
        # a block at or below the norm floor has no direction to rotate:
        # both sides raise, and the bench skips and counts the block
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((code512.n // 8, 8))
        bits = rng.integers(0, 2, code512.n).astype(np.uint8)
        alpha, _ = encode_side_info(blocks, bits)
        for tiny in (0.0, 1e-14):
            bad = blocks.copy()
            bad[3] = tiny
            with pytest.raises(DegenerateBlockError):
                encode_side_info(bad, bits)
            with pytest.raises(DegenerateBlockError):
                decode(bad, alpha, code512.syndrome(bits), code512, snr_est=1.0)


class TestSphereMapping:
    def test_unit_norm_blocks(self):
        # u_i = (1 - 2 b_i)/sqrt(8), eight bits per block
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 800)
        _, u = encode_side_info(rng.standard_normal((100, 8)), bits)
        assert u.shape == (100, 8)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(u.ravel(), (1.0 - 2.0 * bits) / math.sqrt(8))

    def test_bit_count_validation(self):
        with pytest.raises(DomainError):
            encode_side_info(np.ones((2, 8)), np.zeros(12, dtype=int))

    def test_loopback_alignment(self):
        # zero noise: Alice's rotated block equals u, every sign correct
        rng = np.random.default_rng(6)
        y = rng.standard_normal((200, 8))
        bits = rng.integers(0, 2, 1600)
        alpha, u = encode_side_info(y, bits)
        v = apply_rotation(alpha, y / np.linalg.norm(y, axis=1, keepdims=True))
        assert np.abs(v - u).max() < 1e-10
        assert (v * u > 0).all()


class TestChannelModel:
    def test_mu_monotone_and_limits(self):
        mus = [mu_of_snr(s) for s in (0.02, 0.16, 0.5, 2.0, 50.0)]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert 0.0 < mus[0] < 1.0
        assert mu_of_snr(1e6) > 0.9999
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                mu_of_snr(bad)

    @pytest.mark.parametrize("snr, dense", [
        (0.1626, 0.35389963404),
        (1.0554, 0.69253508634),
        (20.0, 0.97212334035),
    ])
    def test_mu_matches_dense_quadrature(self, snr, dense):
        # dense: the triple Gauss-Laguerre/Hermite rule over (chi_8 norm,
        # aligned noise, chi-square_7 residual) that mu_of_snr used before
        # its closed form, mu_of_snr(snr, 160, 200, 160), which converges to
        # the closed form to within 4e-10 relative
        assert mu_of_snr(snr) == pytest.approx(dense, rel=1e-9, abs=0.0)

    def test_mu_small_snr_slope(self):
        # mu/rho -> (2/d) (Gamma((d+1)/2)/Gamma(d/2))^2 at d = 8
        slope = 0.25 * (math.gamma(4.5) / math.gamma(4.0)) ** 2
        for snr in (1e-6, 1e-10):
            rho = math.sqrt(snr / (1.0 + snr))
            assert mu_of_snr(snr) / rho == pytest.approx(slope, rel=2 * snr)

    @pytest.mark.parametrize("k", [None, 1], ids=["gaussian", "k1"])
    def test_calibration_both_moments(self, k):
        # the gate for using the Gaussian LLR model at all: empirical
        # conditional mean and variance of v_i within 2% of the model, on
        # Gaussian pairs and on accepted k-click pairs at the same snr (k = 2
        # data sits at +1.9 % on the band's edge, so no seed gates it; see
        # ROADMAP item 1)
        snr = 0.16
        rng = np.random.default_rng(0)
        nb = 100_000
        if k is None:
            rho = math.sqrt(snr / (1.0 + snr))
            y = rng.standard_normal((nb, 8))
            x = rho * y + math.sqrt(1.0 - rho * rho) * rng.standard_normal((nb, 8))
        else:
            src = SourceSpec.k_photon(20.0, 0.8, k)
            x, y = collect_accepted_pairs(src, matched_channel(src, snr, 0.01), nb * 8, seed=0)
            x, y = x.reshape(nb, 8), y.reshape(nb, 8)
        bits = rng.integers(0, 2, nb * 8)
        alpha, u = encode_side_info(y, bits)
        v = apply_rotation(alpha, x / np.linalg.norm(x, axis=1, keepdims=True))
        mu = mu_of_snr(snr)
        plus = u > 0
        emp_mean = v[plus].mean()
        emp_var = v[plus].var()
        assert abs(emp_mean - mu / math.sqrt(8)) / (mu / math.sqrt(8)) < 0.02
        assert abs(emp_var - (1 - mu * mu) / 8) / ((1 - mu * mu) / 8) < 0.02

    def test_snr_estimate_accuracy(self):
        x, y = gaussian_pairs(0.25, 10**6, seed=3)
        assert snr_estimate(x, y) == pytest.approx(0.25, rel=0.02)

    def test_snr_estimate_validation(self):
        with pytest.raises(DomainError):
            snr_estimate(np.ones(5), np.ones(5))  # saturated correlation
        with pytest.raises(DomainError):
            snr_estimate(np.zeros(5), np.ones(5))  # zero energy
        with pytest.raises(DomainError):
            snr_estimate(np.ones(3), np.ones(4))

    def test_llr_scale(self):
        assert llr_scale(0.5) > 0.0
        with pytest.raises(DomainError):
            llr_scale(1.0)
        with pytest.raises(DomainError):
            llr_scale(0.0)


class TestLdpcGraph:
    def test_profile_and_rate(self, code2048):
        assert code2048.n == 2048
        assert code2048.m == 1843
        assert code2048.rate == pytest.approx(0.1, abs=5e-4)
        vd = code2048.var_degrees
        assert vd.min() >= 2
        counts = {int(d): int((vd == d).sum()) for d in np.unique(vd)}
        assert counts == {2: 410, 3: 1433, 6: 205}

    def test_no_four_cycles(self, code2048):
        # no two variables share two checks: every variable's check pairs,
        # packed as c1*m + c2 with c1 < c2, are distinct across the code
        code = code2048
        chks = code.edge_chk[np.lexsort((code.edge_chk, code.edge_var))]
        deg = np.bincount(code.edge_var, minlength=code.n)
        start = np.cumsum(deg) - deg
        packed = np.concatenate([
            chks[start[deg > j] + i] * code.m + chks[start[deg > j] + j]
            for j in range(int(deg.max())) for i in range(j)])
        assert np.unique(packed).size == packed.size

    def test_deterministic_construction(self):
        a = peg_construct(512, 461, PROFILE, seed=11)
        b = peg_construct(512, 461, PROFILE, seed=11)
        c = peg_construct(512, 461, PROFILE, seed=12)
        assert np.array_equal(a.edge_chk, b.edge_chk)
        assert np.array_equal(a.edge_var, b.edge_var)
        assert not np.array_equal(a.edge_chk, c.edge_chk)

    def test_balanced_check_degrees(self, code2048):
        cd = code2048.check_degrees
        assert int(cd.max()) - int(cd.min()) <= 2

    def test_syndrome_matches_dense(self, code512):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, code512.n).astype(np.uint8)
        dense = np.zeros((code512.m, code512.n), dtype=np.int64)
        dense[code512.edge_chk, code512.edge_var] = 1
        assert np.array_equal(code512.syndrome(bits), (dense @ bits) % 2)

    def test_adjacency_validation(self):
        # the graph checks themselves (degree, duplicate edge, check range)
        # are pinned by TestAlist::test_malformed_raises
        with pytest.raises(DomainError):
            peg_construct(100, 90, {1: 1.0}, seed=0)
        with pytest.raises(DomainError):
            peg_construct(100, 90, {2: 0.5}, seed=0)

    @pytest.mark.parametrize("var_lists", [
        [[0, 1, 0], [0, 1], [0, 1]],   # twins apart, on the first sorted edge
        [[0, 1], [0, 1], [1, 0, 1]],   # twins apart, on the last sorted edge
    ])
    def test_duplicate_edge_is_a_domain_error(self, var_lists):
        with pytest.raises(DomainError, match="duplicate edge"):
            adjacency_code(3, 2, var_lists)

    @pytest.mark.parametrize("m", [0, -1, 10])
    def test_check_count_outside_one_to_n_is_a_domain_error(self, m):
        # m = 0 once divided by zero in the check-row width before any check
        with pytest.raises(DomainError, match="1 <= m < n"):
            peg_construct(10, m, {2: 1.0}, seed=1)


# 3 variables on both of 2 checks: padded and unpadded bodies coincide
SMALL_ALIST = "3 2\n2 2\n2 2 2\n3 3\n1 2\n1 2\n1 2\n1 2 3\n1 2 3\n"
# 4 variables, 3 checks, the last check of degree 2, in both forms
FOUR_UNPADDED = "4 3\n2 3\n2 2 2 2\n3 3 2\n1 2\n1 2\n1 3\n2 3\n1 2 3\n1 2 4\n3 4\n"
FOUR_PADDED = FOUR_UNPADDED[:-1] + " 0\n"


class TestAlist:
    def test_round_trip(self, code512, tmp_path):
        for name in ("code.alist", "code.alist.gz"):
            path = str(tmp_path / name)
            save_alist(code512, path)
            back = load_alist(path)
            assert back.n == code512.n and back.m == code512.m
            assert np.array_equal(back.edge_var, code512.edge_var)
            assert np.array_equal(back.edge_chk, code512.edge_chk)

    def test_unpadded_variant(self, tmp_path):
        # 3 variables, 2 checks, no padding zeros
        path = tmp_path / "small.alist"
        path.write_text(SMALL_ALIST)
        code = load_alist(str(path))
        assert code.n == 3 and code.m == 2 and code.n_edges == 6

    def test_save_writes_the_padded_form(self, tmp_path):
        path = tmp_path / "small.alist"
        save_alist(adjacency_code(3, 2, [[0, 1]] * 3), str(path))
        # the declared max degrees are written as the lists give them
        assert path.read_text() == SMALL_ALIST.replace("2 2\n2 2 2", "2 3\n2 2 2")

    def test_unpadded_save_load_round_trip(self, tmp_path):
        src, out = tmp_path / "unpadded.alist", tmp_path / "padded.alist"
        src.write_text(FOUR_UNPADDED)
        code = load_alist(str(src))
        save_alist(code, str(out))
        assert out.read_text() == FOUR_PADDED
        back = load_alist(str(out))
        assert (back.n, back.m) == (4, 3)
        for name in ("edge_var", "edge_chk", "check_ptr"):
            assert np.array_equal(getattr(back, name), getattr(code, name))
        assert back.edge_var.tolist() == [0, 1, 2, 0, 1, 3, 2, 3]

    @pytest.mark.parametrize("text, match", [
        pytest.param("0 2\n2 2\n2 2\n", "bad alist header n=0 m=2", id="header-n"),
        pytest.param("3 0\n2 2\n2 2 2\n", "bad alist header n=3 m=0", id="header-m"),
        pytest.param("2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n1 2\n1 2\n",
                     "need 1 <= m < n, got n=2 m=2", id="m-not-below-n"),
        pytest.param("3", "truncated alist file", id="truncated-header"),
        pytest.param("3 2\n2 2\n2 2 2\n3\n", "truncated alist file",
                     id="truncated-degree-lists"),
        pytest.param("3 2\n2 2\n2 2 2\n3 3\n1 2\n1 2\n",
                     "alist body has 4 entries; expected 12 padded or 12 unpadded",
                     id="body-too-short"),
        pytest.param(SMALL_ALIST + "1\n", "alist body has 13 entries", id="body-too-long"),
        pytest.param("3 2\n2 2\n2 2 2\n3 2\n1 2\n1 2\n1 2\n1 2 3\n1 2\n",
                     "alist degree lists disagree on edge count", id="degree-lists-disagree"),
        pytest.param(FOUR_PADDED.replace("\n1 2\n1 3", "\n1 0\n1 3"),
                     "alist row does not match its declared degree", id="padded-row-off"),
        pytest.param(FOUR_PADDED.replace("3 4 0", "3 0 0"),
                     "alist row does not match its declared degree", id="padded-check-row-off"),
        pytest.param(FOUR_UNPADDED.replace("\n1 2\n1 3", "\n1 0\n1 3"),
                     "alist row does not match its declared degree", id="unpadded-row-off"),
        pytest.param("4 3\n2 6\n2 2 2 2\n3 6 -1\n1 2\n1 2\n1 3\n2 3\n1 2 3\n1 2 4 3 4\n",
                     "alist row does not match its declared degree", id="negative-degree"),
        pytest.param(FOUR_PADDED.replace("1 2 3\n1 2 4", "1 2 4\n1 2 3"),
                     "alist variable and check adjacency disagree", id="adjacency-disagrees"),
        pytest.param(SMALL_ALIST.replace("1 2\n1 2\n1 2\n", "1 2\n1 2\n1 1\n"),
                     "duplicate edge in adjacency", id="duplicate-edge"),
        pytest.param(SMALL_ALIST.replace("1 2\n1 2\n1 2\n", "1 2\n1 2\n1 3\n"),
                     "check index out of range", id="check-out-of-range"),
        pytest.param("3 2\n2 3\n1 2 2\n3 2\n1 0\n1 2\n1 2\n1 2 3\n2 3 0\n",
                     "variable 0 has degree 1; minimum is 2", id="variable-degree-1"),
        pytest.param("4 3\n2 4\n2 2 2 2\n4 4 0\n" + "1 2\n" * 4
                     + "1 2 3 4\n1 2 3 4\n0 0 0 0\n",
                     "every check must have at least one edge", id="check-without-edge"),
    ])
    def test_malformed_raises(self, tmp_path, text, match):
        path = tmp_path / "bad.alist"
        path.write_text(text)
        with pytest.raises(DomainError, match=match):
            load_alist(str(path))


class TestDecoder:
    def test_zero_noise_loopback_hundred_blocks(self, code512):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.standard_normal((code512.n // 8, 8))
            bits = rng.integers(0, 2, code512.n).astype(np.uint8)
            alpha, _ = encode_side_info(y, bits)
            got, iters = decode(y, alpha, code512.syndrome(bits), code512,
                                snr_est=1e6)
            assert got is not None
            assert iters <= 2
            assert np.array_equal(got, bits)

    def test_single_flipped_llr_corrected(self, code2048):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, code2048.n).astype(np.uint8)
        llr = np.where(bits == 1, -8.0, 8.0).astype(np.float32)
        llr[137] = -llr[137]
        got, iters = decode_syndrome(code2048, llr, code2048.syndrome(bits))
        assert got is not None and iters <= 10
        assert np.array_equal(got, bits)

    def test_success_satisfies_syndrome(self, code2048):
        x, y = gaussian_pairs(0.5, code2048.n, seed=10)
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, code2048.n).astype(np.uint8)
        alpha, _ = encode_side_info(y.reshape(-1, 8), bits)
        syn = code2048.syndrome(bits)
        got, _ = decode(x.reshape(-1, 8), alpha, syn, code2048,
                        snr_est=snr_estimate(x, y))
        assert got is not None
        assert np.array_equal(code2048.syndrome(got), syn)
        assert np.array_equal(got, bits)

    def test_far_below_threshold_fails(self, code2048):
        # rate 0.1 at snr 0.05: capacity is under the code rate, so
        # essentially every block must fail
        x, y = gaussian_pairs(0.05, 20 * code2048.n, seed=12)
        rep = bench(x, y, code2048, n_blocks=20, seed=13, snr=0.05)
        assert rep.blocks_total == 20
        assert rep.blocks_success <= 1

    def test_validation(self, code512):
        with pytest.raises(DomainError):
            decode_syndrome(code512, np.zeros(3, dtype=np.float32),
                            np.zeros(code512.m, dtype=np.uint8))
        with pytest.raises(DomainError):
            decode_syndrome(code512, np.zeros(code512.n, dtype=np.float32),
                            np.zeros(3, dtype=np.uint8))
        with pytest.raises(DomainError):
            decode_syndrome(code512, np.zeros(code512.n, dtype=np.float32),
                            np.zeros(code512.m, dtype=np.uint8), max_iter=0)


class TestBench:
    def test_gaussian_self_test(self, code2048):
        # comfortably above the construction's decode threshold
        x, y = gaussian_pairs(0.5, 10 * code2048.n, seed=1)
        rep = bench(x, y, code2048, n_blocks=10, seed=2, snr=0.5)
        assert rep.blocks_success == rep.blocks_total == 10
        assert rep.blocks_skipped == 0
        assert 1.0 < rep.avg_iterations < 200.0
        assert rep.beta == beta_from_rate_snr(code2048.rate, 0.5)

    def test_report_row_schema(self, code2048):
        x, y = gaussian_pairs(0.5, 2 * code2048.n, seed=1)
        rep = bench(x, y, code2048, n_blocks=2, seed=2, snr=0.5)
        row = rep.row()
        assert list(row) == ["R", "SNR", "beta", "Type", "S/T", "AIN"]
        assert row["S/T"] == "2/2"
        assert row["Type"] == "gaussian"

    def test_deterministic(self, code512):
        x, y = gaussian_pairs(0.5, 4 * code512.n, seed=20)
        a = bench(x, y, code512, n_blocks=4, seed=21)
        b = bench(x, y, code512, n_blocks=4, seed=21)
        assert a == b

    def test_insufficient_data_names_count(self, code512):
        x, y = gaussian_pairs(0.5, 100, seed=22)
        with pytest.raises(DomainError, match=str(10 * code512.n)):
            bench(x, y, code512, n_blocks=10, seed=23)

    def test_degenerate_block_skipped(self, code512):
        x, y = gaussian_pairs(0.5, 4 * code512.n, seed=24)
        y = y.copy()
        y[:8] = 0.0
        rep = bench(x, y, code512, n_blocks=4, seed=25, snr=0.5)
        assert rep.blocks_skipped == 1
        assert rep.blocks_total == 3

    def test_postselected_ingestion(self, code512):
        # accepted records from the sampler, at a channel chosen to hit
        # the target snr; the comparison itself is reported, not asserted
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        ch = matched_channel(src, 0.5, 0.01)
        res = run_experiment(src, ch, 40_000, seed=26)
        xa, xb = accepted_pairs(res.records)
        assert xa.size >= 5 * code512.n
        rep = bench(xa, xb, code512, n_blocks=5, seed=27,
                    data_type=non_gaussian_label(src), snr=0.5)
        assert rep.data_type == "non_gaussian(k=1, V=20, T=0.8)"
        assert rep.blocks_total == 5
        assert rep.snr_measured == pytest.approx(0.5, rel=0.1)

    def test_accepted_pairs_share_no_memory_with_records(self):
        rng = np.random.default_rng(28)
        x_a, p_a, x_b = rng.standard_normal((3, 100))
        for accepted in (rng.random(100) < 0.5, np.ones(100, dtype=bool)):
            records = ExperimentRecords(x_a=x_a, p_a=p_a, accepted=accepted, x_b=x_b)
            xa, xb = accepted_pairs(records)
            assert np.array_equal(xa, x_a[accepted])
            assert np.array_equal(xb, x_b[accepted])
            assert not np.shares_memory(xa, records.x_a)
            assert not np.shares_memory(xb, records.x_b)
            xa[:] = 0.0  # the caller's own arrays, writeable

    def test_matched_channel_algebra(self):
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        for snr, eps in ((0.1626, 0.01), (0.5, 0.0), (0.0301, 0.05)):
            ch = matched_channel(src, snr, eps)
            vt = covariance_subtracted(src).v_tilde
            achieved = 2 * src.t * ch.t_c * src.lambda2 * vt / (1 + ch.t_c * ch.epsilon)
            assert achieved == pytest.approx(snr, rel=1e-12)
            assert 0.0 < ch.t_c <= 1.0
        with pytest.raises(DomainError):
            matched_channel(src, 50.0, 0.01)

    @pytest.mark.parametrize("n", [5000, 65536])
    def test_block_bits_are_one_integer_draw(self, n):
        # the chunked uint8 draw takes the words of one int64 draw
        got = bench_module._random_bits(np.random.default_rng(5), n)
        want = np.random.default_rng(5).integers(0, 2, n).astype(np.uint8)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_gaussian_pairs_validation(self):
        with pytest.raises(DomainError):
            gaussian_pairs(0.0, 100, seed=1)
        with pytest.raises(DomainError):
            gaussian_pairs(0.5, 0, seed=1)


def workers(monkeypatch, cpus):
    """cpus usable CPUs, and worker threads for codes of any size."""
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(bench_module, "_PARALLEL_EDGES", 0)


@pytest.fixture(scope="module")
def code32k():
    # ~101 600 edges, above bench's _PARALLEL_EDGES
    return peg_construct(1 << 15, (1 << 15) - round(0.1 * (1 << 15)), PROFILE, seed=11)


class TestBenchWorkers:
    """bench's blocks decoded on one worker and on two."""

    @pytest.mark.parametrize("zero_octet", [None, 2], ids=["decoding", "degenerate-middle"])
    def test_two_workers_give_the_one_worker_report(self, zero_octet, code2048, monkeypatch):
        # five blocks, two rounds of two and one of one; at snr 0.35 one
        # block decodes and four do not.  A zero octet in block 2 skips it,
        # so the skip count and the order of the snr sum are checked too.
        # repr compares every field bit for bit, nan included
        x, y = gaussian_pairs(0.35, 5 * code2048.n, seed=40)
        if zero_octet is not None:
            y = y.copy()
            y[zero_octet * code2048.n:zero_octet * code2048.n + 8] = 0.0
        reports = []
        for cpus in (1, 2):
            workers(monkeypatch, cpus)
            reports.append(bench(x, y, code2048, 5, seed=41, snr=0.35))
        one, two = reports
        assert one.blocks_success == 1
        assert one.blocks_skipped == (zero_octet is not None)
        assert repr(two) == repr(one)

    @pytest.mark.parametrize("name, threads", [("code512", 1), ("code32k", 2)])
    def test_small_codes_decode_on_one_worker(self, name, threads, request, monkeypatch):
        # two workers slow a code of ~1300 edges down; one of ~101 600 edges
        # takes both
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        code, stream, widths = request.getfixturevalue(name), bench_module.ordered, []

        def counted(tasks, run, buffers, window=None):
            widths.append(len(buffers))
            return stream(tasks, run, buffers, window)

        monkeypatch.setattr(bench_module, "ordered", counted)
        x, y = gaussian_pairs(0.5, 2 * code.n, seed=51)
        bench(x, y, code, 2, seed=52, snr=0.5)
        assert set(widths) == {threads}

    def test_two_workers_hold_two_workspaces_and_one_block(self, code32k, monkeypatch):
        # the calling thread allocates one workspace per worker, ~52 bytes
        # per symbol (4.2 edge-sized float32 arrays at ~3.1 edges per
        # symbol), and prepares each round of blocks while no worker
        # decodes.  The rest of the peak, measured at 44-47 bytes per
        # symbol, comes while both workers decode: the preparation's
        # buffers, allocated once, of three octet arrays (24) and the norms
        # (1); each worker's float32 LLRs (8); the round's bits and
        # syndromes (~4); and each decode's casting buffers, ~160 KB (~10
        # at this n).  Preparing in new arrays for every block peaked at
        # ~57, and workers that prepared their own blocks and decoded in
        # arrays allocated on every iteration at ~187, above this bound's 154
        workers(monkeypatch, 2)
        code, n = code32k, code32k.n
        code.slots
        x, y = gaussian_pairs(0.1626, 4 * n, seed=43)
        workspace = sum(a.nbytes for a in vars(Workspace(code)).values()
                        if isinstance(a, np.ndarray))
        bound = 2 * workspace + 50 * n
        edge = 4 * code.n_edges
        tracemalloc.start()
        try:
            bench(x, y, code, 4, seed=44, snr=0.1626)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / edge:.2f} edge arrays, bound {bound / edge:.2f}"

    @pytest.mark.parametrize("failing", ["calling", "other"])
    def test_error_in_either_worker_reaches_the_caller(self, failing, code512, monkeypatch):
        # whichever worker decodes the failing block, bench raises its error
        # once both workers have stopped; the calling thread waits until the
        # other worker holds a block, so each takes one
        workers(monkeypatch, 2)
        real, other_started = bench_module.decode_syndrome, threading.Event()

        def decode_or_fail(*args):
            calling = threading.current_thread() is threading.main_thread()
            if calling:
                assert other_started.wait(10.0)
            else:
                other_started.set()
            if calling == (failing == "calling"):
                raise MemoryError(f"{failing} worker")
            return real(*args)

        monkeypatch.setattr(bench_module, "decode_syndrome", decode_or_fail)
        x, y = gaussian_pairs(0.5, 4 * code512.n, seed=45)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match=f"{failing} worker"):
            bench(x, y, code512, 4, seed=46)
        assert threading.active_count() == threads

    def test_interrupt_stops_the_other_worker(self, code512, monkeypatch):
        # a Ctrl-C in the calling thread reaches the caller, and the other
        # worker decodes at most the block it holds instead of the rest
        workers(monkeypatch, 2)
        real, interrupted, decoded = bench_module.decode_syndrome, threading.Event(), []

        def decode_or_interrupt(*args):
            if threading.current_thread() is threading.main_thread():
                interrupted.set()
                raise KeyboardInterrupt
            assert interrupted.wait(10.0)
            decoded.append(1)
            return real(*args)

        monkeypatch.setattr(bench_module, "decode_syndrome", decode_or_interrupt)
        x, y = gaussian_pairs(0.5, 6 * code512.n, seed=47)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            bench(x, y, code512, 6, seed=48)
        assert threading.active_count() == threads
        assert len(decoded) <= 1

    def test_layout_is_built_once_before_the_workers_start(self, code512, tmp_path,
                                                           monkeypatch):
        # a loaded code has no layout yet, and a cached_property takes no
        # lock on Python 3.12+: bench builds it on the calling thread
        workers(monkeypatch, 2)
        path = str(tmp_path / "code.alist")
        save_alist(code512, path)
        code = load_alist(path)
        built, of = [], SlotLayout.of.__func__

        def counted(cls, code):
            built.append(threading.current_thread() is threading.main_thread())
            return of(cls, code)

        monkeypatch.setattr(SlotLayout, "of", classmethod(counted))
        x, y = gaussian_pairs(0.5, 4 * code.n, seed=49)
        rep = bench(x, y, code, 4, seed=50, snr=0.5)
        assert built == [True]
        assert rep.blocks_total == 4


# ---------------------------------------------------------------------------
# the construction and the decoder against their earlier loop versions, which
# must give the same graph and the same bits

_REACH_CAP = 4096
_DEPTH_CAP = 8
_TANH_FLOOR = 1e-12
_TANH_CEIL = 1.0 - 1e-7
_STALL_WINDOW = 50


def reference_peg_construct(n: int, m: int, profile: dict, seed: int) -> LdpcCode:
    """peg_construct as it was with one NumPy call per step: a bounded
    breadth-first search over visited masks, and one scalar draw per edge."""
    degrees = _degree_sequence(n, profile)
    if int(degrees.sum()) < 2 * m:
        raise DomainError("profile leaves checks with fewer than two edges on average")
    if m >= (1 << 24):
        raise DomainError("check count exceeds the 24-bit heap packing")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    chk_deg = np.zeros(m, dtype=np.int32)
    width = max(4, int(math.ceil(degrees.sum() / m)) + 4)
    chk_vars = np.full((m, width), -1, dtype=np.int32)
    dmax = int(degrees.max())
    var_chks = np.full((n, dmax), -1, dtype=np.int32)
    var_deg = np.zeros(n, dtype=np.int32)

    # heap entries pack (degree << 44) | (tiebreak << 24) | check; an entry
    # is stale once the check's degree moved on, and each degree change
    # pushes a fresh entry, so exactly one live entry exists per check
    tiebreak = rng.integers(0, 1 << 20, size=m, dtype=np.int64)
    heap = [int((t << 24) | c) for c, t in enumerate(tiebreak)]
    heapq.heapify(heap)

    visited_chk = np.zeros(m, dtype=bool)
    visited_var = np.zeros(n, dtype=bool)

    def bfs_reached(v):
        """Checks within the bounded neighborhood of v; also the last level."""
        level = var_chks[v, :var_deg[v]]
        visited_chk[level] = True
        touched_c = [level]
        touched_v = []
        last = level
        reached = level.size
        for _ in range(_DEPTH_CAP):
            if level.size == 0 or reached >= _REACH_CAP:
                break
            vs = chk_vars[level, :].ravel()
            vs = vs[vs >= 0]
            vs = vs[~visited_var[vs]]
            if vs.size == 0:
                break
            visited_var[vs] = True
            touched_v.append(vs)
            cs = var_chks[vs, :].ravel()
            cs = cs[cs >= 0]
            cs = cs[~visited_chk[cs]]
            if cs.size == 0:
                break
            cs = np.unique(cs)
            visited_chk[cs] = True
            touched_c.append(cs)
            last = cs
            reached += cs.size
        return touched_c, touched_v, last

    def grow_width():
        nonlocal chk_vars, width
        extra = np.full((m, width), -1, dtype=np.int32)
        chk_vars = np.concatenate([chk_vars, extra], axis=1)
        width *= 2

    order = np.argsort(degrees, kind="stable")
    for v in order.tolist():
        v = int(v)
        for _ in range(int(degrees[v])):
            last = None
            if var_deg[v] == 0:
                touched_c, touched_v = [], []
            else:
                touched_c, touched_v, last = bfs_reached(v)
            chosen = -1
            stash = []
            while heap:
                packed = heapq.heappop(heap)
                c = packed & 0xFFFFFF
                deg = packed >> 44
                if deg != chk_deg[c]:
                    continue  # stale entry
                if visited_chk[c]:
                    stash.append(packed)
                    continue
                chosen = c
                break
            if chosen < 0:
                if last is None or last.size == 0:
                    raise DomainError("no placeable check; graph parameters inconsistent")
                # whole neighborhood covers every check: fall back to the
                # deepest layer, minimum degree with random tiebreak
                key = chk_deg[last].astype(np.int64) << 20 | tiebreak[last]
                chosen = int(last[int(np.argmin(key))])
            for packed in stash:
                heapq.heappush(heap, packed)
            c = int(chosen)
            if chk_deg[c] >= width:
                grow_width()
            chk_vars[c, chk_deg[c]] = v
            chk_deg[c] += 1
            var_chks[v, var_deg[v]] = c
            var_deg[v] += 1
            tiebreak[c] = rng.integers(0, 1 << 20)
            heapq.heappush(heap, int((int(chk_deg[c]) << 44) | (int(tiebreak[c]) << 24) | c))
            for arr in touched_c:
                visited_chk[arr] = False
            for arr in touched_v:
                visited_var[arr] = False

    var_lists = [var_chks[v, :var_deg[v]].copy() for v in range(n)]
    return adjacency_code(n, m, var_lists)


def reference_decode_syndrome(code: LdpcCode, llr, syndrome, max_iter: int = 200):
    """decode_syndrome as it was: v_total recomputed at the start of each
    iteration, per-check products by multiply.reduceat, np.where flooring."""
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
    starts = code.check_ptr[:-1]
    m_cv = np.zeros(code.n_edges, dtype=np.float32)
    prev_ok = False
    best_unsat = code.m + 1
    best_iter = 0
    it = 0
    for it in range(1, max_iter + 1):
        v_total = llr + np.bincount(edge_var, weights=m_cv,
                                    minlength=code.n).astype(np.float32)
        m_vc = v_total[edge_var] - m_cv
        t = np.tanh(0.5 * m_vc)
        np.clip(t, -_TANH_CEIL, _TANH_CEIL, out=t)
        t = np.where(np.abs(t) < _TANH_FLOOR,
                     np.where(t < 0.0, -_TANH_FLOOR, _TANH_FLOOR).astype(np.float32),
                     t)
        prod = np.multiply.reduceat(t, starts) * syn_sign
        r = prod[edge_chk] / t
        np.clip(r, -_TANH_CEIL, _TANH_CEIL, out=r)
        m_cv = 2.0 * np.arctanh(r)

        total = llr + np.bincount(edge_var, weights=m_cv,
                                  minlength=code.n).astype(np.float32)
        bits = (total < 0.0).astype(np.uint8)
        s_hat = reference_syndrome(code, bits)
        ok = np.array_equal(s_hat, syndrome)
        if ok and prev_ok:
            return bits, it
        prev_ok = ok
        unsat = int(np.count_nonzero(s_hat != syndrome))
        if unsat < best_unsat:
            best_unsat = unsat
            best_iter = it
        elif it - best_iter >= _STALL_WINDOW:
            break
    return None, it


def reference_syndrome(code, bits):
    """Check parities by a float bincount, as syndrome computed them."""
    acc = np.bincount(code.edge_chk, weights=np.asarray(bits)[code.edge_var].astype(float),
                      minlength=code.m)
    return (acc.astype(np.int64) & 1).astype(np.uint8)


def construction(build, n, m, profile, seed):
    """The edge arrays a construction returns, or the message it raises."""
    try:
        code = build(n, m, profile, seed)
    except DomainError as exc:
        return str(exc)
    return code.edge_var.tolist(), code.edge_chk.tolist(), code.check_ptr.tolist()


# graphs that skip many checks or fall back when every check is near.  The
# three with 1000 variables cross degree levels with hundreds of conflicts
# in the bulk runs, and run a level dry so that an edge takes the next
# level's check; the last falls back some hundred times
CROWDED_CASES = [
    (200, 100, {2: 0.5, 8: 0.5}, 9),
    (30, 12, {3: 1.0}, 0),
    (16, 8, {3: 0.5, 5: 0.5}, 4),
    (20, 8, {4: 1.0}, 1),
    (1000, 900, {2: 0.5, 8: 0.5}, 1),
    (1000, 180, {3: 1.0}, 1),
    (1000, 100, {2: 0.95, 10: 0.05}, 2),
]
PEG_CASES = [
    (512, 461, PROFILE, 11),     # tests, CLI tests
    (2048, 1843, PROFILE, 42),   # tests
    (2048, 1843, PROFILE, 11),   # demo, acceptance
    (4096, 3686, PROFILE, 11),   # the protocol workload's bench
] + CROWDED_CASES


@pytest.mark.parametrize("n, m, profile, seed", PEG_CASES)
def test_peg_matches_reference(n, m, profile, seed):
    assert (construction(peg_construct, n, m, profile, seed)
            == construction(reference_peg_construct, n, m, profile, seed))


@st.composite
def peg_parameters(draw):
    # graphs past ~50 variables keep m within 48 of n: sparse enough that
    # long runs go in bulk between conflicts, and that the reference, which
    # scans every check near a crowded variable, stays quick
    n = draw(st.integers(4, 400))
    m = draw(st.integers(max(2, n // 4, n - 48), n - 1))
    low = draw(st.integers(2, 9))
    high = draw(st.integers(low, 12))
    frac = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    profile = {low: 1.0} if low == high or frac == 1.0 else {low: frac, high: 1.0 - frac}
    return n, m, profile, draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(peg_parameters())
def test_peg_matches_reference_on_small_graphs(params):
    assert (construction(peg_construct, *params)
            == construction(reference_peg_construct, *params))


def test_reconcile_graph_is_pinned():
    # the n = 2^16 code the reconcile benchmark builds at seed 7; its bench
    # rows (0/4 blocks decoded, no iteration count) would not notice a
    # different graph
    code = peg_construct(65536, 58982, PEG_PROFILE, 7)
    digest = hashlib.sha256(code.edge_var.astype(np.int64).tobytes()
                            + code.edge_chk.astype(np.int64).tobytes()).hexdigest()
    assert digest == "d441ecbe40a3cd817bfaa4043c506facccd7821b58542f88cbfba04f55b1c196"


def slot_fold(code, ufunc, values):
    """ufunc folded over each check's edge values in slot order, as belief
    propagation and syndrome fold them, back in check order."""
    lay = code.slots
    out = np.empty(code.m, dtype=values.dtype)
    out[lay.chk_order] = fold_columns(ufunc, values[slot_edges(code)[0]], lay.chk_cols)
    return out


def test_check_fold_matches_reduceat(code512):
    # the slot-order fold equals reduceat over the canonical edge order; an
    # irregular graph too, whose checks have one to five edges
    irregular = adjacency_code(
        6, 5, [[0, 1], [1, 2, 3], [0, 4], [2, 4], [1, 3, 4], [0, 1, 2, 3, 4]])
    rng = np.random.default_rng(30)
    for code in (code512, irregular):
        t = rng.uniform(-1.0, 1.0, code.n_edges).astype(np.float32)
        t[::7] = 0.0
        t[3::11] = -0.0
        b = rng.integers(0, 256, code.n_edges).astype(np.uint8)
        starts = code.check_ptr[:-1]
        assert np.array_equal(slot_fold(code, np.multiply, t).view(np.uint32),
                              np.multiply.reduceat(t, starts).view(np.uint32))
        assert np.array_equal(slot_fold(code, np.bitwise_xor, b),
                              np.bitwise_xor.reduceat(b, starts))
        bits = rng.integers(0, 2, code.n).astype(np.uint8)
        assert np.array_equal(code.syndrome(bits), reference_syndrome(code, bits))


def block_llr(code, x, y, seed):
    """Alice's LLRs and Bob's syndrome for one block, as decode forms them."""
    bits = np.random.default_rng(seed).integers(0, 2, code.n).astype(np.uint8)
    alpha, _ = encode_side_info(y.reshape(-1, 8), bits)
    xb = x.reshape(-1, 8)
    v = apply_rotation(alpha, xb / np.linalg.norm(xb, axis=1, keepdims=True))
    return llr_scale(mu_of_snr(snr_estimate(x, y))) * v.ravel(), code.syndrome(bits)


@pytest.mark.parametrize("n, snr, decodes", [(4096, 1.0554, True), (2048, 0.1626, False)])
@pytest.mark.parametrize("arm", ["gaussian", "postselected"])
def test_decoder_matches_reference(n, snr, decodes, arm):
    code = peg_construct(n, n - round(0.1 * n), PROFILE, seed=11)
    if arm == "gaussian":
        x, y = gaussian_pairs(snr, n, seed=31)
    else:
        src = SourceSpec.k_photon(20.0, 0.8, 1)
        x, y = collect_accepted_pairs(src, matched_channel(src, snr, 0.01), n, seed=32)
    llr, syn = block_llr(code, x, y, seed=33)
    llr[::97] = 0.0  # erasures: their first messages sit on the tanh floor
    got, iters = decode_syndrome(code, llr, syn)
    want, want_iters = reference_decode_syndrome(code, llr, syn)
    assert iters == want_iters
    assert (got is None) == (want is None) == (not decodes)
    if decodes:
        assert np.array_equal(got, want)


def first_products(code, llr):
    """The first iteration's tanh values per edge and their products per
    check, in canonical order, before any flooring."""
    t = np.tanh(np.float32(0.5) * np.asarray(llr, dtype=np.float32)[code.edge_var])
    return t, np.multiply.reduceat(t, code.check_ptr[:-1])


@pytest.mark.parametrize("syndrome_of", ["bits", "random"])
def test_decoder_matches_reference_below_the_floor_in_products_only(code512, syndrome_of):
    # LLRs around 1e-3: every tanh is ~5e-4, far above the 1e-12 floor, but
    # a degree-4 check's product of four is ~6e-14, below it.  The floor
    # test on the products falls back to the edge scan, which floors
    # nothing, and the decode must still be the reference's
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2, code512.n).astype(np.uint8)
    llr = ((1.0 - 2.0 * bits) * rng.uniform(0.5e-3, 2e-3, code512.n)).astype(np.float32)
    llr[rng.random(code512.n) < 0.1] *= -1.0
    syn = (code512.syndrome(bits) if syndrome_of == "bits"
           else rng.integers(0, 2, code512.m).astype(np.uint8))
    t, prod = first_products(code512, llr)
    assert np.abs(t).min() >= _TANH_FLOOR
    assert np.abs(prod[code512.check_degrees == 4]).min() < _TANH_FLOOR
    got, iters = decode_syndrome(code512, llr, syn, max_iter=60)
    want, want_iters = reference_decode_syndrome(code512, llr, syn, max_iter=60)
    assert iters == want_iters
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("zero_frac", [0.02, 0.3])
def test_decoder_matches_reference_on_zero_and_normal_llrs(code2048, zero_frac):
    # exact zeros (both signs) among normal LLRs: the zeros' tanh values sit
    # on the floor, so their checks' products send iterations to the edge
    # scan while the rest of the block needs none
    rng = np.random.default_rng(36)
    bits = rng.integers(0, 2, code2048.n).astype(np.uint8)
    llr = ((1.0 - 2.0 * bits) * 2.0 + rng.normal(0.0, 1.5, code2048.n)).astype(np.float32)
    zeros = rng.random(code2048.n) < zero_frac
    llr[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    syn = code2048.syndrome(bits)
    t, prod = first_products(code2048, llr)
    assert (np.abs(prod) < _TANH_FLOOR).any() and (np.abs(prod) >= _TANH_FLOOR).any()
    got, iters = decode_syndrome(code2048, llr, syn)
    want, want_iters = reference_decode_syndrome(code2048, llr, syn)
    assert iters == want_iters
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


def test_decoder_matches_reference_on_erasures(code512):
    # all-zero LLRs: every first message sits on the tanh floor, so the
    # floor's sign decides the hard decisions
    syn = np.random.default_rng(34).integers(0, 2, code512.m).astype(np.uint8)
    llr = np.zeros(code512.n, dtype=np.float32)
    got, iters = decode_syndrome(code512, llr, syn)
    want, want_iters = reference_decode_syndrome(code512, llr, syn)
    assert iters == want_iters
    assert got is None and want is None



@st.composite
def small_graphs(draw):
    """A code from per-variable check lists: variable degrees 2-6 and checks
    with 1-5 edges.  Check c's first edge comes from variable c (m < n), so
    none is empty.  Random check capacities of 1-5, raised until they hold
    two edges per variable, take the other edges: first each variable's
    second edge, at the checks with the most room, then random extras up to
    a random degree."""
    n = draw(st.integers(3, 24))
    m = draw(st.integers(max(2, math.ceil(0.6 * n)), n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = rng.integers(1, 6, m)
    while cap.sum() < 2 * n + 4:
        cap[rng.choice(np.flatnonzero(cap < 5))] += 1
    var_lists = [[v] if v < m else [] for v in range(n)]
    deg = np.ones(m, dtype=int)
    for extra, target in ((False, np.full(n, 2)), (True, rng.integers(2, 7, n))):
        for v in rng.permutation(n):
            room = [c for c in np.flatnonzero(deg < cap) if c not in var_lists[v]]
            room = rng.permutation(room) if extra else \
                sorted(room, key=lambda c: (deg[c] - cap[c], rng.random()))
            for c in room[:max(0, target[v] - len(var_lists[v]))]:
                var_lists[v].append(int(c))
                deg[c] += 1
    assume(min(len(chks) for chks in var_lists) >= 2)
    return adjacency_code(n, m, var_lists)


SPECIAL_LLRS = [0.0, -0.0, 1e6, -1e6]
llr_values = st.one_of(st.sampled_from(SPECIAL_LLRS), st.floats(-12.0, 12.0, width=32))


def slot_edges(code):
    """The canonical edge behind every check slot and every variable slot,
    recomputed from the layout's definition."""
    lay = code.slots
    by_var = np.argsort(code.edge_var, kind="stable")
    var_ptr = np.concatenate(([0], np.cumsum(code.var_degrees)))
    chk, var = [], []
    for j, col in enumerate(lay.chk_cols):
        chk.append(code.check_ptr[lay.chk_order[:col.stop - col.start]] + j)
    for j, col in enumerate(lay.var_cols):
        var.append(by_var[var_ptr[lay.var_order[:col.stop - col.start]] + j])
    return np.concatenate(chk), np.concatenate(var)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(code=small_graphs(), data=st.data())
def test_slot_layout_and_decoder_on_small_graphs(code, data):
    lay = code.slots
    vdeg, cdeg = code.var_degrees, code.check_degrees
    assert 2 <= vdeg.min() and vdeg.max() <= 6 and 1 <= cdeg.min() and cdeg.max() <= 5
    for cols, count in ((lay.chk_cols, code.m), (lay.var_cols, code.n)):
        sizes = [col.stop - col.start for col in cols]
        assert cols[0].start == 0 and sizes[0] == count
        assert all(a.stop == b.start for a, b in zip(cols, cols[1:]))
        assert cols[-1].stop == code.n_edges
        assert sizes == sorted(sizes, reverse=True)
    chk_edge, var_edge = slot_edges(code)
    everything = np.arange(code.n_edges)
    assert np.array_equal(np.sort(chk_edge), everything)
    assert np.array_equal(np.sort(var_edge), everything)
    assert np.array_equal(lay.var_order[lay.sv], code.edge_var[chk_edge])
    assert np.array_equal(chk_edge[lay.c2v], var_edge)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    starts = code.check_ptr[:-1]
    t = rng.uniform(-1.0, 1.0, code.n_edges).astype(np.float32)
    t[rng.random(code.n_edges) < 0.2] = -0.0
    b = rng.integers(0, 256, code.n_edges).astype(np.uint8)
    assert np.array_equal(slot_fold(code, np.multiply, t).view(np.uint32),
                          np.multiply.reduceat(t, starts).view(np.uint32))
    assert np.array_equal(slot_fold(code, np.bitwise_xor, b),
                          np.bitwise_xor.reduceat(b, starts))
    bits = rng.integers(0, 2, code.n).astype(np.uint8)
    assert np.array_equal(code.syndrome(bits), reference_syndrome(code, bits))

    llr = np.array(data.draw(st.lists(llr_values, min_size=code.n, max_size=code.n),
                             label="llr"), dtype=np.float32)
    if data.draw(st.booleans(), label="zero syndrome"):
        syn = np.zeros(code.m, dtype=np.uint8)
    else:
        syn = rng.integers(0, 2, code.m).astype(np.uint8)
    max_iter = data.draw(st.integers(1, 30), label="max_iter")
    got, iters = decode_syndrome(code, llr, syn, max_iter=max_iter)
    want, want_iters = reference_decode_syndrome(code, llr, syn, max_iter=max_iter)
    assert iters == want_iters
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)
