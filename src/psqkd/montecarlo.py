"""Prepare-and-measure simulation with classical acceptance filtering.

The sender draws heterodyne-distributed Gaussian pairs, accepts each against
the conditioning filter of :func:`psqkd.subtraction.filter_q` for an ideal
or lossy counter, and the receiver's homodyne outcome is drawn from its
exact conditional law through the thermal-loss channel.  Accepted-subset
moment estimators reconstruct the post-channel covariance in the same
convention as the analytic chain, with Gaussian-formula standard errors
(which run a little small, since the accepted marginal is not Gaussian).  A
linear rescaling converts records taken at one tap transmittance into a
postselection for another, without new quantum data.

Sampling is chunked; each chunk owns an independent child stream of the run
seed and chunk sums are reduced with compensated summation, so results are
bitwise reproducible regardless of how chunks are scheduled.  Acceptance is
decided in cache-sized blocks of _BLOCK rows: each block draws its uniforms
and evaluates the filter in place in small buffers, so no chunk-sized
temporary is made and the bits equal one uniform array compared against
filter_q.
collect_accepted_pairs draws accepted pairs from their closed-form law
instead, so they are not a prefix of run_experiment's accepted stream.

export_records writes the bytes "%.17g" % v gives, but computes them in
NumPy: each float's 17 significant digits come exactly from its binary
mantissa and exponent, rounded half to even, and a row-wide mask keyed by
the decimal exponent, sign and trailing zeros keeps the characters %g
prints, so values of every exponent share one layout and one compress.
Rows holding a zero or a value outside [1e-4, 1e16) in magnitude, which
%g prints with an exponent or as inf or nan, are formatted by % in order.
"""

from __future__ import annotations

import functools
import gzip
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EstimationError
from .gaussian import ChannelSpec, TwoModeCovariance
from .subtraction import SCHEME_ON_OFF, SourceSpec, _filter_coefficient, _filter_into

_CHUNK = 1 << 20
# Rows per acceptance block: three float buffers of 128 KB stay in L2.
_BLOCK = 1 << 14
# Rows formatted per write by export_records.  A chunk's row matrix and
# mask take 280 KB each and np.compress's index array ~1 MB, so a chunk
# peaks at ~2.2 MB under tracemalloc.  2^12 rows ran no faster at twice
# the memory, and 2^14 at half the speed.
_IO_CHUNK = 1 << 11
_ROW_FORMAT = "%.17g %.17g %d %.17g\n"

# export_records prints a float v with 1e-4 <= |v| < 1e16 from its exact
# digits: v = D 10^(X-16) with D the 17 significant digits, rounded half to
# even as %.17g rounds them, and %g prints it in fixed notation.  Each float
# of a row gets a slot of _SLOT bytes: a "-", then each character of "0000"
# followed by the 17 digits, each followed by a ".", then the separators.
# A mask picked by (slot, sign, X, digits left once trailing zeros go)
# keeps the characters %g prints, so no byte moves per value.
_SLOT = 46
_POW5 = np.array([5**k for k in range(22)], dtype=np.uint64)


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The formatter's read-only tables, built on first use.

    quad: the four ASCII digits of 0..9999 as one uint32 each; quad_zeros:
    their trailing zeros; keep: the keep-mask of each key ((slot 2 + sign)
    21 + X + 4) 18 + n, for n the digits left once trailing zeros go;
    row: the bytes of one row's three slots.  %g prints the integer part
    "0000D"[start:X+5], start = min(4, X+4), then a point and
    "0000D"[X+5:4+n] if that is not empty."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    quad = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    quad_zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    j = np.arange(21)
    x = np.arange(-4, 17)[:, None, None]
    n = np.arange(18)[None, :, None]
    digit = (j >= np.minimum(4, x + 4)) & (j < np.maximum(x + 5, 4 + n))
    point = (j == x + 4) & (4 + n > x + 5)
    keep = np.zeros((3, 2, 21, 18, _SLOT), dtype=bool)
    keep[:, 1, ..., 0] = True
    keep[..., 1:43:2] = digit
    keep[..., 2:44:2] = point
    keep[0, ..., 43] = keep[1, ..., 43:] = keep[2, ..., 43] = True
    row = np.full((3, _SLOT), ord("."), dtype=np.uint8)
    row[:, 0] = ord("-")
    row[:, 43:] = np.frombuffer(b" .. 0 \n..", dtype=np.uint8).reshape(3, 3)
    tables = quad, quad_zeros, keep.reshape(-1, _SLOT), row.ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class ExperimentRecords:
    """Columnar record stream of one simulated run."""

    x_a: np.ndarray
    p_a: np.ndarray
    accepted: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        x_a = np.asarray(self.x_a, dtype=float)
        p_a = np.asarray(self.p_a, dtype=float)
        x_b = np.asarray(self.x_b, dtype=float)
        acc = np.asarray(self.accepted, dtype=bool)
        if not (x_a.shape == p_a.shape == x_b.shape == acc.shape) or x_a.ndim != 1:
            raise DomainError("record columns must be 1d and equal length")
        # read-only views: the caller's own arrays stay writeable, nothing is copied
        for name, arr in (("x_a", x_a), ("p_a", p_a), ("x_b", x_b), ("accepted", acc)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.x_a.size


@dataclass(frozen=True)
class MomentEstimate:
    """Accepted-subset moment estimators and their standard errors.

    cov is the reconstructed post-channel covariance: v1 = 2<x_a^2> - 1,
    phi = sqrt(2) <x_a x_b>, v2 = <x_b^2>, all uncentered over accepted
    records.  m2_xa is the raw accepted second moment of x_a, whose analytic
    target is the conditional heterodyne variance.  Standard errors are the
    Gaussian fourth-moment formulas, uninflated.
    """

    cov: TwoModeCovariance
    accept_rate: float
    n_samples: int
    n_accepted: int
    m2_xa: float
    mean_xa: float
    mean_pa: float
    se_v1: float
    se_v2: float
    se_phi: float
    se_m2_xa: float
    se_mean: float
    se_accept: float


@dataclass(frozen=True)
class ExperimentResult:
    records: ExperimentRecords | None
    estimate: MomentEstimate


@dataclass(frozen=True)
class RescaleSpec:
    """Linear rescaling between tap transmittances.

    Records taken from a variance-v source behind a transmittance-t0 tap,
    scaled by g, are statistically identical to records of a variance
    v_prime source behind a transmittance-eta tap, because the sent
    amplitude obeys sqrt(eta) lam' g = sqrt(t0) lam.  g and v_prime are
    derived on construction and cannot be passed in.
    """

    v: float
    t0: float
    eta: float
    g: float = field(init=False)
    v_prime: float = field(init=False)

    def __post_init__(self):
        if self.v < 1.0:
            raise DomainError(f"v must be >= 1, got {self.v}")
        for name, val in (("t0", self.t0), ("eta", self.eta)):
            if not (0.0 < val <= 1.0):
                raise DomainError(f"{name} must lie in (0, 1], got {val}")
        v_prime = 1.0 + (self.t0 / self.eta) * (self.v - 1.0)
        lam = math.sqrt((self.v - 1.0) / (self.v + 1.0))
        lam_p = math.sqrt((v_prime - 1.0) / (v_prime + 1.0))
        if lam == 0.0:
            g = math.sqrt(self.t0 / self.eta)  # v = 1 limit: pure scale
        else:
            g = math.sqrt(self.t0) * lam / (math.sqrt(self.eta) * lam_p)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "v_prime", v_prime)

    @property
    def lam_prime(self) -> float:
        return math.sqrt((self.v_prime - 1.0) / (self.v_prime + 1.0))


def _chunk_sums(x, p, y, acc) -> tuple[float, ...]:
    """Accepted count and raw sums (xx, yy, xy, x, p) of one chunk.

    The products are summed by einsum, not by a BLAS dot, whose threaded
    summation order can change the last bits with the thread count."""
    idx = np.flatnonzero(acc)
    xs, ps, ys = x.take(idx), p.take(idx), y.take(idx)
    return (float(idx.size), float(np.einsum("i,i->", xs, xs)),
            float(np.einsum("i,i->", ys, ys)), float(np.einsum("i,i->", xs, ys)),
            float(xs.sum()), float(ps.sum()))


def _estimate(sums: list[tuple[float, ...]], n_samples: int) -> MomentEstimate:
    """Moment estimators from per-chunk sums, reduced with math.fsum.

    The fsum of one term is that term, so a single chunk gives the plain
    accepted-subset moments.
    """
    n, xx, yy, xy, sx, sp = (math.fsum(col) for col in zip(*sums))
    n_acc = int(n)
    if n_acc == 0:
        raise EstimationError("no accepted samples; cannot estimate moments")
    m2x = xx / n_acc
    m2y = yy / n_acc
    m11 = xy / n_acc
    mean_x = sx / n_acc
    mean_p = sp / n_acc
    se_m2x = m2x * math.sqrt(2.0 / n_acc)
    se_m2y = m2y * math.sqrt(2.0 / n_acc)
    se_m11 = math.sqrt((m2x * m2y + m11 * m11) / n_acc)
    rate = n_acc / n_samples
    return MomentEstimate(
        cov=TwoModeCovariance(v1=2.0 * m2x - 1.0, v2=m2y, phi=math.sqrt(2.0) * m11),
        accept_rate=rate,
        n_samples=n_samples,
        n_accepted=n_acc,
        m2_xa=m2x,
        mean_xa=mean_x,
        mean_pa=mean_p,
        se_v1=2.0 * se_m2x,
        se_v2=se_m2y,
        se_phi=math.sqrt(2.0) * se_m11,
        se_m2_xa=se_m2x,
        se_mean=math.sqrt(m2x / n_acc),
        se_accept=math.sqrt(max(rate * (1.0 - rate), 1.0 / n_samples) / n_samples),
    )


def _receiver(src: SourceSpec, ch: ChannelSpec) -> tuple[float, float]:
    """(m, sd): the receiver's x_b = m x_a + N(0, sd^2), its exact conditional law."""
    return (math.sqrt(2.0 * src.t * ch.t_c) * src.lam,
            math.sqrt(1.0 + ch.t_c * ch.epsilon))


def _accept(rng, src: SourceSpec, x, p):
    """Bool mask of accepted rows: a uniform draw below filter_q(x, p, src).

    Works in blocks of _BLOCK rows, drawing each block's uniforms with
    rng.random into one reused buffer and the filter into two more.
    rng.random gives the doubles of rng.uniform(size=x.size) (one 64-bit
    draw each, and 0 + 1 d = d), block after block, so the stream and the
    mask are those of rng.uniform(size=x.size) < filter_q(x, p, src).
    """
    n = x.size
    acc = np.empty(n, dtype=bool)
    u, q, scratch = (np.empty(min(n, _BLOCK)) for _ in range(3))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        m = hi - lo
        rng.random(out=u[:m])
        _filter_into(x[lo:hi], p[lo:hi], src, q[:m], scratch[:m])
        np.less(u[:m], q[:m], out=acc[lo:hi])
    return acc


def _rounds(src: SourceSpec, ch: ChannelSpec, sizes, seed: int):
    """Yield (x_a, p_a, x_b, accepted) for each chunk size in turn.

    Chunk i draws from child i of SeedSequence(seed), in the order x_a,
    p_a, the acceptance uniforms, then the receiver noise, so every caller
    sees the same rounds for the same seed and chunk layout.  The generator
    drops its own references to a chunk once the caller takes it, so a
    caller that keeps no chunk holds one chunk's arrays at a time.
    """
    het_sd = math.sqrt((src.v + 1.0) / 2.0)
    mean_coef, noise_sd = _receiver(src, ch)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    for child, size in zip(children, sizes):
        rng = np.random.default_rng(child)
        # Two chunk-sized arrays, not one (2, size) block: the same stream,
        # but the block raised the protocol workload's peak RSS by ~30 MB.
        x, p = [rng.normal(0.0, het_sd, size) for _ in range(2)]
        acc = _accept(rng, src, x, p)
        y = mean_coef * x + rng.normal(0.0, noise_sd, size)
        yield x, p, y, acc
        del x, p, y, acc


def run_experiment(src: SourceSpec, ch: ChannelSpec, n_samples: int, seed: int,
                   keep_records: bool = True) -> ExperimentResult:
    """Simulate n_samples protocol rounds and estimate the post-channel moments.

    Per round: (x_a, p_a) i.i.d. Gaussian with the heterodyne variance
    (v+1)/2; acceptance compares one uniform draw against the filter value,
    which models a counter of efficiency src.eta_d; the receiver's outcome
    is x_b = sqrt(2 t t_c) lam x_a + noise with noise variance
    1 + t_c epsilon, its exact conditional law.  Identical seeds give
    identical streams; keep_records=False drops the columns (streaming sums
    only), which large runs want.
    """
    if n_samples < 10_000:
        raise DomainError(f"n_samples must be >= 10000, got {n_samples}")
    sizes = [min(_CHUNK, n_samples - lo) for lo in range(0, n_samples, _CHUNK)]
    sums, kept = [], []
    for chunk in _rounds(src, ch, sizes, seed):
        sums.append(_chunk_sums(*chunk))
        if keep_records:
            kept.append(chunk)
        del chunk

    estimate = _estimate(sums, n_samples)
    records = None
    if keep_records:
        x, p, y, acc = (np.concatenate(col) for col in zip(*kept))
        records = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y)
    return ExperimentResult(records=records, estimate=estimate)


def collect_accepted_pairs(src: SourceSpec, ch: ChannelSpec, n_pairs: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_pairs accepted (x_a, x_b) pairs from their exact law, in O(n_pairs).

    The prior of s = x_a^2 + p_a^2 is Exp(rate a = 1/(v+1)) and filter_q
    sees u = c s, so the accepted s is Gamma(k+1, rate a + c) for k clicks
    (scheme "none": k = c = 0) and Exp(a) + Exp(a + c) for on-off; a dark
    tap (c = 0) draws the limiting law, as subtraction.v_tilde does.  The
    phase is uniform and x_b follows x_a as in run_experiment, whose
    accepted subset has this law but not this stream.
    """
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = 1.0 / (src.v + 1.0)
    b = a + _filter_coefficient(src)
    if src.scheme == SCHEME_ON_OFF:
        s = rng.exponential(1.0 / a, n_pairs) + rng.exponential(1.0 / b, n_pairs)
    else:
        s = rng.gamma(src.k + 1.0, 1.0 / b, n_pairs)
    x = np.sqrt(s) * np.cos(rng.uniform(0.0, 2.0 * math.pi, n_pairs))
    mean_coef, noise_sd = _receiver(src, ch)
    return x, mean_coef * x + rng.normal(0.0, noise_sd, n_pairs)


def rescale_and_filter(records: ExperimentRecords, spec: RescaleSpec, k: int,
                       seed: int) -> tuple[ExperimentRecords, MomentEstimate]:
    """Rescale recorded sender data and re-run the acceptance filter.

    Scales both sender quadratures by spec.g, then filters with the k-click
    acceptance of a (v_prime, eta) source using fresh uniforms from seed.
    The receiver column is untouched; the sent-amplitude identity makes the
    accepted subset match a genuine (v_prime, eta, k) run through the same
    channel, which the returned estimate lets callers verify.
    """
    src = SourceSpec.k_photon(spec.v_prime, spec.eta, k)
    x = spec.g * records.x_a
    p = spec.g * records.p_a
    acc = _accept(np.random.default_rng(np.random.SeedSequence(seed)), src, x, p)
    out = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=records.x_b)
    return out, _estimate([_chunk_sums(x, p, records.x_b, acc)], len(records))


def _scaled(m, e, k):
    """(floor, round half to even) of m 5^k 2^(e+k), exactly, as uint64.

    m < 2^53 and 5^k < 2^49, so the product is under 2^102: it is built
    from 32-bit limbs as hi 2^64 + lo.  A right shift is under 64 bits; a
    left shift only happens when the result, hence hi, is small."""
    f = _POW5[k]
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    f_lo, f_hi = f & 0xFFFFFFFF, f >> 32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    carry = (low >> 32) + (mid & 0xFFFFFFFF)
    lo = (carry << 32) | (low & 0xFFFFFFFF)
    hi = (carry >> 32) + (mid >> 32) + m_hi * f_hi
    shift = -(e + k)
    right = np.maximum(shift, 0).astype(np.uint64)
    left = np.maximum(-shift, 0).astype(np.uint64)
    # a shift by 64 gives 0 in NumPy, so right = 0 keeps lo alone
    q = ((hi << (64 - right)) | (lo >> right)) << left
    twice_rest = (lo & ((1 << right) - 1)) << 1
    half = 1 << right
    return q, q + ((twice_rest > half) | ((twice_rest == half) & ((q & 1) == 1)))


def _decimal_digits(a):
    """(D, X): a = D 10^(X-16) to 17 significant digits, as %.17g rounds.

    For finite a with 1e-4 <= a < 1e16.  With a = m 2^e and k = 16 - X,
    D = m 5^k 2^(e+k) rounded half to even.  X starts as floor(log10 a),
    which can be one off next to a power of ten; the exact floor of
    a 10^k must lie in [10^16, 10^17), else X moves by one.  D never
    rounds up to 10^17: no double lies within half a unit of the 17th
    digit below a power of ten, since 17 digits resolve doubles."""
    frac, exp = np.frexp(a)
    m = (frac * 2.0 ** 53).astype(np.uint64)
    e = exp.astype(np.int64) - 53
    x = np.floor(np.log10(a)).astype(np.int64)
    q, d = _scaled(m, e, 16 - x)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))
    if off.size:
        x[off] += np.where(q[off] < 10**16, -1, 1)
        d[off] = _scaled(m[off], e[off], 16 - x[off])[1]
    return d, x


def _format_rows(x_a, p_a, accepted, x_b) -> bytes:
    """The bytes of _ROW_FORMAT % row for each row of the four columns.

    Floats with 1e-4 <= |v| < 1e16 are printed from _decimal_digits; a row
    holding any other value (a zero, a subnormal, inf, nan, or a value %g
    prints with an exponent) is formatted by % and spliced in in order."""
    n = len(x_a)
    v = np.column_stack([x_a, p_a, x_b]).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    d, x = _decimal_digits(a)
    quad, quad_zeros, keep_table, row_bytes = _format_tables()
    hi, lo = (d // 10**8).astype(np.uint32), (d % 10**8).astype(np.uint32)
    # D as one leading digit and four groups of four, each group one uint32
    # of ASCII digits; the leading "0000" makes the row "0000" + D
    groups = (hi // 10**8, hi // 10**4 % 10**4, hi % 10**4, lo // 10**4, lo % 10**4)
    quads = np.empty((3 * n, 6), dtype=np.uint32)
    quads[:, 0] = quad[0]
    for col, g in enumerate(groups, 1):
        quads[:, col] = quad[g]
    # trailing zeros of D, group by group from the right (d0 is not 0)
    zeros = quad_zeros[groups[4]]
    for i, g in enumerate(groups[3:0:-1], 1):
        more = np.flatnonzero(zeros == 4 * i)
        zeros[more] += quad_zeros[g[more]]
    key = (((np.arange(3 * n) % 3) * 2 + np.signbit(v)) * 21 + x + 4) * 18 + 17 - zeros
    rows = np.empty((n, 3 * _SLOT), dtype=np.uint8)
    rows[:] = row_bytes
    rows.reshape(3 * n, _SLOT)[:, 1:43:2] = quads.view(np.uint8)[:, 3:]
    rows[:, _SLOT + 44] += accepted.view(np.uint8)
    keep = keep_table.take(key, axis=0).reshape(n, 3 * _SLOT)
    text = np.compress(keep.ravel(), rows.ravel()).tobytes()
    if fast.all():
        return text
    # not np.unique: its first call left an allocation at the top of the
    # heap, which kept ~32 MB of freed records resident after an export
    slow = np.flatnonzero(~fast.reshape(n, 3).all(axis=1))
    lengths = np.count_nonzero(keep, axis=1)
    ends = lengths.cumsum()
    parts, done = [], 0
    for i in slow:
        parts.append(text[done:ends[i] - lengths[i]])
        parts.append((_ROW_FORMAT % (float(x_a[i]), float(p_a[i]), int(accepted[i]),
                                     float(x_b[i]))).encode())
        done = ends[i]
    parts.append(text[done:])
    return b"".join(parts)


def export_records(records: ExperimentRecords, path: str) -> None:
    """Write records as columnar text; a path ending in .gz gzips the stream.

    The format is two header lines, "# columns=x_a p_a accepted x_b" and
    "# n_samples=<rows>", then one line per round: x_a, p_a, accepted (0 or
    1) and x_b, separated by single spaces, floats at %.17g so they read
    back bit for bit.  The bytes are those of "%.17g" % v: values with
    1e-4 <= |v| < 1e16 are printed from their exact decimal digits in
    NumPy, and a row holding any other value is formatted by % itself.
    Rows are formatted and written in chunks of _IO_CHUNK, so memory stays
    bounded.  gzip runs at level 1, which writes ~2.7x faster than the
    default level 9 for a ~7% larger file; the decompressed text is the
    same at any level.
    """
    if str(path).endswith(".gz"):
        fh = gzip.open(path, "wb", compresslevel=1)
    else:
        fh = open(path, "wb")
    n = len(records)
    with fh:
        fh.write(b"# columns=x_a p_a accepted x_b\n# n_samples=%d\n" % n)
        for lo in range(0, n, _IO_CHUNK):
            rows = slice(lo, lo + _IO_CHUNK)
            fh.write(_format_rows(records.x_a[rows], records.p_a[rows],
                                  records.accepted[rows], records.x_b[rows]))


def load_records(path: str) -> ExperimentRecords:
    """Read a columnar record file written by export_records.

    Blank lines and "#" comments are skipped.  A line without exactly four
    numeric fields, an accepted field other than 0 or 1, or a file without
    records raises DomainError.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"malformed record file {path}: {exc}") from None
    if data.shape[0] == 0:
        raise DomainError(f"no records found in {path}")
    if data.shape[1] != 4:
        raise DomainError(f"malformed record file {path}: {data.shape[1]} fields "
                          "per line, expected 4")
    # column views of the one loaded block; a contiguous copy would double
    # the peak memory of a load
    x_a, p_a, acc, x_b = data.T
    valid = (acc == 0.0) | (acc == 1.0)
    if not valid.all():
        bad = acc[~valid][0]
        raise DomainError(f"accepted field must be 0 or 1 in {path}, got {bad:g}")
    return ExperimentRecords(x_a=x_a, p_a=p_a, accepted=acc == 1.0, x_b=x_b)
