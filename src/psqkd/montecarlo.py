"""Prepare-and-measure simulation with classical acceptance filtering.

The sender draws heterodyne-distributed Gaussian pairs, accepts each against
the conditioning filter of :func:`psqkd.subtraction.filter_q` for an ideal
or lossy counter, and the receiver's homodyne outcome is drawn from its
exact conditional law through the thermal-loss channel.  Accepted-subset
moment estimators reconstruct the post-channel covariance in the same
convention as the analytic chain, with Gaussian-formula standard errors
(which run a little small, since the accepted marginal is not Gaussian).  A
linear rescaling converts records taken at one tap transmittance into a
postselection for another, without new quantum data; it reads the records
once, in blocks, and packs the accepted rows as a streaming run does, so
it makes no scaled copy of them.

Sampling is chunked; each chunk owns an independent child stream of the run
seed and chunk sums are reduced in chunk order with compensated summation,
so results are bitwise reproducible regardless of how chunks are scheduled.
Every run draws its chunks on the shared worker pool (psqkd._pool), one
thread per usable CPU and two at most, with buffers allocated once per run.
A run that keeps its records draws each chunk straight into its rows of the
record columns, so its threads hold only block buffers, ~0.4 MB each; a
streaming run's threads also hold one chunk's x_a, p_a and mask, ~17 MB
each.  Acceptance is decided in cache-sized blocks
of _BLOCK rows: each block draws its uniforms and evaluates the filter in
place in small buffers, so no chunk-sized temporary is made and the bits
equal one uniform array compared against filter_q.
collect_accepted_pairs draws accepted pairs from their closed-form law
instead, so they are not a prefix of run_experiment's accepted stream.
The records and their text codec live in psqkd.records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pool import ordered, worker_count
from .errors import DomainError, EstimationError
from .gaussian import ChannelSpec, TwoModeCovariance
from .records import ExperimentRecords
from .records import export_records, load_records  # noqa: F401  named by perfbench/tracer.py
from .subtraction import SCHEME_ON_OFF, SourceSpec, _filter_coefficient, _filter_into

_CHUNK = 1 << 20
# Rows per acceptance block: three float buffers of 128 KB stay in L2.
_BLOCK = 1 << 14


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
    """Accepted count and raw sums (xx, yy, xy, x, p) of one chunk; the p_a
    sum comes first, so at most three accepted-row arrays are alive, not four."""
    idx = np.flatnonzero(acc)
    sum_p = float(p.take(idx).sum())
    return _packed_sums(x.take(idx), y.take(idx), sum_p)


def _packed_sums(xs, ys, sum_p) -> tuple[float, ...]:
    """_chunk_sums from the accepted x_a and x_b, in order, and the p_a sum.

    The products are summed by einsum, not by a BLAS dot, whose threaded
    summation order can change the last bits with the thread count."""
    return (float(xs.size), float(np.einsum("i,i->", xs, xs)),
            float(np.einsum("i,i->", ys, ys)), float(np.einsum("i,i->", xs, ys)),
            float(xs.sum()), sum_p)


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


def _block_buffers(n: int) -> tuple[np.ndarray, ...]:
    """The three float buffers that the acceptance and noise steps work in."""
    return tuple(np.empty(min(n, _BLOCK)) for _ in range(3))


def _accept_block(rng, src: SourceSpec, x, p, mask, blocks) -> None:
    """Write into mask the rows of one block that a uniform below filter_q accepts.

    The uniforms go into the first of the three blocks buffers and the
    filter into the other two.  rng.random gives the doubles of
    rng.uniform(size=x.size) (one 64-bit draw each, and 0 + 1 d = d), so
    blocks drawn in order give the stream and the mask of one
    rng.uniform draw over the whole array compared against filter_q.
    """
    m = x.size
    u, q, scratch = (b[:m] for b in blocks)
    rng.random(out=u)
    _filter_into(x, p, src, q, scratch)
    np.less(u, q, out=mask)


def _normal_into(rng, sd: float, out) -> None:
    """Fill out with the doubles of rng.normal(0.0, sd, out.size).

    rng.normal computes 0.0 + sd z from each standard normal z; the + 0.0
    turns a -0.0 product into 0.0 as it does."""
    rng.standard_normal(out=out)
    out *= sd
    out += 0.0


def _draw_sender(rng, src: SourceSpec, x, p) -> None:
    """Draw the sender's x_a into x, then p_a into p: each chunk's first draws."""
    het_sd = math.sqrt((src.v + 1.0) / 2.0)
    _normal_into(rng, het_sd, x)
    _normal_into(rng, het_sd, p)


def _draw_chunk(rng, src: SourceSpec, ch: ChannelSpec, x, p, y, acc,
                blocks) -> tuple[float, ...]:
    """Draw one chunk of records into x, p, y and acc; return its _chunk_sums.

    The draws come in the order x_a, p_a, the acceptance uniforms, then the
    receiver noise of every row, block by block through the three blocks
    buffers; _draw_packed keeps this order.
    """
    _draw_sender(rng, src, x, p)
    for lo in range(0, x.size, _BLOCK):
        hi = min(lo + _BLOCK, x.size)
        _accept_block(rng, src, x[lo:hi], p[lo:hi], acc[lo:hi], blocks)
    mean_coef, noise_sd = _receiver(src, ch)
    noise = blocks[2]
    for lo in range(0, x.size, _BLOCK):
        hi = min(lo + _BLOCK, x.size)
        z = noise[:hi - lo]
        _normal_into(rng, noise_sd, z)
        # x_b = mean_coef x_a + noise, rounded step by step as
        # mean_coef * x + noise rounds
        np.multiply(mean_coef, x[lo:hi], out=y[lo:hi])
        y[lo:hi] += z
    return _chunk_sums(x, p, y, acc)


def _pack(mask, parts, columns, start: int) -> int:
    """Write the rows of each part that mask keeps into its column from row
    start, in order; return the row after them.

    compress copies, so a column may overlap the part it is read from as
    long as start is not past the part's first row."""
    for part, column in zip(parts, columns):
        kept = part.compress(mask)
        column[start:start + kept.size] = kept
    return start + kept.size


def _draw_packed(rng, src: SourceSpec, ch: ChannelSpec, x, p, acc,
                 blocks) -> tuple[float, ...]:
    """The _chunk_sums of _draw_chunk's rounds, made in x, p and acc only.

    Each block's accepted x_a and p_a move to the fronts of x and p as it
    is decided, covering only rows already decided.  Once the packed p_a
    are summed, the accepted x_b are written over them, so no x_b column
    is made.  The draws are _draw_chunk's, in its order.
    """
    _draw_sender(rng, src, x, p)
    n_acc = 0
    for lo in range(0, x.size, _BLOCK):
        hi = min(lo + _BLOCK, x.size)
        mask = acc[lo:hi]
        _accept_block(rng, src, x[lo:hi], p[lo:hi], mask, blocks)
        n_acc = _pack(mask, (x[lo:hi], p[lo:hi]), (x, p), n_acc)
    sum_p = float(p[:n_acc].sum())
    mean_coef, noise_sd = _receiver(src, ch)
    noise, y, done = blocks[2], p, 0
    for lo in range(0, x.size, _BLOCK):
        hi = min(lo + _BLOCK, x.size)
        z = noise[:hi - lo]
        _normal_into(rng, noise_sd, z)
        z = z.compress(acc[lo:hi])
        rows = slice(done, done + z.size)
        done += z.size
        np.multiply(mean_coef, x[rows], out=y[rows])
        y[rows] += z
    return _packed_sums(x[:n_acc], y[:n_acc], sum_p)


def run_experiment(src: SourceSpec, ch: ChannelSpec, n_samples: int, seed: int,
                   keep_records: bool = True) -> ExperimentResult:
    """Simulate n_samples protocol rounds and estimate the post-channel moments.

    Per round: (x_a, p_a) i.i.d. Gaussian with the heterodyne variance
    (v+1)/2; acceptance compares one uniform draw against the filter value,
    which models a counter of efficiency src.eta_d; the receiver's outcome
    is x_b = sqrt(2 t t_c) lam x_a + noise with noise variance
    1 + t_c epsilon, its exact conditional law.  Identical seeds give
    identical streams; keep_records=False drops the columns (streaming sums
    only), which large runs want.  Either way the chunks are drawn on one
    worker per usable CPU, two at most, with the same result.
    """
    if n_samples < 10_000:
        raise DomainError(f"n_samples must be >= 10000, got {n_samples}")
    sizes = [min(_CHUNK, n_samples - lo) for lo in range(0, n_samples, _CHUNK)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    workers = range(worker_count(len(sizes)))
    size = sizes[0]
    if keep_records:
        # separate columns: one (2, n) block of x_a and p_a raised the
        # protocol workload's peak RSS by ~30 MB
        x, p, y = (np.empty(n_samples) for _ in range(3))
        acc = np.empty(n_samples, dtype=bool)

        def draw(i, blocks):
            rows = slice(i * _CHUNK, i * _CHUNK + sizes[i])
            return _draw_chunk(np.random.default_rng(children[i]), src, ch, x[rows], p[rows],
                               y[rows], acc[rows], blocks)

        buffers = [_block_buffers(size) for _ in workers]
    else:
        def draw(i, worker_buffers):
            rows = slice(0, sizes[i])
            x, p, acc, blocks = worker_buffers
            return _draw_packed(np.random.default_rng(children[i]), src, ch, x[rows], p[rows],
                                acc[rows], blocks)

        buffers = [(np.empty(size), np.empty(size), np.empty(size, dtype=bool),
                    _block_buffers(size)) for _ in workers]
    estimate = _estimate(list(ordered(range(len(sizes)), draw, buffers)), n_samples)
    records = ExperimentRecords(x_a=x, p_a=p, accepted=acc, x_b=y) if keep_records else None
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
                       seed: int) -> MomentEstimate:
    """Estimate the moments of recorded data rescaled and re-filtered for another tap.

    Scales both sender quadratures by spec.g, then filters with the k-click
    acceptance of a (v_prime, eta) source using fresh uniforms from seed.
    The receiver column is untouched; the sent-amplitude identity makes the
    accepted subset match a genuine (v_prime, eta, k) run through the same
    channel, which the estimate lets callers verify.

    The records are read once, in _BLOCK-row blocks.  Each block is scaled
    into the next free rows of two packed columns and decided there, and
    its accepted rows move to the packed fronts, as _draw_packed does; the
    accepted x_b then go over the summed p_a.  The estimate is the
    _chunk_sums of the scaled columns, bit for bit, with the uniforms of
    one draw over all rows; no scaled copy of the records is made.
    """
    src = SourceSpec.k_photon(spec.v_prime, spec.eta, k)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(records)
    x, p = np.empty(n), np.empty(n)
    acc = np.empty(n, dtype=bool)
    blocks = _block_buffers(n)
    n_acc = 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # rows n_acc .. n_acc + hi - lo are free, since n_acc <= lo
        rows = slice(n_acc, n_acc + hi - lo)
        np.multiply(spec.g, records.x_a[lo:hi], out=x[rows])
        np.multiply(spec.g, records.p_a[lo:hi], out=p[rows])
        _accept_block(rng, src, x[rows], p[rows], acc[lo:hi], blocks)
        n_acc = _pack(acc[lo:hi], (x[rows], p[rows]), (x, p), n_acc)
    sum_p = float(p[:n_acc].sum())
    done = 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        done = _pack(acc[lo:hi], (records.x_b[lo:hi],), (p,), done)
    return _estimate([_packed_sums(x[:n_acc], p[:n_acc], sum_p)], n)
