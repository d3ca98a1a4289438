"""Reconciliation benchmark harness.

Runs block decoding over synthetic Gaussian pairs or accepted samples from
the prepare-and-measure simulator, both normalized to a target per-symbol
snr, and reports success counts and iteration averages in the layout of a
code-comparison table (rate, snr, efficiency, data type, S/T, AIN).  The
absolute success numbers depend entirely on the loaded parity-check
matrix; the report is the artifact, not a claim about any particular
published code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._pool import ordered, worker_count
from ..analysis import beta_from_rate_snr
from ..errors import DegenerateBlockError, DomainError
from ..gaussian import ChannelSpec
from ..records import ExperimentRecords
from ..subtraction import SourceSpec, covariance_subtracted
from .bp import Workspace, decode_syndrome
from .ldpc import LdpcCode
from .multidim import OctetBuffers, block_llr, encode_side_info, snr_estimate

# Codes with fewer edges decode their blocks on one worker.  On a 2-core
# host (8 blocks at snr 0.1626, median of 5 calls, three processes each),
# two workers took 0.67-0.70 of one worker's time at 101 581 edges, 0.86-1.31
# of it at 50 789 and 0.99-1.73 at 12 699, where the GIL hand-offs between
# short NumPy steps outweigh the overlap.
_PARALLEL_EDGES = 1 << 16
# Bits a block's draw takes per call; see _random_bits
_BIT_CHUNK = 1 << 12


@dataclass(frozen=True)
class BenchReport:
    """One benchmark row.

    blocks_total counts decode attempts (degenerate blocks are skipped and
    tallied separately); avg_iterations averages over successful blocks
    only and is nan when none succeed.  snr is the nominal operating
    point, snr_measured the mean per-block estimate actually used for the
    LLR model, and beta the efficiency implied by (code_rate, snr).
    """

    code_rate: float
    snr: float
    beta: float
    data_type: str
    blocks_total: int
    blocks_success: int
    avg_iterations: float
    blocks_skipped: int = 0
    snr_measured: float = float("nan")

    def __post_init__(self):
        if self.blocks_success > self.blocks_total:
            raise DomainError("blocks_success cannot exceed blocks_total")

    def row(self) -> dict:
        """Table row in (R, SNR, beta, Type, S/T, AIN) layout."""
        return {
            "R": self.code_rate,
            "SNR": self.snr,
            "beta": self.beta,
            "Type": self.data_type,
            "S/T": f"{self.blocks_success}/{self.blocks_total}",
            "AIN": self.avg_iterations,
        }


def gaussian_pairs(snr: float, n_pairs: int, seed: int):
    """Jointly Gaussian unit-variance pairs at the exact target snr."""
    if snr <= 0.0:
        raise DomainError(f"snr must be > 0, got {snr}")
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be >= 1, got {n_pairs}")
    rho = math.sqrt(snr / (1.0 + snr))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y = rng.standard_normal(n_pairs)
    x = rho * y + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n_pairs)
    return x, y


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.integers(0, 2, n) as uint8, drawn _BIT_CHUNK bits at a time into
    the result rather than as one int64 array of n.  An int64 draw below
    2^32 takes one 32-bit word per value, so the chunks give the same
    bits as one draw."""
    bits = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, _BIT_CHUNK):
        bits[lo:lo + _BIT_CHUNK] = rng.integers(0, 2, min(_BIT_CHUNK, n - lo))
    return bits


def accepted_pairs(records: ExperimentRecords):
    """Correlated (sender, receiver) pairs from the accepted records."""
    mask = records.accepted
    return records.x_a[mask], records.x_b[mask]


def matched_channel(src: SourceSpec, snr: float, epsilon: float) -> ChannelSpec:
    """Channel transmittance placing the accepted data at the target snr.

    The accepted pair has snr = 2 t t_c lam^2 vt / (1 + t_c epsilon), so
    t_c = snr / (2 t lam^2 vt - snr epsilon).
    """
    if snr <= 0.0:
        raise DomainError(f"snr must be > 0, got {snr}")
    vt = covariance_subtracted(src).v_tilde
    denom = 2.0 * src.t * src.lambda2 * vt - snr * epsilon
    if denom <= 0.0:
        raise DomainError(f"snr {snr} unreachable for this source at epsilon {epsilon}")
    t_c = snr / denom
    if t_c > 1.0:
        raise DomainError(f"snr {snr} needs channel transmittance {t_c:.4g} > 1")
    return ChannelSpec(t_c=t_c, epsilon=epsilon)


def bench(x, y, code: LdpcCode, n_blocks: int, seed: int,
          data_type: str = "gaussian", snr: float | None = None,
          max_iter: int = 200) -> BenchReport:
    """Decode n_blocks consecutive blocks of correlated samples.

    x, y are flat sample arrays (Alice, Bob); each block consumes code.n of
    them.  Bob's bits come from per-block child streams of the seed, so
    the report is deterministic.  Success means the decoder converged and
    the recovered bits equal Bob's ground truth exactly.

    Blocks are decoded on the shared worker pool (psqkd._pool), one
    per usable CPU and two at most, or one for a code of fewer than
    _PARALLEL_EDGES edges.  Each works in its own bp.Workspace, which the
    calling thread allocates once before any worker starts.  The
    calling thread also prepares each round of blocks, one per worker:
    bits, side information, LLRs and syndrome.  It prepares them in one
    multidim.OctetBuffers and leaves each block's float32 LLRs in an array
    of its worker's, all allocated once per call.  Results are taken in
    block order, so the report is the same, bit for bit, for any worker
    count.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise DomainError("x and y must have equal length")
    if n_blocks < 1:
        raise DomainError(f"n_blocks must be >= 1, got {n_blocks}")
    if code.n % 8:
        raise DomainError(f"code length must be a multiple of 8, got {code.n}")
    need = n_blocks * code.n
    if x.size < need:
        raise DomainError(f"insufficient data: need {need} correlated samples "
                          f"for {n_blocks} blocks of {code.n}, got {x.size}")
    if snr is None:
        snr = snr_estimate(x[:need], y[:need])

    # built before the workers share it: a cached_property takes no lock on
    # Python 3.12+, so two workers could each build the layout
    code.slots
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    workers = worker_count(n_blocks) if code.n_edges >= _PARALLEL_EDGES else 1
    workspaces = [Workspace(code) for _ in range(workers)]
    # one block's preparation works in these octet arrays, and block j of a
    # round leaves its LLRs in llrs[j] until its worker decodes them
    buffers = OctetBuffers(code.n)
    llrs = [np.empty(code.n, dtype=np.float32) for _ in workspaces]

    def prepared(b, llr):
        # Bob's bits, the block's snr estimate, Alice's LLRs rounded to
        # float32 as decode_syndrome rounds them, and the syndrome; None
        # for a block with a zero-norm octet
        sl = slice(b * code.n, (b + 1) * code.n)
        bits = _random_bits(np.random.default_rng(children[b]), code.n)
        try:
            alpha, _ = encode_side_info(y[sl].reshape(-1, 8), bits, buffers)
            est = snr_estimate(x[sl], y[sl])
            block_llr(x[sl].reshape(-1, 8), alpha, est, buffers, out=llr)
        except DegenerateBlockError:
            return None
        return bits, est, llr, code.syndrome(bits)

    def decoded(block, workspace):
        if block is None:
            return None
        bits, est, llr, syndrome = block
        got, iters = decode_syndrome(code, llr, syndrome, max_iter, workspace)
        return est, got is not None and np.array_equal(got, bits), iters

    successes = 0
    skipped = 0
    attempted = 0
    iters_sum = 0
    snr_sum = 0.0
    for lo in range(0, n_blocks, len(workspaces)):
        # the calling thread prepares a round of blocks, one per worker, so
        # the workers allocate almost nothing; a round ends with its slowest
        # block and is released before the next is prepared.  Results come
        # in block order, so the sums run in one order for any worker count
        blocks = range(lo, min(lo + len(workspaces), n_blocks))
        for result in ordered([prepared(b, llr) for b, llr in zip(blocks, llrs)], decoded,
                              workspaces[:len(blocks)]):
            if result is None:
                skipped += 1
                continue
            est, success, iters = result
            attempted += 1
            snr_sum += est
            if success:
                successes += 1
                iters_sum += iters
    avg = iters_sum / successes if successes else float("nan")
    return BenchReport(
        code_rate=code.rate,
        snr=float(snr),
        beta=beta_from_rate_snr(code.rate, float(snr)),
        data_type=data_type,
        blocks_total=attempted,
        blocks_success=successes,
        avg_iterations=avg,
        blocks_skipped=skipped,
        snr_measured=snr_sum / attempted if attempted else float("nan"),
    )


def non_gaussian_label(src: SourceSpec) -> str:
    """Data-type tag for postselected sources, e.g. non_gaussian(k=1, V=20, T=0.8)."""
    if src.scheme == "k_photon":
        head = f"k={src.k}"
    elif src.scheme == "on_off":
        head = "on_off"
    else:
        head = "none"
    return f"non_gaussian({head}, V={src.v:g}, T={src.t:g})"
