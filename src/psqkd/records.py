"""The columns of a simulated run, ExperimentRecords, and their text codec.

export_records and load_records run their chunks and blocks on the worker
pool (psqkd._pool), each thread with buffers allocated once per call.

export_records writes the bytes "%.17g" % v gives, but computes them in
NumPy: each float's 17 significant digits, rounded half to even, come from
its product with a power of ten, exact in IEEE double by Dekker's product
(T. J. Dekker, Numer. Math. 18, 224 (1971)): the rounded product and its
exact error, each step a separate ufunc, so no step is fused into an FMA.
A row-wide mask keyed by the decimal exponent, sign and trailing zeros
keeps the characters %g prints, so values of every exponent share one
layout and one compress.
Rows holding a zero or a value outside [1e-4, 1e16) in magnitude, which
%g prints with an exponent or as inf or nan, are formatted by % in order.

load_records reads a file in the export's layout without np.loadtxt, and
bit for bit as np.loadtxt would.  Each fixed-notation token's exact digits
D, read eight ASCII digits per uint64 word, give a candidate D / 10^frac in
long double; the candidate is kept only when the exporter's exact 17
digits of it are the token's own, since a double's 17-digit decimal reads
back to that double.  np.loadtxt reads the values that check cannot prove,
and the whole file when its layout is not the export's or anything fails.
"""

from __future__ import annotations

import gzip
import threading
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._pool import ordered, worker_count
from .errors import DomainError

# Rows export_records formats per task.  A worker's buffers and working
# set peak at ~1.6 MB under tracemalloc.  On two threads 10^6 Gaussian rows
# were written in 0.44-0.48 s, against 0.47-0.58 s at 2^10 rows, whose
# many small steps the GIL serialises; 2^12 rows took 0.36-0.41 s, but the
# export then peaks at ~7 MB, past its 4 MB bound.
_IO_CHUNK = 1 << 11
# Chunk texts (~130 KB each) held until the calling thread writes them;
# windows of 8 to 64 ran no faster.
_IO_WINDOW = 4
# Rows per np.compress, whose index of the kept bytes is then ~130 KB.
_COMPRESS = 1 << 8
_ROW_FORMAT = "%.17g %.17g %d %.17g\n"

# export_records prints a float v with 1e-4 <= |v| < 1e16 from its exact
# digits: v = D 10^(X-16) with D the 17 significant digits, rounded half to
# even as %.17g rounds them, and %g prints it in fixed notation.  Each float
# of a row gets a slot of _SLOT bytes: a "-", then each character of "0000"
# followed by the 17 digits, each followed by a ".", then the separators.
# A mask picked by (slot, sign, X, digits left once trailing zeros go)
# keeps the characters %g prints, so no byte moves per value.
_SLOT = 46

# The header export_records writes: the columns, then the row count.
_HEADER = b"# columns=x_a p_a accepted x_b\n"
_COUNT = b"# n_samples="
# load_records' exact reader parses _READ_BLOCK bytes of lines at a time.
# A worker's block and parse arrays peak at ~8x its bytes under
# tracemalloc.  On two threads those 10^6 rows loaded in 0.44-0.47 s,
# against 0.62-0.66 s at 2^17, whose small steps the GIL serialises; 2^19
# took 0.32-0.38 s, but two workers then peak at 2x the column bytes, past
# load_records' 1.5x bound.  A token's digits are read from the _FIELD
# bytes up to its end, three 8-byte words.
_READ_BLOCK = 1 << 18
_FIELD = 24
_LINE_SEPS = np.frombuffer(b"   \n", dtype=np.uint8)
# bytes a line may hold besides digits; anything else is read by np.loadtxt
_TOKEN_BYTES = np.zeros(256, dtype=bool)
_TOKEN_BYTES[np.frombuffer(b" \n-.+einfa", dtype=np.uint8)] = True
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# the loader's candidates D / 10^frac: 10^k is exact in long double up to
# 10^27 (up to 10^22 where long double is a double)
_POW10_LD = np.cumprod(np.full(_FIELD + 1, 10, dtype=np.longdouble)) / 10
# Dekker's splitter: v _SPLITTER splits a double v into halves of at most
# 26 significant bits each, whose products are exact
_SPLITTER = 2.0 ** 27 + 1


def _power_tables() -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of 10^0 .. 10^22, each power exact as a double, into
    read-only halves: 10^k = _POW10_HI[k] + _POW10_LO[k] exactly."""
    power = np.array([float(10**k) for k in range(23)])
    c = power * _SPLITTER
    hi = c - (c - power)
    tables = hi, power - hi
    for table in tables:
        table.flags.writeable = False
    return tables


_POW10_HI, _POW10_LO = _power_tables()


def _format_tables() -> tuple[np.ndarray, ...]:
    """The formatter's read-only tables, built once at import: built on first
    use in a run, they would land above its arrays and keep them resident.

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


_QUAD, _QUAD_ZEROS, _KEEP, _ROW = _format_tables()


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


def _digits_at(a, x, d, scratch):
    """d = a 10^(16 - x) rounded half to even, for 0 <= 16 - x <= 22.

    10^k is the table pair hi + lo, and a is split likewise, so Dekker's
    product gives p = fl(a 10^k) and its error e = a 10^k - p exactly.  p
    is at least 2^53 here, hence an even integer, and int64(p) +
    int64(rint(e)) rounds a 10^k as %.17g does: a tie is p +- 1/2, and
    rint's half to even keeps p.  scratch is five float rows of a's
    length, and e is summed in d's row; each step is its own ufunc, so
    nothing is fused into one rounding."""
    hi, lo, p, a_hi, a_lo = scratch
    np.subtract(16, x, out=d)
    _POW10_HI.take(d, out=hi, mode="clip")  # 0 <= k <= 22: nothing is clipped
    _POW10_LO.take(d, out=lo, mode="clip")
    np.add(hi, lo, out=p)
    p *= a
    np.multiply(a, _SPLITTER, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    # e = ((a_hi hi - p) + a_hi lo + a_lo hi) + a_lo lo, each step exact
    e = d.view(np.float64)
    np.multiply(a_hi, hi, out=e)
    e -= p
    a_hi *= lo
    e += a_hi
    hi *= a_lo
    e += hi
    a_lo *= lo
    e += a_lo
    np.rint(e, out=e)
    rounding = a_hi.view(np.int64)
    np.copyto(rounding, e, casting="unsafe")
    np.copyto(d, p, casting="unsafe")
    d += rounding


def _digit_buffers(n: int) -> tuple[np.ndarray, ...]:
    """Scratch for _decimal_digits of up to n values: five float rows, the
    rows of D and X, and a mask."""
    return np.empty((5, n)), np.empty((2, n), dtype=np.int64), np.empty(n, dtype=bool)


def _decimal_digits(a, buffers):
    """(D, X): a = D 10^(X-16) to 17 significant digits, as %.17g rounds.

    For finite a with 1e-4 <= a < 1e16, in IEEE double.  X starts as
    floor(log10 a), and D is a 10^(16-X) rounded half to even, exact from
    _digits_at.  Next to a power of ten log10 can put X one off; then D
    falls outside [10^16, 10^17), and those few values are redone with X
    moved by one.  D == 10^16 with X one high would need a double within
    5e-17 relative below a power of ten, and D == 10^17 with X right one
    within 5e-18; no double in the range lies that close.  The steps run
    in buffers (_digit_buffers of at least a's length), and D, as uint64,
    and X are rows of it."""
    floats, (d, x), off = (b[..., :a.size] for b in buffers)
    log = floats[0]
    np.log10(a, out=log)
    np.floor(log, out=log)
    np.copyto(x, log, casting="unsafe")
    _digits_at(a, x, d, floats)
    np.less(d, 10**16, out=off)
    off |= d >= 10**17
    off = np.flatnonzero(off)
    if off.size:
        x[off] += np.where(d[off] < 10**16, -1, 1)
        redone = np.empty(off.size, dtype=np.int64)
        _digits_at(a[off], x[off], redone, np.empty((5, off.size)))
        d[off] = redone
    return d.view(np.uint64), x


def _format_buffers(n: int) -> tuple[np.ndarray, ...]:
    """One export worker's scratch for chunks of up to n rows: the values,
    the mask keys, _decimal_digits' buffers, the ASCII digit groups, the
    row bytes (set to _ROW here, so only the digits and the accepted flag
    change per chunk) and their keep mask, ~1.1 MB at 2^11 rows."""
    quads = np.empty((3 * n, 6), dtype=np.uint32)
    quads[:, 0] = _QUAD[0]
    rows = np.empty((n, 3 * _SLOT), dtype=np.uint8)
    rows[:] = _ROW
    return (np.empty((n, 3)), np.empty(3 * n, dtype=np.int64), _digit_buffers(3 * n), quads,
            rows, np.empty(rows.shape, dtype=bool))


def _format_rows(x_a, p_a, accepted, x_b, buffers) -> bytes:
    """The bytes of _ROW_FORMAT % row for each row of the four columns.

    Floats with 1e-4 <= |v| < 1e16 are printed from _decimal_digits; a row
    holding any other value (a zero, a subnormal, inf, nan, or a value %g
    prints with an exponent) is formatted by % and spliced in in order.
    The steps run in buffers, _format_buffers of at least the rows."""
    n = len(x_a)
    values, key, digit_buffers, quads, rows, keep = buffers
    a, key, quads, rows, keep = values[:n], key[:3 * n], quads[:3 * n], rows[:n], keep[:n]
    a[:, 0], a[:, 1], a[:, 2] = x_a, p_a, x_b
    a = a.reshape(-1)
    sign = np.signbit(a)
    np.abs(a, out=a)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    d, x = _decimal_digits(a, digit_buffers)
    hi = d // 10**8
    lo = (d - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    # D as one leading digit and four groups of four, each group one uint32
    # of ASCII digits; the leading "0000" makes the row "0000" + D
    top, mid = np.divmod(hi, 10**4)
    groups = (top // 10**4, top % 10**4, mid, *np.divmod(lo, 10**4))
    for col, g in enumerate(groups, 1):
        _QUAD.take(g, out=quads[:, col], mode="clip")  # g < 10^4: nothing is clipped
    # trailing zeros of D, group by group from the right (d0 is not 0)
    zeros = _QUAD_ZEROS[groups[4]]
    for i, g in enumerate(groups[3:0:-1], 1):
        more = np.flatnonzero(zeros == 4 * i)
        zeros[more] += _QUAD_ZEROS[g[more]]
    # key ((slot 2 + sign) 21 + X + 4) 18 + 17 - zeros
    np.multiply(x, 18, out=key)
    key.reshape(n, 3)[:] += [89, 845, 1601]
    np.add(key, 378, out=key, where=sign)
    key -= zeros
    rows.reshape(3 * n, _SLOT)[:, 1:43:2] = quads.view(np.uint8)[:, 3:]
    np.add(accepted.view(np.uint8), ord("0"), out=rows[:, _SLOT + 44])
    _KEEP.take(key, axis=0, out=keep.reshape(3 * n, _SLOT), mode="clip")
    # np.compress makes an index per kept byte: _COMPRESS rows at a time
    # keep it at ~130 KB
    step = _COMPRESS * 3 * _SLOT
    keep, rows = keep.reshape(-1), rows.reshape(-1)
    text = b"".join([np.compress(keep[i:i + step], rows[i:i + step])
                     for i in range(0, keep.size, step)])
    if fast.all():
        return text
    # not np.unique: its first call left an allocation at the top of the
    # heap, which kept ~32 MB of freed records resident after an export
    slow = np.flatnonzero(~fast.reshape(n, 3).all(axis=1))
    lengths = np.count_nonzero(keep.reshape(n, 3 * _SLOT), axis=1)
    ends = lengths.cumsum()
    parts, done = [], 0
    for i in slow:
        parts.append(text[done:ends[i] - lengths[i]])
        parts.append((_ROW_FORMAT % (float(x_a[i]), float(p_a[i]), int(accepted[i]),
                                     float(x_b[i]))).encode())
        done = ends[i]
    parts.append(text[done:])
    return b"".join(parts)


def _open(path, mode: str):
    """path opened in binary mode, as a gzip stream (level 1) if it ends in .gz."""
    return gzip.open(path, mode, compresslevel=1) if str(path).endswith(".gz") else open(path, mode)


def export_records(records: ExperimentRecords, path: str) -> None:
    """Write records as columnar text; a path ending in .gz gzips the stream.

    The format is two header lines, "# columns=x_a p_a accepted x_b" and
    "# n_samples=<rows>", then one line per round: x_a, p_a, accepted (0 or
    1) and x_b, separated by single spaces, floats at %.17g so they read
    back bit for bit.  The bytes are those of "%.17g" % v: values with
    1e-4 <= |v| < 1e16 are printed from their exact decimal digits in
    NumPy, and a row holding any other value is formatted by % itself.
    Chunks of _IO_CHUNK rows are formatted on the pool's threads, up to
    two, each with its buffers, and the calling thread writes them in order
    _IO_WINDOW chunks at a time, so memory stays bounded.  gzip runs at
    level 1 (_open), which writes ~2.7x faster than the default level 9
    for a ~7% larger file; the decompressed text is the same at any
    level.
    """
    n = len(records)
    starts = range(0, n, _IO_CHUNK)
    buffers = [_format_buffers(min(n, _IO_CHUNK)) for _ in range(worker_count(len(starts)))]

    def format_chunk(lo, chunk_buffers):
        rows = slice(lo, lo + _IO_CHUNK)
        return _format_rows(records.x_a[rows], records.p_a[rows], records.accepted[rows],
                            records.x_b[rows], chunk_buffers)

    with _open(path, "wb") as fh:
        fh.write(b"%s%s%d\n" % (_HEADER, _COUNT, n))
        for text in ordered(starts, format_chunk, buffers, _IO_WINDOW):
            fh.write(text)


def _field_masks() -> np.ndarray:
    """The reader's word masks: row z (_FIELD + 1) + p keeps the low nibble
    of each byte of a _FIELD-byte field but its first z bytes and its byte
    p (p = _FIELD: none), as _FIELD // 8 little-endian uint64 words."""
    j = np.arange(_FIELD)
    z = np.arange(_FIELD + 1)[:, None, None]
    p = np.arange(_FIELD + 1)[None, :, None]
    keep = np.where((j >= z) & (j != p), 0x0F, 0).astype(np.uint8)
    masks = keep.view("<u8").reshape(-1, _FIELD // 8)
    masks.flags.writeable = False
    return masks


_FIELD_MASKS = _field_masks()


def _field_digits(field, key):
    """The digits of each field as one integer, and whether it is exact.

    field holds _FIELD bytes of text per token, the token right-aligned;
    the bytes that are not digits, its first skip bytes and the byte at
    point (a "." or nothing), are dropped by the mask of row
    key = skip (_FIELD + 1) + point of _FIELD_MASKS.  Three 8-byte words of
    ASCII digits are each summed in three multiply-shift steps: lane i of
    8, 16 and then 32 bits gets 10, 100 and then 10^4 times itself plus
    lane i + 1, which never carries.  The words are weighted by 10^16 and
    10^8; the sum is exact for a top word below 100, and is then below
    1.01e18.  field is overwritten."""
    v = field.view("<u8")
    for word in range(_FIELD // 8):
        v[:, word] &= _FIELD_MASKS[:, word].take(key)
    v *= 10 << 8 | 1
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 100 << 16 | 1
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 10000 << 32 | 1
    v >>= 32
    n = v[:, 0] * 10**16
    n += v[:, 1] * 10**8
    n += v[:, 2]
    return n, v[:, 0] < 100


def _tokens(block, room):
    """The layout of the lines of block, or None if it is not the export's.

    Each line must be four tokens, three single spaces and a newline, the
    third token a lone 0 or 1, and at most room lines.  Returns the
    accepted digits and, for the three float tokens of each line in
    order, their (start, end) in block, sign, digits after the point (-1:
    no point), and whether the exact path may read them: digits with a
    leading "-" and at most one "." between digits.  Tokens with a "+" or
    a letter are left to np.loadtxt.  Arrays are dropped as soon as they
    are used, so two workers' blocks fit load_records' memory bound."""
    marks = np.flatnonzero(block < 48)
    kind = block.take(marks)
    at_sep = np.flatnonzero(kind <= 32)
    seps = marks.take(at_sep)
    rows = seps.size // 4
    if seps.size != 4 * rows or rows > room \
            or not (kind.take(at_sep).reshape(rows, 4) == _LINE_SEPS).all():
        return None
    starts = np.empty_like(seps)
    starts[0] = 0
    np.add(seps[:-1], 1, out=starts[1:])
    lengths = seps - starts
    flag = block.take(starts[2::4])
    if lengths.min() < 1 or not ((lengths[2::4] == 1).all()
                                 and ((flag == 48) | (flag == 49)).all()):
        return None
    del lengths

    # between two separators in marks lie the "-", "." and "+" of a token
    at_special = np.flatnonzero(kind > 32)
    byte = kind.take(at_special)
    del kind
    if not _TOKEN_BYTES.take(byte).all():
        return None
    at_dot = np.flatnonzero(byte == 46)
    del byte
    dots = at_special.take(at_dot)
    del at_special
    dot_at = marks.take(dots)
    del marks
    dots -= at_dot
    del at_dot
    sign = block.take(starts) == 45
    has_dot = np.zeros(seps.size, dtype=bool)
    has_dot[dots] = True
    # a token's marks are its leading "-" and its one "." or nothing else
    count = np.diff(at_sep, prepend=-1)
    del at_sep
    count -= 1
    count -= sign
    fast = count == has_dot
    del count, has_dot
    frac = np.full(seps.size, -1)
    point = seps.take(dots)
    point -= dot_at
    point -= 1
    frac[dots] = point
    del point
    # with a digit on both sides of the point
    fast[dots[(block.take(dot_at - 1) - 48 > 9) | (block.take(dot_at + 1) - 48 > 9)]] = False
    del dots, dot_at
    if block.max() > 57:
        letters = np.flatnonzero(block > 57)
        if not _TOKEN_BYTES.take(block.take(letters)).all():
            return None
        fast[np.searchsorted(seps, letters)] = False
    floats = (slice(None), [0, 1, 3])
    return (flag, *(a.reshape(rows, 4)[floats].ravel() for a in (starts, seps, sign, frac, fast)))


def _token_digits(text, pad, starts, ends, sign, frac):
    """(D, digits after the point, exact) for each token of text[pad:].

    A token -?digits[.digits] of at most _FIELD bytes, frac digits after
    its point (-1: no point), is read from the _FIELD bytes up to its end:
    D is the integer its digits spell, exact when it is below 10^17, that
    is when the token has at most 17 significant digits."""
    key = _FIELD - (ends - starts)
    short = key >= 0
    key += sign
    np.clip(key, 0, _FIELD, out=key)
    key *= _FIELD + 1
    # no point (frac = -1) puts the point byte at _FIELD: no byte is dropped
    key += np.maximum(_FIELD - 1 - frac, 0)
    window = np.lib.stride_tricks.sliding_window_view(text, _FIELD)
    n, exact = _field_digits(window[pad + ends - _FIELD], key)
    del key
    exact &= short
    # n is the integer part times 10^(frac + 1) plus the fraction
    digits, part = np.divmod(n, _POW10.take(np.minimum(frac + 1, 19)))
    del n
    digits *= _POW10.take(np.clip(frac, 0, 18))
    digits += part
    exact &= digits < 10**17
    # an unproven token's point only needs to stay in range
    return digits, np.clip(frac, 0, _FIELD), exact


def _exact_values(text, pad, starts, ends, sign, frac, fast, value, digit_buffers):
    """Write each token's value into value; return where it is proven.

    The candidate for a token's exact digits D and point is D / 10^frac in
    long double, rounded to a double.  It is proven when _decimal_digits
    of the candidate, the exporter's exact 17 digits, are D scaled to 17
    digits with the token's exponent: every double's 17-digit decimal reads
    back to that double, so strtod, and np.loadtxt, give the candidate.
    Other values are left unproven.  digit_buffers are _decimal_digits'
    buffers, replaced by larger ones when they are too small; D and 10^frac
    in long double fill the start of their float rows, which
    _decimal_digits only uses after the candidates are made."""
    if value.size > digit_buffers[-1].size:
        digit_buffers = _digit_buffers(value.size)
    digits, frac, exact = _token_digits(text, pad, starts, ends, sign, frac)
    wide = digit_buffers[0].reshape(-1).view(np.uint8)[:2 * value.size * _POW10_LD.itemsize]
    wide, power = wide.view(np.longdouble).reshape(2, -1)
    np.copyto(wide, digits)
    _POW10_LD.take(frac, out=power, mode="clip")  # frac is clipped already
    np.divide(wide, power, out=value, casting="unsafe")
    fast = fast & exact & (value >= 1e-4) & (value < 1e16)
    shown, exp10 = _decimal_digits(np.where(fast, value, 1.0), digit_buffers)
    # D has n = exp10 + 1 + frac significant digits; D 10^(17 - n) == shown
    # also rules out more, as shown < 10^17
    n = exp10 + 1 + frac
    fast &= (n >= 1) & (n <= 17)
    n = np.where(fast, n, 17)
    fast &= (digits < _POW10.take(n)) & (shown == digits * _POW10.take(17 - n))
    np.copysign(value, 0.5 - sign, out=value)
    return fast


def _parse_block(text, pad, out, acc, digit_buffers):
    """Parse the whole lines in text, one row per line, into out and acc.

    text holds pad bytes then the lines; out is the (room, 3) float rows
    and acc the bool column left to fill.  Returns the number of lines,
    the flat indices into out of the tokens left unproven and their
    (start, end) in the lines, or None if the lines are not laid out as
    export_records writes them."""
    tokens = _tokens(text[pad:], out.shape[0])
    if tokens is None:
        return None
    flag, starts, ends, sign, frac, fast = tokens
    rows = flag.size
    np.equal(flag, 49, out=acc[:rows])
    fast = _exact_values(text, pad, starts, ends, sign, frac, fast,
                         out[:rows].reshape(-1), digit_buffers)
    unproven = np.flatnonzero(~fast)
    return rows, unproven, starts[unproven], ends[unproven]


def _read_buffers() -> tuple[bytearray, np.ndarray, tuple[np.ndarray, ...]]:
    """One reader worker's buffers: a block of _READ_BLOCK bytes after
    _FIELD bytes of pad, a mask of the block's newlines, and
    _decimal_digits' buffers for the tokens of a block of lines of 56 bytes
    or more (an export line of values with 17 significant digits takes at
    least 59)."""
    buf = bytearray(_FIELD + _READ_BLOCK)
    digit_buffers = _digit_buffers(3 * (_READ_BLOCK // 56))
    # the newline mask is the start of the float rows (5 (3 / 56) 8 bytes
    # per block byte), which a worker only uses once it has counted lines
    return buf, digit_buffers[0].reshape(-1).view(bool)[:_READ_BLOCK], digit_buffers


def _read_exact(path):
    """Records of a file laid out as export_records writes it.

    The blocks of whole lines are parsed on the pool's threads, up to two,
    into a preallocated (n, 3) float array and a bool column.  Under one
    lock a worker reads its block after the previous block's partial last
    line, and counts its lines to get its first row; it parses outside the
    lock.  Tokens the exact check leaves unproven are read by np.loadtxt at
    the end, all in one call.  Raises ValueError when the layout is not the
    export's."""
    with _open(path, "rb") as fh:
        if fh.readline(64) != _HEADER:
            raise ValueError("no export header")
        line = fh.readline(64)
        count = line[len(_COUNT):-1]
        if not (line.startswith(_COUNT) and line.endswith(b"\n") and count.isdigit()
                and int(count) > 0):
            raise ValueError("no row count")
        n = int(count)
        out = np.empty((n, 3))
        acc = np.empty(n, dtype=bool)
        lock = threading.Lock()
        carry, rows_read, ended = b"", 0, False

        def read_block(buf, newlines):
            # read the next block into buf: the end of its whole lines, its
            # first row and its line count, counted in the mask newlines
            # (~6x as fast as bytearray.count); the lock is held
            nonlocal carry, rows_read, ended
            view = memoryview(buf)
            buf[_FIELD:_FIELD + len(carry)] = carry
            end = _FIELD + len(carry)
            got = fh.readinto(view[end:])
            end += got
            if got == 0:
                ended = True
                if carry:
                    raise ValueError("no newline at the end")
            last = buf.rfind(b"\n", _FIELD, end) + 1
            if last == 0 and end == len(buf):
                raise ValueError("a line longer than a block")
            last = max(last, _FIELD)
            carry = bytes(view[last:end])
            first = rows_read
            lines = newlines[:last - _FIELD]
            np.equal(np.frombuffer(buf, dtype=np.uint8, count=last)[_FIELD:], 10, out=lines)
            rows_read += np.count_nonzero(lines)
            if rows_read > n:
                raise ValueError("more lines than n_samples")
            return last, first, rows_read - first

        def parse(_, buffers):
            buf, newlines, digit_buffers = buffers
            with lock:
                last, first, rows = read_block(buf, newlines)
            if not rows:
                return []
            text = np.frombuffer(buf, dtype=np.uint8, count=last)
            parsed = _parse_block(text, _FIELD, out[first:first + rows], acc[first:first + rows],
                                  digit_buffers)
            if parsed is None or parsed[0] != rows:
                raise ValueError("not the export's layout")
            _, unproven, starts, ends = parsed
            return [(3 * first + i, buf[_FIELD + lo:_FIELD + hi])
                    for i, lo, hi in zip(unproven.tolist(), starts.tolist(), ends.tolist())]

        # one task per block, until a read finds the end of the file
        blocks = iter(lambda: ended, True)
        buffers = [_read_buffers() for _ in range(worker_count(n))]
        tokens = sorted(chain.from_iterable(ordered(blocks, parse, buffers)))
        if rows_read != n:
            raise ValueError("fewer lines than n_samples")
    if tokens:
        slow, text = zip(*tokens)
        out.reshape(-1)[list(slow)] = np.loadtxt([t.decode() for t in text], ndmin=1)
    return ExperimentRecords(x_a=out[:, 0], p_a=out[:, 1], accepted=acc, x_b=out[:, 2])


def load_records(path: str) -> ExperimentRecords:
    """Read a columnar record file written by export_records.

    Blank lines and "#" comments are skipped.  A line without exactly four
    numeric fields, an accepted field other than 0 or 1, or a file without
    records raises DomainError.

    A file laid out as export_records writes it is read by an exact NumPy
    parser, on up to two threads: its two header lines, then n_samples
    lines of four tokens split by single spaces, each ending in a newline,
    accepted a lone 0 or 1.  A token -?digits[.digits] with at most 17 significant digits D and
    frac digits after the point gives the candidate D / 10^frac, computed
    in long double.  It is kept only when its 17 digits, as export_records
    computes them, equal the token's; every double's 17-digit decimal
    reads back to itself, so the candidate is what np.loadtxt returns.
    np.loadtxt reads every other value (zeros, exponent forms, inf, nan, a
    candidate the check rejects), and any other layout or any error sends
    the whole file through np.loadtxt: values and errors are np.loadtxt's.
    """
    # any failure of the exact reader (a missing file, a corrupt gzip
    # stream, a token np.loadtxt rejects) is met again, and reported with
    # its usual message, by the np.loadtxt read below
    try:
        return _read_exact(path)
    except Exception:
        pass
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
