"""Sparse parity-check codes: progressive-edge-growth construction and
alist interchange.

LdpcCode stores the bipartite graph as parallel edge lists sorted by check
(the canonical edge order).  For message passing it also lays the edges
out in slot order (SlotLayout): checks ranked by descending degree, with
column j holding the j-th edge of every check that has one, so a per-check
fold is one ufunc call per column over contiguous slices; variables get
the same layout, and two index maps lead from one side's slots to the
other's.

Construction follows progressive-edge-growth reduced to what scales: each
new edge avoids the variable's distance-2 neighbourhood, so the graph has
no 4-cycles but no longer cycles are kept out.  Edges take the checks of
the lowest degree level in one sorted order unless a conflict intervenes,
so the build sorts once per level, assigns runs of edges from that order
at once and finds each run's first conflict in NumPy; only a conflicting
edge walks the check order one check at a time.
"""

from __future__ import annotations

import bisect
import functools
import gzip
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True)
class LdpcCode:
    """Bipartite parity-check graph of n variables and m checks.

    edge_var/edge_chk list the endpoints of every edge sorted by check then
    variable; check c owns edges check_ptr[c]:check_ptr[c + 1].
    """

    n: int
    m: int
    edge_var: np.ndarray
    edge_chk: np.ndarray
    check_ptr: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.edge_var.size

    @property
    def rate(self) -> float:
        return (self.n - self.m) / self.n

    @property
    def var_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_var, minlength=self.n)

    @property
    def check_degrees(self) -> np.ndarray:
        return np.diff(self.check_ptr)

    @functools.cached_property
    def slots(self) -> "SlotLayout":
        """The edges in slot order, built on first use."""
        return SlotLayout.of(self)

    def syndrome(self, bits) -> np.ndarray:
        """Parity of each check over the given bit vector."""
        bits = np.asarray(bits)
        if bits.shape != (self.n,):
            raise DomainError(f"bits must have shape ({self.n},), got {bits.shape}")
        # each check slot's bit, folded per check as BP folds its hard
        # decisions; the low bit of an XOR is the parity of the operands' low bits
        lay = self.slots
        bits = bits.astype(np.uint8, copy=False)
        out = np.empty(self.m, dtype=np.uint8)
        out[lay.chk_order] = fold_columns(np.bitwise_xor, bits[lay.var_order][lay.sv],
                                          lay.chk_cols)
        return out & 1

    @classmethod
    def _from_var_major(cls, n: int, m: int, degs, var_chks) -> "LdpcCode":
        """Build from every variable's checks laid end to end in variable
        order (degs of them each), validating the graph."""
        if n < 1 or m < 1 or m >= n:
            raise DomainError(f"need 1 <= m < n, got n={n} m={m}")
        if (degs < 2).any():
            bad = int(np.argmin(degs))
            raise DomainError(f"variable {bad} has degree {degs[bad]}; minimum is 2")
        # intp edge arrays index without a conversion on every gather
        edge_var = np.repeat(np.arange(n, dtype=np.intp), degs)
        edge_chk = var_chks.astype(np.intp)
        if edge_chk.min() < 0 or edge_chk.max() >= m:
            raise DomainError("check index out of range")
        pairs = edge_chk.astype(np.int64) * n + edge_var
        # twins are equal in both endpoints, so their order is immaterial
        # and the sort need not be stable
        order = np.argsort(pairs)
        pairs = pairs[order]
        # a repeated edge sorts next to its twin
        if (pairs[1:] == pairs[:-1]).any():
            raise DomainError("duplicate edge in adjacency")
        del pairs  # before the gathers, to keep the peak of the build low
        edge_var = edge_var[order]
        edge_chk = edge_chk[order]
        chk_deg = np.bincount(edge_chk, minlength=m)
        if (chk_deg < 1).any():
            raise DomainError("every check must have at least one edge")
        check_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(chk_deg, out=check_ptr[1:])
        for arr in (edge_var, edge_chk, check_ptr):
            arr.flags.writeable = False
        return cls(n=n, m=m, edge_var=edge_var, edge_chk=edge_chk,
                   check_ptr=check_ptr)


def fold_columns(ufunc, values, cols, out=None) -> np.ndarray:
    """ufunc folded across the column slices of values, first column first.

    Entry r of the result combines entry r of every column long enough to
    have one; the first column is the longest, and the result has its
    length.  The fold runs in out, whose dtype it keeps, or in a new array
    of values' dtype."""
    if out is None:
        out = np.empty(cols[0].stop - cols[0].start, dtype=values.dtype)
    np.copyto(out, values[cols[0]])
    for col in cols[1:]:
        head = out[:col.stop - col.start]
        ufunc(head, values[col], out=head)
    return out


def _columns(deg):
    """Indices by descending degree (ties by index), and the slices of the
    degree columns laid end to end: column j has one entry for each of the
    first ranks whose degree exceeds j, so the columns never grow."""
    order = np.argsort(-deg, kind="stable")
    ends = np.cumsum(deg.size - np.cumsum(np.bincount(deg))[:-1]).tolist()
    return order, tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))


@dataclass(frozen=True)
class SlotLayout:
    """The edges of a code laid out twice, as belief propagation reads them.

    Check slots: checks by descending degree (chk_order gives the check of
    each rank), and chk_cols[j] the slice of slots holding the j-th edge, in
    canonical order, of every check whose degree exceeds j, in rank order.
    Variable slots are laid out the same way over var_order, each variable's
    edges in canonical (check) order.  sv gives the variable rank behind
    each check slot, c2v the check slot behind each variable slot.
    """

    chk_order: np.ndarray
    chk_cols: tuple
    var_order: np.ndarray
    var_cols: tuple
    sv: np.ndarray
    c2v: np.ndarray

    @classmethod
    def of(cls, code: LdpcCode) -> "SlotLayout":
        chk_order, chk_cols = _columns(code.check_degrees)
        var_degrees = code.var_degrees
        var_order, var_cols = _columns(var_degrees)
        var_rank = np.empty(code.n, dtype=np.intp)
        var_rank[var_order] = np.arange(code.n)
        # the check slot of every canonical edge, and sv, one column at a time
        slot = np.empty(code.n_edges, dtype=np.intp)
        sv = np.empty(code.n_edges, dtype=np.intp)
        first = code.check_ptr[:-1][chk_order]
        for j, col in enumerate(chk_cols):
            edges = first[:col.stop - col.start] + j
            slot[edges] = np.arange(col.start, col.stop)
            sv[col] = var_rank[code.edge_var[edges]]
        # the canonical order is check-major, so a stable sort by variable
        # keeps each variable's edges in check order; then their check slots
        by_var = slot[np.argsort(code.edge_var, kind="stable")]
        del slot  # before c2v, to keep the peak of the build low
        first = (np.cumsum(var_degrees) - var_degrees)[var_order]
        c2v = np.empty(code.n_edges, dtype=np.intp)
        for j, col in enumerate(var_cols):
            c2v[col] = by_var[first[:col.stop - col.start] + j]
        # read-only views of writeable arrays: np.take copies a read-only
        # index array on every call, so decode_syndrome gathers through the
        # views' bases
        views = [arr.view() for arr in (chk_order, var_order, sv, c2v)]
        for view in views:
            view.flags.writeable = False
        chk_order, var_order, sv, c2v = views
        return cls(chk_order, chk_cols, var_order, var_cols, sv, c2v)


def _degree_sequence(n: int, profile: dict) -> np.ndarray:
    """Per-variable degrees from a node-fraction profile, largest remainder."""
    if not profile:
        raise DomainError("empty degree profile")
    degs = sorted(profile)
    fracs = np.array([profile[d] for d in degs], dtype=float)
    if (fracs <= 0).any() or abs(fracs.sum() - 1.0) > 1e-9 or min(degs) < 2:
        raise DomainError("profile fractions must be positive, sum to 1, degrees >= 2")
    counts = np.floor(fracs * n).astype(int)
    remainder = fracs * n - counts
    for i in np.argsort(-remainder)[: n - counts.sum()]:
        counts[i] += 1
    return np.repeat(np.array(degs, dtype=np.int32), counts)


class _CheckQueue:
    """Checks in (degree, key, index) order, the order the edges take them.

    The checks of the open level d sit in one array sorted by (key, index),
    level[at:].  A check taken from it moves to degree d + 1 and waits
    unsorted: the next level is sorted once, when this one closes.  The
    other checks of degree <= d, the ones skipped for a conflict and the
    stragglers of a closed level, wait in a short sorted list of packed
    (degree << 44) | (key << 24) | index ints, which merges with the level.
    """

    def __init__(self, key):
        self.key = key
        self.deg = np.zeros(key.size, dtype=np.int64)
        self.d = -1
        self.level = np.empty(0, dtype=np.int64)
        self.at = 0
        self.waiting = []

    def _close(self) -> bool:
        """Open the lowest level above d; False if no check is above d."""
        above = self.deg[self.deg > self.d]
        if not above.size:
            return False
        self.d = int(above.min())
        cs = np.flatnonzero(self.deg == self.d)
        self.level = np.sort((self.key[cs] << 24) | cs)
        self.at = 0
        return True

    def run(self, limit: int) -> np.ndarray:
        """The next checks in order, up to limit, while they all come from
        the level: none if a waiting check is due first."""
        if self.waiting:
            return self.level[:0]
        if self.at == self.level.size:
            self._close()  # every check is above d, as none waits
        return self.level[self.at:self.at + limit] & 0xFFFFFF

    def take(self, cs, keys):
        """Move the first cs.size checks of the level up one degree."""
        self.deg[cs] += 1
        self.key[cs] = keys
        self.at += cs.size

    def first(self, blocked):
        """The first check in order that is not blocked, or None if every
        check is; the blocked ones keep their places."""
        waiting = self.waiting
        i = 0
        while True:
            head = None
            if self.at < self.level.size:
                head = (self.d << 44) | int(self.level[self.at])
            if i < len(waiting) and (head is None or waiting[i] < head):
                packed = waiting[i]
            elif head is not None:
                # the level's head leaves the level: it waits unless taken
                packed = head
                self.at += 1
                waiting.insert(i, packed)
            elif self._close():
                continue
            else:
                return None
            if not blocked(packed & 0xFFFFFF):
                return packed & 0xFFFFFF
            i += 1

    def advance(self, c: int, key: int):
        """Move check c up one degree with a new key."""
        d = int(self.deg[c])
        packed = (d << 44) | (int(self.key[c]) << 24) | c
        i = bisect.bisect_left(self.waiting, packed)
        if i < len(self.waiting) and self.waiting[i] == packed:
            del self.waiting[i]
        elif d == self.d:
            # only the fallback takes a check from inside the level; it
            # already costs a pass over every check
            self.level = np.delete(self.level, self.at + np.searchsorted(
                self.level[self.at:], packed & ((1 << 44) - 1)))
        self.deg[c] = d + 1
        self.key[c] = key
        if d + 1 <= self.d:
            bisect.insort(self.waiting, ((d + 1) << 44) | (key << 24) | c)


def peg_construct(n: int, m: int, profile: dict, seed: int) -> LdpcCode:
    """Progressive-edge-growth construction of an irregular code.

    profile maps variable degree to node fraction, e.g. {2: 0.2, 3: 0.7,
    6: 0.1}.  Variables are placed in ascending degree order; each edge
    goes to the lowest-(degree, tiebreak) check outside the variable's
    distance-2 neighbourhood: its own checks and every check of a variable
    sharing one with it.  That excludes 4-cycles and nothing longer.  When
    the neighbourhood covers every check, the edge falls back to the
    minimum among the checks first reached at distance 2 (the variable's
    own checks if there are none).  A chosen check draws a fresh random
    tiebreak, one per edge, so the build is deterministic for a given seed.

    The order of the checks within one degree level is fixed when the level
    opens, so one sort per level gives the choices of every edge that meets
    no conflict.  Runs of edges take their checks from that order at once,
    and each run is searched in NumPy for its first conflict: an edge whose
    check, through a variable placed before it, already neighbours one of
    its variable's earlier checks, or is one of them.  The edges before it
    stand.  The conflicting edge walks the order check by check: the checks
    it skips wait first in line for the next edge, a level that runs dry
    opens the next one, and the fallback applies when no check is left.
    """
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got n={n} m={m}")
    degrees = _degree_sequence(n, profile)
    n_edges = int(degrees.sum())
    if n_edges < 2 * m:
        raise DomainError("profile leaves checks with fewer than two edges on average")
    if m >= (1 << 24):
        # the check order packs the index into 24 bits
        raise DomainError("check count exceeds the 24-bit heap packing")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # one key per check, then one fresh key per placed edge, in edge order
    queue = _CheckQueue(rng.integers(0, 1 << 20, size=m, dtype=np.int64))
    fresh = rng.integers(0, 1 << 20, size=n_edges, dtype=np.int64)

    # below, variables go by their rank in placement order, and edge e is
    # the e-th placed: rank r owns edges start[r]:start[r + 1]
    order = np.argsort(degrees, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees[order], out=start[1:])
    edge_rank = np.repeat(np.arange(n, dtype=np.int32), degrees[order])
    # each edge pairs with every earlier edge of its variable, the nearest
    # first, so the pairs of a run of edges are one slice
    earlier = np.arange(n_edges) - start[edge_rank]
    pair_ptr = np.zeros(n_edges + 1, dtype=np.int64)
    np.cumsum(earlier, out=pair_ptr[1:])
    pair_edge = np.repeat(np.arange(n_edges, dtype=np.int32), earlier)
    pair_prev = pair_edge - 1 - (np.arange(pair_ptr[-1]) - pair_ptr[pair_edge])
    del earlier

    # chk[e] is the check of edge e; rows[j, c] the rank of check c's j-th
    # variable, -1 past its degree, with one row added per new position
    chk = np.empty(n_edges, dtype=np.int32)
    rows = np.full((0, m), -1, dtype=np.int32)
    deg = queue.deg

    def place(j, cs, ranks):
        nonlocal rows
        if j == rows.shape[0]:
            rows = np.vstack((rows, np.full(m, -1, dtype=np.int32)))
        rows[j, cs] = ranks

    def place_one(e):
        """Edge e by a scan of the check order, or by the fallback."""
        r = int(edge_rank[e])
        own = chk[start[r]:e]
        # the other variables on r's checks, and every check of theirs:
        # with r's own, the checks within distance 2 of r
        adj = np.unique(rows.take(own, axis=1))
        adj = adj[(adj >= 0) & (adj != r)]
        size = start[adj + 1] - start[adj]
        edges = np.repeat(start[adj] - np.cumsum(size) + size, size) + np.arange(size.sum())
        near = np.unique(np.concatenate((chk[edges], own)))
        # when near is every check, a scan would find none
        c = queue.first(set(near.tolist()).__contains__) if near.size < m else None
        if c is None:
            if not own.size:
                raise DomainError("no placeable check; graph parameters inconsistent")
            last = np.setdiff1d(near, own, assume_unique=True)
            if not last.size:
                last = own
            c = int(last[np.argmin((deg[last] << 20) | queue.key[last])])
        place(int(deg[c]), c, r)
        chk[e] = c
        queue.advance(c, int(fresh[e]))

    width = 64
    e = 0
    while e < n_edges:
        cs = queue.run(min(width, n_edges - e))
        stop = e + cs.size
        chk[e:stop] = cs
        d = queue.d
        lo, hi = pair_ptr[e], pair_ptr[stop]
        # at level 0 no check has a variable yet, so nothing can conflict
        if d and hi > lo:
            # the pairs (a later edge's check, an earlier edge's check) of
            # one variable: a conflict when the two rows share a variable.
            # Rows as they stood before the run hold only ranks up to the
            # run's first, and a later check's row holds its own rank only
            # if the check is already its variable's, itself a conflict
            later = rows[:d].take(cs[pair_edge[lo:hi] - e], axis=1)
            prior = rows.take(chk[pair_prev[lo:hi]], axis=1)
            hit = (later[:, None] == prior[None]).any(axis=(0, 1))
            if hit.any():
                stop = int(pair_edge[lo + int(hit.argmax())])
        if stop > e:
            place(d, cs[:stop - e], edge_rank[e:stop])
            queue.take(cs[:stop - e], fresh[e:stop])
        if cs.size and stop == e + cs.size:
            width = min(2 * width, 1 << 14)
            e = stop
            continue
        # edge stop conflicts, or a waiting check is due first
        width = max(64, width // 2)
        place_one(stop)
        e = stop + 1

    # back to variable order: variable v's edges begin at start[rank of v]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    var_start = np.cumsum(degrees) - degrees
    var_chks = chk[np.repeat(start[rank] - var_start, degrees) + np.arange(n_edges)]
    return LdpcCode._from_var_major(n, m, degrees, var_chks)


def _padded(entries, degrees) -> np.ndarray:
    """Rows of the given degrees, laid end to end in entries, as the rows of
    a zero-padded matrix as wide as the largest degree."""
    width = int(degrees.max())
    out = np.zeros((degrees.size, width), dtype=entries.dtype)
    out[np.arange(width) < degrees[:, None]] = entries
    return out


def save_alist(code: LdpcCode, path: str) -> None:
    """Write the standard alist form (1-indexed, zero-padded rows)."""
    # edges are sorted by check then variable: each check's variables are
    # ascending, and a stable sort by variable keeps each variable's checks so
    by_var = code.edge_chk[np.argsort(code.edge_var, kind="stable")]
    vdeg, cdeg = code.var_degrees, code.check_degrees
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        fh.write(f"{code.n} {code.m}\n{vdeg.max()} {cdeg.max()}\n")
        for rows in (vdeg[None], cdeg[None], _padded(by_var + 1, vdeg),
                     _padded(code.edge_var + 1, cdeg)):
            np.savetxt(fh, rows, fmt="%d")


def load_alist(path: str) -> LdpcCode:
    """Read an alist file (padded or unpadded variant)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        try:
            tokens = np.array(fh.read().split(), dtype=np.int64)
        except (ValueError, OverflowError):
            raise DomainError(f"malformed alist file {path}: token not a 64-bit integer") from None
    if tokens.size < 2:
        raise DomainError(f"truncated alist file {path}")
    n, m = tokens[:2].tolist()
    if n < 1 or m < 1:
        raise DomainError(f"bad alist header n={n} m={m}")
    # tokens 2 and 3 declare the max degrees; the lists are authoritative
    if tokens.size < 4 + n + m:
        raise DomainError(f"truncated alist file {path}")
    vdeg, cdeg, body = np.split(tokens[4:], [n, n + m])
    n_edges = int(vdeg.sum())
    if n_edges != cdeg.sum():
        raise DomainError("alist degree lists disagree on edge count")
    dv, dc = int(vdeg.max()), int(cdeg.max())
    padded = body.size == n * dv + m * dc
    if not padded and body.size != 2 * n_edges:
        raise DomainError(f"alist body has {body.size} entries; expected "
                          f"{n * dv + m * dc} padded or {2 * n_edges} unpadded")
    if min(vdeg.min(), cdeg.min()) < 0:
        # no row holds a negative number of entries
        raise DomainError("alist row does not match its declared degree")
    if padded:
        var_rows, chk_rows = body[:n * dv].reshape(n, dv), body[n * dv:].reshape(m, dc)
    else:
        var_rows, chk_rows = _padded(body[:n_edges], vdeg), _padded(body[n_edges:], cdeg)
    # entries below 1 pad a row
    if ((var_rows > 0).sum(axis=1) != vdeg).any() or ((chk_rows > 0).sum(axis=1) != cdeg).any():
        raise DomainError("alist row does not match its declared degree")
    code = LdpcCode._from_var_major(n, m, vdeg, var_rows[var_rows > 0] - 1)
    # the check rows must describe the same edge set
    pair_c = np.repeat(np.arange(m, dtype=np.int64) * n, cdeg) + chk_rows[chk_rows > 0] - 1
    if not np.array_equal(code.edge_chk.astype(np.int64) * n + code.edge_var, np.sort(pair_c)):
        raise DomainError("alist variable and check adjacency disagree")
    return code
