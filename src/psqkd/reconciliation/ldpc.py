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
no 4-cycles but no longer cycles are kept out.  The minimum-degree check is
found through a lazy-deletion heap of packed (degree, tiebreak, index)
integers rather than a rescan.  Check rows live in one flat list of Python
ints, and each variable's neighbourhood is a set grown by one row per
placed edge, so an edge costs a few slices and set operations.
"""

from __future__ import annotations

import functools
import gzip
import heapq
import math
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

    def check_fold(self, ufunc, values) -> np.ndarray:
        """ufunc folded over each check's edge values, left to right in edge
        order: ufunc.reduceat(values, check_ptr[:-1]) in one pass per slot
        column rather than one call per check."""
        lay = self.slots
        first = self.check_ptr[:-1][lay.chk_order]
        acc = values[first]
        for j, col in enumerate(lay.chk_cols[1:], 1):
            head = acc[:col.stop - col.start]
            ufunc(head, values[first[:head.size] + j], out=head)
        out = np.empty_like(acc)
        out[lay.chk_order] = acc
        return out

    def syndrome(self, bits) -> np.ndarray:
        """Parity of each check over the given bit vector."""
        bits = np.asarray(bits)
        if bits.shape != (self.n,):
            raise DomainError(f"bits must have shape ({self.n},), got {bits.shape}")
        # the low bit of an XOR is the parity of the operands' low bits
        bits = bits.astype(np.uint8, copy=False)
        return self.check_fold(np.bitwise_xor, bits[self.edge_var]) & 1

    @classmethod
    def from_adjacency(cls, n: int, m: int, var_lists) -> "LdpcCode":
        """Build from per-variable check lists, validating the graph."""
        if len(var_lists) != n:
            raise DomainError(f"expected {n} adjacency lists, got {len(var_lists)}")
        chks = [np.asarray(c, dtype=np.int32) for c in var_lists]
        return cls._from_var_major(n, m, np.array([c.size for c in chks], dtype=np.int64),
                                   np.concatenate(chks) if chks else np.empty(0, np.int32))

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
        order = np.argsort(pairs, kind="stable")
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


def fold_columns(ufunc, values, cols, dtype=None) -> np.ndarray:
    """ufunc folded across the column slices of values, first column first.

    Entry r of the result combines entry r of every column long enough to
    have one; the first column is the longest, and the result has its
    length and the given dtype (values' by default)."""
    acc = values[cols[0]].astype(dtype or values.dtype)
    for col in cols[1:]:
        head = acc[:col.stop - col.start]
        ufunc(head, values[col], out=head)
    return acc


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
        for arr in (chk_order, var_order, sv, c2v):
            arr.flags.writeable = False
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


def peg_construct(n: int, m: int, profile: dict, seed: int) -> LdpcCode:
    """Progressive-edge-growth construction of an irregular code.

    profile maps variable degree to node fraction, e.g. {2: 0.2, 3: 0.7,
    6: 0.1}.  Variables are placed in ascending degree order; each edge
    goes to the lowest-(degree, tiebreak) check outside the variable's
    distance-2 neighbourhood: its own checks and every check of a variable
    sharing one with it.  That excludes 4-cycles and nothing longer.  When
    the neighbourhood covers every check, the edge falls back to the
    minimum among the checks first reached at distance 2 (the variable's
    own checks if there are none).  Candidates come from a lazy-deletion
    heap.  Deterministic for a given seed (ties broken by pre-drawn random
    keys).

    The check rows are slices of one flat list of m * width Python ints,
    width doubling when a row fills; a variable's neighbourhood is built
    once and grows by the chosen check's row after each of its edges, as
    nothing else is placed in between.
    """
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got n={n} m={m}")
    degrees = _degree_sequence(n, profile)
    n_edges = int(degrees.sum())
    if n_edges < 2 * m:
        raise DomainError("profile leaves checks with fewer than two edges on average")
    if m >= (1 << 24):
        raise DomainError("check count exceeds the 24-bit heap packing")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # one key per check, then one fresh key per placed edge, in edge order
    tiebreak = memoryview(rng.integers(0, 1 << 20, size=m, dtype=np.int64))
    fresh = iter(memoryview(rng.integers(0, 1 << 20, size=n_edges, dtype=np.int64)))

    # heap entries pack (degree << 44) | (tiebreak << 24) | check; an entry
    # is stale once the check's degree moved on, and each degree change
    # enters a fresh entry, so exactly one live entry exists per check and
    # no two entries are equal
    heap = [(t << 24) | c for c, t in enumerate(tiebreak)]
    heapq.heapify(heap)

    # variable v's checks fill var_chks[start[v]:start[v + 1]] in placement
    # order; check c's variables fill rows[c * width:c * width + chk_deg[c]],
    # one flat list of Python ints, so a row is read by one slice
    start = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64))).tolist()
    var_chks = np.empty(n_edges, dtype=np.int32)
    var_mv = memoryview(var_chks)
    width = max(4, int(math.ceil(n_edges / m)) + 4)
    rows = [0] * (m * width)
    chk_deg = [0] * m

    for v in np.argsort(degrees, kind="stable").tolist():
        # adj holds the variables sharing a check with v, v included: a
        # check is within distance 2 of v exactly when its row meets adj,
        # which also rules out v's own checks
        adj = set()
        for pos in range(start[v], start[v + 1]):
            stash = []
            while heap:
                packed = heap[0]
                c = packed & 0xFFFFFF
                d = chk_deg[c]
                if packed >> 44 != d:
                    heapq.heappop(heap)  # stale entry
                elif adj.isdisjoint(rows[c * width:c * width + d]):
                    break
                else:
                    stash.append(heapq.heappop(heap))
            else:
                own = var_mv[start[v]:pos].tolist()
                if not own:
                    raise DomainError("no placeable check; graph parameters inconsistent")
                # every other variable in adj is placed in full
                near = set().union(*(var_mv[start[u]:start[u + 1]] for u in adj if u != v))
                last = sorted(near.difference(own)) or own
                c = min(last, key=lambda c: (chk_deg[c] << 20) | tiebreak[c])
                d = chk_deg[c]
            t = next(fresh)
            tiebreak[c] = t
            # the chosen check's live entry is on top, unless the heap ran
            # dry; the keys are unique, so the order of later pops depends
            # only on which keys the heap holds
            if heap:
                heapq.heapreplace(heap, ((d + 1) << 44) | (t << 24) | c)
            else:
                heapq.heappush(heap, ((d + 1) << 44) | (t << 24) | c)
            for packed in stash:
                heapq.heappush(heap, packed)
            if d >= width:
                grown = [0] * (2 * m * width)
                for r in range(m):
                    grown[2 * r * width:(2 * r + 1) * width] = rows[r * width:(r + 1) * width]
                rows = grown
                width *= 2
            row = c * width
            rows[row + d] = v
            chk_deg[c] = d + 1
            var_mv[pos] = c
            adj.update(rows[row:row + d + 1])

    return LdpcCode._from_var_major(n, m, degrees, var_chks)


def save_alist(code: LdpcCode, path: str) -> None:
    """Write the standard alist form (1-indexed, zero-padded rows)."""
    # edges are sorted by check then variable: each check's variables are
    # ascending, and a stable sort by variable keeps each variable's checks so
    by_var = code.edge_chk[np.argsort(code.edge_var, kind="stable")]
    vlists = np.split(by_var, np.cumsum(code.var_degrees)[:-1])
    clists = np.split(code.edge_var, code.check_ptr[1:-1])
    dv = max(len(x) for x in vlists)
    dc = max(len(x) for x in clists)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        fh.write(f"{code.n} {code.m}\n{dv} {dc}\n")
        fh.write(" ".join(str(len(x)) for x in vlists) + "\n")
        fh.write(" ".join(str(len(x)) for x in clists) + "\n")
        for lst in vlists:
            row = [str(int(c) + 1) for c in lst] + ["0"] * (dv - len(lst))
            fh.write(" ".join(row) + "\n")
        for lst in clists:
            row = [str(int(v) + 1) for v in lst] + ["0"] * (dc - len(lst))
            fh.write(" ".join(row) + "\n")


def load_alist(path: str) -> LdpcCode:
    """Read an alist file (padded or unpadded variant)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        tokens = fh.read().split()
    it = iter(tokens)

    def take(count):
        out = []
        try:
            for _ in range(count):
                out.append(int(next(it)))
        except StopIteration:
            raise DomainError(f"truncated alist file {path}") from None
        return out

    n, m = take(2)
    if n < 1 or m < 1:
        raise DomainError(f"bad alist header n={n} m={m}")
    take(2)  # declared max degrees; actual lists are authoritative
    vdeg = take(n)
    cdeg = take(m)
    n_edges = sum(vdeg)
    if n_edges != sum(cdeg):
        raise DomainError("alist degree lists disagree on edge count")
    rest = np.array([int(t) for t in it], dtype=np.int64)
    dv = max(vdeg)
    dc = max(cdeg)
    if rest.size == n * dv + m * dc:
        padded = True
    elif rest.size == 2 * n_edges:
        padded = False
    else:
        raise DomainError(f"alist body has {rest.size} entries; expected "
                          f"{n * dv + m * dc} padded or {2 * n_edges} unpadded")

    def rows(counts, stride, start):
        pos = start
        out = []
        for want in counts:
            row = rest[pos:pos + (stride if padded else want)]
            pos += stride if padded else want
            entries = row[row > 0] - 1
            if entries.size != want:
                raise DomainError("alist row does not match its declared degree")
            out.append(entries.astype(np.int32))
        return out, pos

    var_lists, pos = rows(vdeg, dv, 0)
    chk_lists, _ = rows(cdeg, dc, pos)
    code = LdpcCode.from_adjacency(n, m, var_lists)
    # the check rows must describe the same edge set
    pair_v = np.sort(code.edge_chk.astype(np.int64) * n + code.edge_var)
    pair_c = np.sort(np.concatenate(
        [c * n + np.asarray(lst, dtype=np.int64) for c, lst in enumerate(chk_lists)]
    )) if chk_lists else np.empty(0, dtype=np.int64)
    if not np.array_equal(pair_v, pair_c):
        raise DomainError("alist variable and check adjacency disagree")
    return code
