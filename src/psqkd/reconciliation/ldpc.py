"""Sparse parity-check codes: progressive-edge-growth construction and
alist interchange.

The decoder wants edge-centric arrays, so LdpcCode stores the bipartite
graph as parallel edge lists sorted by check.  Construction follows
progressive-edge-growth with two scale concessions documented on
peg_construct: the breadth-first search that spreads a new edge away from
existing short cycles is bounded (depth and reached-set caps), and the
minimum-degree check is found through a lazy-deletion heap of packed
(degree, tiebreak, index) integers rather than a rescan.
"""

from __future__ import annotations

import gzip
import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

_REACH_CAP = 4096
_DEPTH_CAP = 8


@dataclass(frozen=True)
class LdpcCode:
    """Bipartite parity-check graph of n variables and m checks.

    edge_var/edge_chk list the endpoints of every edge sorted by check then
    variable; check_ptr gives reduceat boundaries per check.
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

    def syndrome(self, bits) -> np.ndarray:
        """Parity of each check over the given bit vector."""
        bits = np.asarray(bits)
        if bits.shape != (self.n,):
            raise DomainError(f"bits must have shape ({self.n},), got {bits.shape}")
        acc = np.bincount(self.edge_chk, weights=bits[self.edge_var].astype(float),
                          minlength=self.m)
        return (acc.astype(np.int64) & 1).astype(np.uint8)

    @classmethod
    def from_adjacency(cls, n: int, m: int, var_lists) -> "LdpcCode":
        """Build from per-variable check lists, validating the graph."""
        if n < 1 or m < 1 or m >= n:
            raise DomainError(f"need 1 <= m < n, got n={n} m={m}")
        if len(var_lists) != n:
            raise DomainError(f"expected {n} adjacency lists, got {len(var_lists)}")
        degs = np.array([len(c) for c in var_lists])
        if (degs < 2).any():
            bad = int(np.argmin(degs))
            raise DomainError(f"variable {bad} has degree {degs[bad]}; minimum is 2")
        edge_var = np.repeat(np.arange(n, dtype=np.int32), degs)
        edge_chk = np.concatenate([np.asarray(c, dtype=np.int32) for c in var_lists])
        if edge_chk.min() < 0 or edge_chk.max() >= m:
            raise DomainError("check index out of range")
        pairs = edge_chk.astype(np.int64) * n + edge_var
        if np.unique(pairs).size != pairs.size:
            raise DomainError("duplicate edge in adjacency")
        order = np.argsort(pairs, kind="stable")
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
    goes to the lowest-degree check outside the breadth-first neighborhood
    of the variable, which keeps short cycles out.  At this scale the
    search is bounded (_DEPTH_CAP levels, _REACH_CAP reached checks) and
    candidate checks come from a lazy-deletion heap, so the girth guarantee
    is local rather than global; cycle length 4 is still excluded outright.
    Deterministic for a given seed (ties broken by pre-drawn random keys).
    """
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
    return LdpcCode.from_adjacency(n, m, var_lists)


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
