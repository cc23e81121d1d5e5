"""Small simple graphs as bitmask adjacency rows, with graph6 I/O.

Vertices are 0..n-1 with n <= 64, so every adjacency row fits in a single
machine word and induced subgraphs are plain vertex masks.  Includes
connectivity, one BFS spanning-forest walk that tells whether every cycle
is odd and, if so, gives the component count and the long odd cycles, and
a refinement-plus-backtracking search that answers whether two small
graphs are isomorphic.  Nothing here counts automorphisms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

MAX_VERTICES = 64
ISO_DEFAULT_MAX_N = 10


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


class GraphTooLargeError(ValueError):
    """Raised when an operation is asked to exceed its supported order."""


def iter_bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges) -> Graph:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> Graph:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        return Graph(n, (0,) * n)

    # ------------------------------------------------------------------ basics

    @functools.cached_property
    def m(self) -> int:
        """Number of edges, counted on first use."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """All edges (u, v) with u < v, in lexicographic order."""
        return self._edges

    @functools.cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        """The edge list, built on first use like m."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return tuple(out)

    def relabeled(self, perm) -> Graph:
        """Relabel by perm (perm[old] = new); perm must be a permutation of 0..n-1."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        rows = [0] * self.n
        for old in range(self.n):
            row = 0
            for w in iter_bits(self.adj[old]):
                row |= 1 << perm[w]
            rows[perm[old]] = row
        return Graph(self.n, tuple(rows))


# ---------------------------------------------------------------- constructors


def path_graph(k: int) -> Graph:
    """Path on k vertices (k-1 edges)."""
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(s: int) -> Graph:
    """Star K_{1,s} on s+1 vertices, center 0."""
    if s < 0:
        raise ValueError("negative star size")
    return Graph.from_edges(s + 1, [(0, i) for i in range(1, s + 1)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def disjoint_union(parts) -> Graph:
    parts = list(parts)
    if not parts:
        raise ValueError("empty union")
    n = sum(p.n for p in parts)
    rows: list[int] = []
    off = 0
    for p in parts:
        rows.extend(row << off for row in p.adj)
        off += p.n
    return Graph(n, tuple(rows))


# -------------------------------------------------------------------- graph6


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    chars = []
    group = 0
    filled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = (group << 1) | ((col >> i) & 1)
            filled += 1
            if filled == 6:
                chars.append(chr(63 + group))
                group = 0
                filled = 0
    if filled:
        chars.append(chr(63 + (group << (6 - filled))))
    return head + "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string; raises Graph6Error on malformed input."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) for c in s]
    for c in data:
        if not 63 <= c <= 126:
            raise Graph6Error(f"malformed header or payload byte {c}")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 orders beyond 18 bits are not supported")
        if len(data) < 4:
            raise Graph6Error("malformed header: truncated extended order")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1 or n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside supported range 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated bit payload: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"unexpected trailing data: {len(body) - need} extra bytes")
    bits = 0
    for c in body:
        bits = (bits << 6) | (c - 63)
    pad = 6 * need - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    rows = [0] * n
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------- edge lists


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n <count>' header plus one 'u v' edge per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"bad header line {lines[0]!r}, expected 'n <count>'")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad vertex count {head[1]!r}") from exc
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {ln!r}")
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


# ------------------------------------------------------------- connectivity


def _components(adj, mask: int) -> list[int]:
    """Every component of the vertex set mask, in one walk: each grows from
    its lowest vertex, one neighbourhood layer at a time, inside mask."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & mask & ~comp
            comp |= frontier
        mask ^= comp
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return _components(g.adj, (1 << g.n) - 1) == [(1 << g.n) - 1]


# -------------------------------------------------------------- cycle shape


def long_odd_cycles(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """Shape of g from one BFS spanning forest: None if g has an even cycle,
    else (components, cycles).

    Every cycle of g is odd exactly when the fundamental cycles of the
    forest are odd and pairwise edge-disjoint: two sharing an edge make an
    even cycle, and disjoint ones leave every cycle fundamental.  A non-tree
    edge uw closes an odd cycle exactly when depth(u) = depth(w); it is taken
    once, when its second end is dequeued, and its cycle is walked up to the
    common ancestor, marking each tree edge by its child vertex.

    components counts the BFS roots.  cycles lists the odd cycles with at
    least 5 edges, each from its smallest vertex toward its smaller
    neighbour, sorted lexicographically.
    """
    n, adj = g.n, g.adj
    parent = [0] * n
    depth = [0] * n
    seen = done = marked = 0
    components = 0
    cycles = []
    for root in range(n):
        if (seen >> root) & 1:
            continue
        components += 1
        seen |= 1 << root
        parent[root] = root
        queue = [root]
        for u in queue:
            row = adj[u]
            new = row & ~seen
            seen |= row
            while new:
                bit = new & -new
                new ^= bit
                w = bit.bit_length() - 1
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
            back = row & done & ~(1 << parent[u])
            while back:
                bit = back & -back
                back ^= bit
                w = bit.bit_length() - 1
                if depth[w] != depth[u]:
                    return None
                left, right = [u], [w]
                a, b = u, w
                while a != b:
                    ends = (1 << a) | (1 << b)
                    if marked & ends:
                        return None
                    marked |= ends
                    a, b = parent[a], parent[b]
                    left.append(a)
                    right.append(b)
                if len(left) >= 3:
                    cycle = left + right[-2::-1]
                    i = cycle.index(min(cycle))
                    cycle = cycle[i:] + cycle[:i]
                    if cycle[-1] < cycle[1]:
                        cycle[1:] = cycle[:0:-1]
                    cycles.append(tuple(cycle))
            done |= 1 << u
    return components, tuple(sorted(cycles))


def is_odd_cycle_graph(g: Graph) -> bool:
    """True iff every cycle of g is odd, i.e. every biconnected block is a
    single edge or an odd cycle."""
    return long_odd_cycles(g) is not None


# ------------------------------------------------------------- isomorphism


def _refine(n: int, adj) -> tuple[tuple[int, ...], tuple]:
    """Stable colour refinement: (colours, signature), the signature being
    the sorted (colour, sorted neighbour colours) pairs of the last round.
    From the degrees both follow any relabelling, so the signature is an
    isomorphism invariant and isomorphisms preserve the colours."""
    nbrs = [list(iter_bits(row)) for row in adj]
    colors = [len(row) for row in nbrs]
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in nbrs[v]]))) for v in range(n)]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            return tuple(new), tuple(sorted(sigs))
        colors = new


def _color_classes(colors) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return out


def _search_mappings(g1: Graph, g2: Graph, c1, classes2) -> bool:
    """Whether some isomorphism from g1 onto g2 keeps the colours c1 of g1
    and the colour classes of g2; stops at the first one found."""
    order = sorted(range(g1.n), key=lambda v: (len(classes2.get(c1[v], ())), c1[v], v))
    adj1, adj2 = g1.adj, g2.adj
    image = [0] * g1.n

    def extend(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in classes2.get(c1[v], ()):
            if (used >> w) & 1:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if ((adj1[v] >> u) & 1) != ((adj2[w] >> image[u]) & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                if extend(i + 1, used | (1 << w)):
                    return True
        return False

    return extend(0, 0)


def is_isomorphic(g1: Graph, g2: Graph, max_n: int = ISO_DEFAULT_MAX_N) -> bool:
    """Exact isomorphism test: colour refinement, then a backtracking search
    that stops at the first isomorphism.

    Raises GraphTooLargeError above max_n (the exhaustive search is only
    intended for small graphs).
    """
    if g1.n > max_n or g2.n > max_n:
        raise GraphTooLargeError(f"isomorphism test limited to n <= {max_n}")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    c1, sig1 = _refine(g1.n, g1.adj)
    c2, sig2 = _refine(g2.n, g2.adj)
    if sig1 != sig2:
        return False
    return _search_mappings(g1, g2, c1, _color_classes(c2))
