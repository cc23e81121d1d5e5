"""Independent reference implementations used to cross-check the package.

Everything here deliberately uses different machinery from the library:
direct bit-string assembly for graph6, simple-path enumeration for cycles,
union-find for component counts, depth-first search over adjacency lists
for components, a Tarjan biconnected-block walk for the cycle shape of
larger graphs,
Laplace expansion for characteristic polynomials, frozenset bookkeeping for
matching counts, numpy subset tests for the bulk matching census,
edge-subset combinations filtered by the odd, edge-disjoint fundamental
cycles of a BFS spanning forest for the labeled odd-cycle enumeration, the
exponential transform of 2^C(n,2) for connected labeled counts, a plain
backtracking search over degree-preserving maps for automorphism counts,
and Fraction arithmetic for root bisection, Sturm counts and dominance.
The root oracles build their own GCDs, squarefree parts, Sturm chains and
Yun decompositions by Fraction long division; they import nothing from
``oddcycle.roots`` and never call the library's remainder sequence.  Slow
is fine; these exist to be obviously right.  Exact evaluation and induced
subgraphs are plain helpers here, so the Fraction sign oracle calls no
library code.  Beyond the Graph and IntPolynomial types and their
arithmetic, the library supplies only edge_cap, which bounds the labeled
enumeration, disjoint_union, and m(G): the dominance oracle expands m(G)
past the memo, and the two identity checks at the end hold it to the
deletion and disjoint-union identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from oddcycle import (
    DominanceVerdict,
    Graph,
    GraphTooLargeError,
    IntPolynomial,
    NoRealRootError,
    disjoint_union,
    edge_cap,
    matching_polynomial,
)

LABELED_MAX_N = 9


def graph6_reference(n: int, edges) -> str:
    """Encode a labeled graph in graph6, assembled bit by bit.

    Upper-triangle cells are emitted column by column: x(0,1), x(0,2),
    x(1,2), x(0,3), ...; the bit string is padded with zeros to a multiple
    of six and each six-bit group becomes one printable byte offset by 63.
    """
    if not 1 <= n <= 62:
        raise ValueError("reference encoder covers 1 <= n <= 62 only")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = 2 * val + b
        out.append(chr(63 + val))
    return "".join(out)


def simple_cycles(n: int, edges):
    """Yield every simple cycle once, as its vertex sequence from its
    smallest vertex toward the smaller of that vertex's two cycle neighbours.

    Cycles are enumerated from their smallest vertex by depth-first simple
    paths restricted to larger vertices; an edge back to the start closes a
    cycle, kept in the direction whose second vertex is below its last.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def walk(start: int, path: list[int], on_path: set[int]):
        cur = path[-1]
        for w in sorted(nbrs[cur]):
            if w == start and len(path) >= 3 and path[1] < cur:
                yield tuple(path)
            if w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(start, path, on_path)
                on_path.remove(w)
                path.pop()

    for s in range(n):
        yield from walk(s, [s], {s})


def labeled_graphs(n: int):
    """Yield all 2^C(n,2) labeled graphs of order n, by edge mask ascending,
    bit i of the mask standing for the i-th vertex pair in lexicographic
    order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def component_count(n: int, edges) -> int:
    """Connected components, by union-find over the edge list."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


def components_reference(n: int, edges, mask: int) -> set[frozenset[int]]:
    """The vertex sets of the components of the subgraph induced on mask,
    by depth-first search over adjacency lists."""
    inside = [v for v in range(n) if mask >> v & 1]
    nbrs: dict[int, list[int]] = {v: [] for v in inside}
    for u, v in edges:
        if u in nbrs and v in nbrs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    seen: set[int] = set()
    comps = set()
    for start in inside:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def has_even_cycle(n: int, edges) -> bool:
    """Search every simple cycle for one of even length."""
    return any(len(c) % 2 == 0 for c in simple_cycles(n, edges))


def tarjan_blocks(n: int, adj):
    """Iterative Tarjan walk over bitmask adjacency rows: yield each
    biconnected block's edges, as a list of (u, v) pairs, when the block
    closes.  Isolated vertices belong to no block."""
    disc = [0] * n
    low = [0] * n
    # where the tree edge into each vertex sits on the edge stack
    entry = [0] * n
    timer = 1
    estack: list[tuple[int, int]] = []
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, adj[root])]
        while stack:
            v, rem = stack[-1]
            if rem:
                b = rem & -rem
                stack[-1] = (v, rem ^ b)
                w = b.bit_length() - 1
                if not disc[w]:
                    entry[w] = len(estack)
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, adj[w] & ~(1 << v)))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    edges = estack[entry[v]:]
                    del estack[entry[v]:]
                    yield edges


def block_shape_reference(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """``long_odd_cycles`` from the biconnected blocks of ``tarjan_blocks``.

    None unless every block is a single edge or an odd cycle (e edges on e
    vertices, e odd).  The component count follows from the sum over blocks
    of |V(B)| - 1, which is n - c; each cycle of at least 5 edges is read
    off its block by following neighbours from its smallest vertex toward
    the smaller one.
    """
    joined = 0
    cycles = []
    for edges in tarjan_blocks(g.n, g.adj):
        nbrs: dict[int, list[int]] = {}
        for u, v in edges:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        e = len(edges)
        if e > 1 and (e % 2 == 0 or len(nbrs) != e):
            return None
        joined += len(nbrs) - 1
        if e >= 5:
            start = min(nbrs)
            order = [start, min(nbrs[start])]
            while len(order) < e:
                a, b = nbrs[order[-1]]
                order.append(b if a == order[-2] else a)
            cycles.append(tuple(order))
    return g.n - joined, tuple(sorted(cycles))


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def charpoly_reference(matrix) -> tuple[int, ...]:
    """det(xI - M) by Laplace expansion, ascending integer coefficients.

    Minors are memoized on the surviving column set; the row is implied by
    how many columns remain.  Entries of xI - M are degree <= 1 polynomials.
    """
    n = len(matrix)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}

    def minor(cols: tuple[int, ...]) -> tuple[int, ...]:
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = n - len(cols)
        acc: tuple[int, ...] = (0,)
        sign = 1
        for idx, col in enumerate(cols):
            entry = (-matrix[row][col], 1) if row == col else (-matrix[row][col],)
            if any(entry):
                rest = minor(cols[:idx] + cols[idx + 1 :])
                term = _poly_mul(entry, rest)
                if sign < 0:
                    term = tuple(-c for c in term)
                acc = _poly_add(acc, term)
            sign = -sign
        memo[cols] = acc
        return acc

    full = minor(tuple(range(n)))
    out = list(full)
    while len(out) < n + 1:
        out.append(0)
    return tuple(out[: n + 1])


def matchings_by_size_reference(n: int, edges) -> tuple[int, ...]:
    """Count k-edge matchings by growing vertex-disjoint edge sets."""
    edges = [tuple(e) for e in edges]
    counts = [0] * (n // 2 + 1)
    counts[0] = 1

    def grow(start: int, used: frozenset[int], size: int) -> None:
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            counts[size + 1] += 1
            grow(i + 1, used | {u, v}, size + 1)

    grow(0, frozenset(), 0)
    return tuple(counts)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fractions(coeffs) -> list[Fraction]:
    return _trim([Fraction(c) for c in coeffs])


def _derivative(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod_reference(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by the nonzero b, by long division over Q."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for top in range(len(quot) - 1, -1, -1):
        q = rem[top + len(b) - 1] / b[-1]
        quot[top] = q
        for i, c in enumerate(b):
            rem[top + i] -= q * c
    return _trim(quot), _trim(rem[: len(b) - 1])


def _exact_quotient(a, b) -> list[Fraction]:
    quot, rem = _divmod_reference(a, b)
    assert not rem, "inexact division"
    return quot


def _integer_multiple(p) -> IntPolynomial:
    """The Fraction polynomial p times the positive rational that makes it a
    primitive integer polynomial."""
    scale = lcm(*(c.denominator for c in p))
    return IntPolynomial.from_coeffs([c * scale for c in p]).primitive_part()


def gcd_reference(a_coeffs, b_coeffs) -> tuple[Fraction, ...]:
    """Monic polynomial GCD over Q by plain Euclidean division."""
    a, b = _fractions(a_coeffs), _fractions(b_coeffs)
    while b:
        a, b = b, _divmod_reference(a, b)[1]
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def squarefree_reference(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p') by Fraction long division, scaled to a primitive
    integer polynomial with positive leading coefficient."""
    f = _fractions(p.coeffs)
    q = _integer_multiple(_exact_quotient(f, gcd_reference(f, _derivative(f))))
    return -q if q.leading < 0 else q


def odd_part_reference(p: IntPolynomial) -> IntPolynomial:
    """The product of the squarefree factors of odd multiplicity in the
    nonzero p, by Yun's algorithm over Q with ``gcd_reference``.

    From b = p and d = p', each step takes a = gcd(b, d), then b = b / a
    and d = d / a - b', until b is constant.  Step 0's a is gcd(p, p'), and
    step i's is the factor of multiplicity i.
    """
    b = _fractions(p.coeffs)
    d = _derivative(b)
    odd = (Fraction(1),)
    mult = 0
    while len(b) > 1:
        a = gcd_reference(b, d)
        b = _exact_quotient(b, a)
        d = _trim(list(_poly_add(_exact_quotient(d, a), [-c for c in _derivative(b)])))
        if mult % 2:
            odd = _poly_mul(odd, a)
        mult += 1
    return _integer_multiple(odd)


@lru_cache(maxsize=1024)
def sturm_chain_reference(coeffs: tuple[int, ...]) -> tuple[IntPolynomial, ...]:
    """The Sturm chain p, p', -rem(p, p'), ... of the nonzero p, by Fraction
    long division, each member scaled to a primitive integer polynomial by a
    positive factor."""
    a = _fractions(coeffs)
    b = _derivative(a)
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, [-c for c in _divmod_reference(a, b)[1]]
    return tuple(_integer_multiple(c) for c in chain)


def value_at(p: IntPolynomial, x):
    """p(x) by Horner's rule in int or Fraction arithmetic."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _sign(p: IntPolynomial, x: Fraction) -> int:
    value = value_at(p, x)
    return (value > 0) - (value < 0)


def _variations_reference(chain, point: Fraction | None) -> int:
    """Sign variations of a Sturm chain at a rational point; None means +infinity."""
    count = 0
    prev = 0
    for p in chain:
        s = (p.leading > 0) - (p.leading < 0) if point is None else _sign(p, point)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _nonroot_point(p: IntPolynomial, mid: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """First point of mid, mid+(hi-mid)/2, mid+(hi-mid)/4, ... avoiding roots,
    with the (nonzero) sign of p there."""
    c = mid
    delta = hi - mid
    while not (s := _sign(p, c)):
        delta /= 2
        c = mid + delta
    return c, s


def refined_reference(
    p: IntPolynomial, lo: Fraction, hi: Fraction, eps: Fraction
) -> tuple[Fraction, Fraction]:
    """Sign bisection of an isolating interval of p down to width <= eps,
    in Fraction arithmetic: keep the half across which p changes sign."""
    s_hi = _sign(p, hi)
    while hi - lo > eps:
        mid, s_mid = _nonroot_point(p, (lo + hi) / 2, hi)
        if s_mid == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def max_real_root_reference(p: IntPolynomial, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval of the largest real root of p, width <= eps.

    Sturm bisection in Fraction arithmetic from (-B, B), B the power-of-two
    root bound, until one root is left above the lower end; then
    refined_reference.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = squarefree_reference(p)
    if sf.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    chain = sturm_chain_reference(sf.coeffs)
    bound = sf.root_bound()
    lo, hi = -bound, bound
    v_lo = _variations_reference(chain, lo)
    v_hi = _variations_reference(chain, None)
    if v_lo == v_hi:
        raise NoRealRootError("no real roots")
    while v_lo - v_hi > 1:
        mid, _ = _nonroot_point(sf, (lo + hi) / 2, hi)
        v_mid = _variations_reference(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return refined_reference(sf, lo, hi, eps)


def sturm_root_count(p: IntPolynomial, lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of p in (lo, hi), by Sturm variations
    evaluated in Fraction arithmetic.

    Requires p nonzero and nonvanishing at both endpoints.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    if _sign(p, lo) == 0 or _sign(p, hi) == 0:
        raise ValueError("interval endpoint is a root; perturb it")
    chain = sturm_chain_reference(p.coeffs)
    return _variations_reference(chain, lo) - _variations_reference(chain, hi)


def _roots_past_reference(
    sf: IntPolynomial, lo: Fraction, hi: Fraction, q: IntPolynomial
) -> tuple[bool, int]:
    """For the one root alpha of the squarefree sf inside (lo, hi): whether
    q(alpha) = 0, and the number of distinct roots of q above alpha.

    alpha is a root of q exactly when the monic Fraction GCD of sf and q has
    a root in (lo, hi).  The bracket is then halved with refined_reference
    until q vanishes at neither end and keeps only alpha, if anything, inside.
    """
    g_int = _integer_multiple(gcd_reference(sf.coeffs, q.coeffs))
    on_root = g_int.degree >= 1 and sturm_root_count(g_int, lo, hi) >= 1
    while _sign(q, lo) == 0 or _sign(q, hi) == 0 or sturm_root_count(q, lo, hi) != on_root:
        lo, hi = refined_reference(sf, lo, hi, (hi - lo) / 2)
    chain = sturm_chain_reference(q.coeffs)
    return on_root, _variations_reference(chain, hi) - _variations_reference(chain, None)


def sign_reference(sf: IntPolynomial, lo: Fraction, hi: Fraction, q: IntPolynomial) -> int:
    """The sign of q at the one root alpha of the squarefree sf inside
    (lo, hi), from gcd_reference, sturm_root_count and refined_reference.

    alpha is a root of q exactly when the monic Fraction GCD of sf and q
    has a root in (lo, hi).  Otherwise the bracket is halved until q
    vanishes at neither end and has no root inside, and q's sign at the
    lower end is the answer.
    """
    g = gcd_reference(sf.coeffs, q.coeffs)
    if len(g) > 1 and sturm_root_count(_integer_multiple(g), lo, hi):
        return 0
    while _sign(q, lo) == 0 or _sign(q, hi) == 0 or sturm_root_count(q, lo, hi):
        lo, hi = refined_reference(sf, lo, hi, (hi - lo) / 2)
    return _sign(q, lo)


def dominance_reference(g1: Graph, g2: Graph) -> DominanceVerdict:
    """Sign of d = m(G2, x) - m(G1, x) on x >= t(G1), asked as three
    questions in a fixed order.

    A negative leading coefficient is incomparable.  Otherwise a root of the
    odd part of d (the product of its odd-multiplicity squarefree factors)
    above t(G1) is a sign change, so incomparable; failing that, d touching
    zero at or above t(G1) is weak, and anything else strict.  Every root
    question is answered on the Fraction bracket of max_real_root_reference,
    and m(G) is expanded afresh, past the library's memo.
    """
    expand = matching_polynomial.__wrapped__
    p1 = expand(g1)
    d = expand(g2) - p1
    if d.is_zero():
        return DominanceVerdict.EQUAL_POLYNOMIALS
    if d.leading < 0:
        return DominanceVerdict.INCOMPARABLE
    sf = squarefree_reference(p1)
    lo, hi = max_real_root_reference(p1, Fraction(1, 2**16))
    if _roots_past_reference(sf, lo, hi, odd_part_reference(d))[1] > 0:
        return DominanceVerdict.INCOMPARABLE
    on_root, above = _roots_past_reference(sf, lo, hi, d)
    if on_root or above > 0:
        return DominanceVerdict.WEAKLY_DOMINATES
    return DominanceVerdict.STRICTLY_DOMINATES


def bulk_matching_profiles(n: int):
    """Matching counts of every labeled graph on n vertices at once.

    Returns (pairs, counts): pairs is the lexicographic vertex-pair list
    fixing the edge-mask bit order, and counts[k][mask] is m_k of the graph
    with that edge mask.  Each matching of the complete graph contributes to
    exactly the masks that contain it, which is one vectorized subset test.
    """
    import numpy as np

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    vmask = [(1 << u) | (1 << v) for u, v in pairs]
    total = 1 << len(pairs)
    masks = np.arange(total, dtype=np.uint32)
    counts = [np.zeros(total, dtype=np.uint16) for _ in range(n // 2 + 1)]
    counts[0][:] = 1
    for k in range(1, n // 2 + 1):
        for combo in combinations(range(len(pairs)), k):
            acc = 0
            for e in combo:
                if acc & vmask[e]:
                    break
                acc |= vmask[e]
            else:
                em = np.uint32(sum(1 << e for e in combo))
                counts[k] += (masks & em) == em
    return pairs, counts


def _odd_cycle_components(n: int, rows) -> int | None:
    """Component count of the graph with these adjacency rows, or None if it
    has an even cycle.

    A BFS spanning forest gives each non-tree edge uw a fundamental cycle of
    length depth(u) + depth(w) + 1 - 2 depth(lca), odd exactly when u and w
    have equal depth parity.  The graph has no even cycle iff every such
    cycle is odd and no two share an edge: two cycles through a common edge
    contain a theta, and every theta has an even cycle, while edge-disjoint
    odd fundamental cycles leave every cycle equal to one of them.
    """
    depth = [0] * n
    parent = [-1] * n
    # tree[v]: v's tree neighbours as a bitmask
    tree = [0] * n
    seen = components = 0
    for root in range(n):
        if (seen >> root) & 1:
            continue
        components += 1
        seen |= 1 << root
        queue = [root]
        for u in queue:
            new = rows[u] & ~seen
            seen |= new
            tree[u] |= new
            while new:
                bit = new & -new
                new ^= bit
                w = bit.bit_length() - 1
                depth[w] = depth[u] + 1
                parent[w] = u
                tree[w] |= 1 << u
                queue.append(w)
    # bit v of on_cycle: the tree edge from v to its parent lies on a cycle
    on_cycle = 0
    for u in range(n):
        # the non-tree edges uw with w > u
        extra = rows[u] & ~tree[u] & -(2 << u)
        while extra:
            bit = extra & -extra
            extra ^= bit
            w = bit.bit_length() - 1
            if (depth[u] + depth[w]) % 2:
                return None
            a, b = u, w
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                if (on_cycle >> a) & 1:
                    return None
                on_cycle |= 1 << a
                a = parent[a]
    return components


def labeled_odd_cycle_graphs(n: int, connected_only: bool = False):
    """Stream every labeled odd-cycle graph of order n.

    Edge subsets are visited in size-then-lexicographic order; subsets above
    the extremal size cap cannot qualify and are never generated.
    """
    if not 1 <= n <= LABELED_MAX_N:
        raise GraphTooLargeError(f"labeled sweep limited to n <= {LABELED_MAX_N}")
    pairs = [(u, v, 1 << u, 1 << v) for u in range(n) for v in range(u + 1, n)]
    cap = min(edge_cap(n), len(pairs))
    for m in range(cap + 1):
        for combo in combinations(pairs, m):
            rows = [0] * n
            for u, v, bu, bv in combo:
                rows[u] |= bv
                rows[v] |= bu
            components = _odd_cycle_components(n, rows)
            if components is None or connected_only and components != 1:
                continue
            yield Graph(n, tuple(rows))


def connected_labeled_counts(n: int) -> int:
    """Number of connected labeled graphs of order n, from the exponential
    transform of 2^C(n,2): a graph is its vertex 1's component, of some
    order k, plus any graph on the other n - k vertices, so
    c_n = 2^C(n,2) - sum_{k<n} C(n-1, k-1) c_k 2^C(n-k,2)."""
    c = [0]
    for order in range(1, n + 1):
        split = sum(
            comb(order - 1, k - 1) * c[k] * 2 ** comb(order - k, 2) for k in range(1, order)
        )
        c.append(2 ** comb(order, 2) - split)
    return c[n]


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by plain backtracking: vertex v, in label order, goes to each
    unused vertex of its degree whose adjacency to the images of 0..v-1
    matches its own.  No colour refinement, so it shares nothing with the
    library's isomorphism search."""
    n, adj = g.n, g.adj
    degree = [row.bit_count() for row in adj]
    image = [0] * n

    def extend(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if (used >> w) & 1 or degree[w] != degree[v]:
                continue
            if all((adj[v] >> u) & 1 == (adj[w] >> image[u]) & 1 for u in range(v)):
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def induced(g: Graph, keep) -> Graph:
    """The subgraph induced on the vertices keep, relabeled 0, 1, ... in
    increasing order of their old labels."""
    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edge_list() if u in index and v in index]
    return Graph.from_edges(len(keep), edges)


def check_deletion_identity(g, edge: tuple[int, int]) -> bool:
    """Verify m(G,x) = m(G-e,x) - m(G-u-v,x) for the given edge."""
    u, v = edge
    if not g.adj[u] >> v & 1:
        raise ValueError(f"({u},{v}) is not an edge")
    whole = matching_polynomial(g)
    kept = set(g.edge_list()) - {(min(u, v), max(u, v))}
    deleted = matching_polynomial(Graph.from_edges(g.n, kept))
    rest = [w for w in range(g.n) if w not in (u, v)]
    if rest:
        shrunk = matching_polynomial(induced(g, rest))
    else:
        shrunk = IntPolynomial.one()
    return whole == deleted - shrunk


def check_union_identity(parts) -> bool:
    """Verify the matching polynomial of a disjoint union is the product."""
    parts = list(parts)
    product = IntPolynomial.one()
    for p in parts:
        product = product * matching_polynomial(p)
    return matching_polynomial(disjoint_union(parts)) == product
