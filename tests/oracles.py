"""Independent slow-route oracles for the test suite.

Nothing here shares algorithms with the package: diagrams come from
persistent Betti numbers via GF(2) ranks (not column reduction), the
3-point enclosing radius from explicit candidate circles (not the law of
cosines), bottleneck from exhaustive matching, and polygon triangulations
from full enumeration. Two references for exactness are the exceptions.
`loop_complex` restates the VR/Cech value rules one triple at a time, so
the vectorized builders must match it bit for bit. `boundary_pd1` is the
textbook boundary-matrix reduction the package used to run, so the
package's cohomology route must give the very same pairs, float for float.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

INF = math.inf


# ---------------------------------------------------------------- GF(2)


def _insert_row(basis: dict[int, int], row: int) -> bool:
    """Reduce row against an echelon basis keyed by pivot bit; True if rank grew."""
    while row:
        piv = row.bit_length() - 1
        if piv not in basis:
            basis[piv] = row
            return True
        row ^= basis[piv]
    return False


class _Components:
    """Minimal union-find, written fresh for the oracle."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1


def oracle_pd(cx, dim: int) -> tuple[list[tuple[float, float]], list[float]]:
    """Diagram of a FilteredComplex from persistent Betti numbers.

    Returns (finite pairs, births of infinite bars), both unsorted
    multisets. beta_1^{i,j} = dim Z_1(K_i) - dim(Z_1(K_i) ∩ B_1(K_j));
    the second term is rank(D2_j) minus the rank of D2_j restricted to
    rows outside K_i. Multiplicities by inclusion-exclusion over the
    scale grid.
    """
    n = cx.n_vertices
    edges = [s for s in cx.simplices if s.dim == 1]
    tris = [s for s in cx.simplices if s.dim == 2]
    scales = sorted({0.0} | {s.value for s in cx.simplices})
    S = len(scales)
    idx_of = {v: i for i, v in enumerate(scales)}

    # per-scale edge count and component count
    m_at = [0] * S
    c_at = [0] * S
    uf = _Components(n)
    m = 0
    pos = 0
    for i, s in enumerate(scales):
        while pos < len(edges) and edges[pos].value <= s:
            a, b = edges[pos].vertices
            uf.union(a, b)
            m += 1
            pos += 1
        m_at[i] = m
        c_at[i] = uf.count

    if dim == 0:
        finite = []
        for j in range(1, S):
            finite.extend([(0.0, scales[j])] * (c_at[j - 1] - c_at[j]))
        return finite, [0.0] * c_at[-1]

    edge_col = {e.vertices: k for k, e in enumerate(edges)}
    # rows grouped by the scale index of their edge value
    rows_at: list[list[int]] = [[] for _ in range(S)]
    for e in edges:
        rows_at[idx_of[e.value]].append(edge_col[e.vertices])

    # R[j][i] = rank of D2_j restricted to rows with edge value > scales[i];
    # full[j] = rank of D2_j. Filled by inserting rows in descending value order.
    R = [[0] * S for _ in range(S)]
    full = [0] * S
    for j in range(S):
        row_bits = [0] * len(edges)
        for t_idx, t in enumerate(tris):
            if t.value <= scales[j]:
                a, b, c = t.vertices
                for face in ((a, b), (a, c), (b, c)):
                    row_bits[edge_col[face]] |= 1 << t_idx
        basis: dict[int, int] = {}
        rank = 0
        for i in range(S - 1, -2, -1):
            if i < S - 1:
                for row_idx in rows_at[i + 1]:
                    if _insert_row(basis, row_bits[row_idx]):
                        rank += 1
            if i >= 0:
                R[j][i] = rank
            else:
                full[j] = rank

    def beta(i: int, j: int) -> int:
        if i < 0:
            return 0
        cycles = m_at[i] - (n - c_at[i])
        boundaries = full[j] - R[j][i]
        return cycles - boundaries

    finite = []
    for i in range(S):
        for j in range(i + 1, S):
            mu = beta(i, j - 1) - beta(i, j) - beta(i - 1, j - 1) + beta(i - 1, j)
            if mu:
                finite.extend([(scales[i], scales[j])] * mu)
    infinite = []
    last = S - 1
    for i in range(S):
        mu = beta(i, last) - beta(i - 1, last)
        if mu:
            infinite.extend([scales[i]] * mu)
    return finite, infinite


def boundary_pd1(cx) -> list[tuple[float, float]]:
    """Sorted degree-1 pairs by reducing the triangle columns of the boundary matrix.

    Columns are Python ints used as bitmasks over the edge rows (a column
    addition is one XOR, the pivot is bit_length() - 1), reduced left to
    right in filtration order. A cycle-closing edge that no column takes
    as its pivot is an infinite bar. Zero-persistence pairs are dropped.
    """
    comps = _Components(cx.n_vertices)
    closes_cycle = []
    for a, b in cx.edge_vertices.tolist():
        before = comps.count
        comps.union(a, b)
        closes_cycle.append(comps.count == before)
    edge_values = cx.edge_values.tolist()
    tri_values = cx.triangle_values.tolist()
    reduced: dict[int, int] = {}
    pairs = []
    for tri, (a, b, c) in enumerate(cx.triangle_edges.tolist()):
        col = (1 << a) | (1 << b) | (1 << c)
        low = col.bit_length() - 1
        while low >= 0 and low in reduced:
            col ^= reduced[low]
            low = col.bit_length() - 1
        if low >= 0:
            reduced[low] = col
            if tri_values[tri] > edge_values[low]:
                pairs.append((edge_values[low], tri_values[tri]))
    pairs.extend(
        (value, INF)
        for edge, (value, cycle) in enumerate(zip(edge_values, closes_cycle))
        if cycle and edge not in reduced
    )
    return sorted(pairs)


def assert_diagram_matches(diagram, cx, dim: int, tol: float = 1e-9) -> None:
    """Multiset-compare a computed diagram against the rank oracle."""
    want_fin, want_inf = oracle_pd(cx, dim)
    got_fin = sorted(diagram.finite_pairs)
    got_inf = sorted(b for b, _ in diagram.infinite_pairs)
    want_fin = sorted(want_fin)
    want_inf = sorted(want_inf)
    assert len(got_fin) == len(want_fin), (got_fin, want_fin)
    assert len(got_inf) == len(want_inf), (got_inf, want_inf)
    for (gb, gd), (wb, wd) in zip(got_fin, want_fin):
        assert abs(gb - wb) <= tol and abs(gd - wd) <= tol, (got_fin, want_fin)
    for g, w in zip(got_inf, want_inf):
        assert abs(g - w) <= tol, (got_inf, want_inf)


# ------------------------------------------------- smallest enclosing circle


def oracle_meb3(p, q, r, tol: float = 1e-12) -> float:
    """Radius of the smallest ball covering three points, by candidates.

    Candidates are the three diametral balls and the circumscribed ball
    (solved in the triangle's affine plane); the answer is the smallest
    candidate that covers all three points.
    """
    pts = [np.asarray(p, float), np.asarray(q, float), np.asarray(r, float)]
    best = INF
    for a, b in itertools.combinations(pts, 2):
        center = (a + b) / 2.0
        rad = float(np.linalg.norm(a - b)) / 2.0
        if all(np.linalg.norm(x - center) <= rad + tol for x in pts):
            best = min(best, rad)
    a, b, c = pts
    u, v = b - a, c - a
    gram = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = np.array([u @ u, v @ v]) / 2.0
    if abs(np.linalg.det(gram)) > tol:
        s, t = np.linalg.solve(gram, rhs)
        center = a + s * u + t * v
        rad = float(np.linalg.norm(center - a))
        if all(np.linalg.norm(x - center) <= rad + tol for x in pts):
            best = min(best, rad)
    return best


# ------------------------------------------------------- bottleneck matching


def oracle_bottleneck(pairs1, pairs2) -> float:
    """Exhaustive bottleneck over finite pairs (small inputs only)."""
    pts1 = [tuple(p) for p in pairs1]
    pts2 = [tuple(p) for p in pairs2]

    def diag(p):
        return (p[1] - p[0]) / 2.0

    def linf(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    best = INF
    for k in range(min(len(pts1), len(pts2)) + 1):
        for sub1 in itertools.combinations(range(len(pts1)), k):
            rest1 = [i for i in range(len(pts1)) if i not in sub1]
            for sub2 in itertools.permutations(range(len(pts2)), k):
                cost = 0.0
                for i, j in zip(sub1, sub2):
                    cost = max(cost, linf(pts1[i], pts2[j]))
                for i in rest1:
                    cost = max(cost, diag(pts1[i]))
                for j in set(range(len(pts2))) - set(sub2):
                    cost = max(cost, diag(pts2[j]))
                best = min(best, cost)
    return best


# ------------------------------------------------- polygon triangulations


def polygon_triangulations(chain: list[int]) -> list[list[tuple[int, int, int]]]:
    """All triangulations of a convex polygon given as a vertex chain."""
    if len(chain) < 3:
        return [[]]
    out = []
    for k in range(1, len(chain) - 1):
        tri = tuple(sorted((chain[0], chain[k], chain[-1])))
        for left in polygon_triangulations(chain[: k + 1]):
            for right in polygon_triangulations(chain[k:]):
                out.append(left + right + [tri])
    return out


def lex_min_triangulation(cycle: list[int]) -> list[tuple[int, int, int]]:
    """Lexicographically smallest triangulation by full enumeration."""
    return min(sorted(t) for t in polygon_triangulations(list(cycle)))


# ------------------------------------------------------ reference builders


def _meb_radius_scalar(a: float, b: float, c: float) -> float:
    """Enclosing radius from side lengths, the builders' rule for one triple."""
    longest = max(a, b, c)
    rest_sq = a * a + b * b + c * c - longest * longest
    if longest * longest >= rest_sq:
        return longest / 2.0
    s = (a + b + c) / 2.0
    area_sq = s * (s - a) * (s - b) * (s - c)
    if area_sq <= 0.0:
        return longest / 2.0
    radius = a * b * c / (4.0 * math.sqrt(area_sq))
    return max(radius, longest / 2.0)


def loop_complex(D, kind: str, cap: float):
    """Edges and triangles of the VR or Cech complex by plain loops.

    D is the builder's own distance matrix, so every value can be compared
    for exact equality. Returns (edges, triangles), each a list of
    (vertices, value) sorted by (value, vertices).
    """
    n = len(D)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if D[i, j] / 2.0 <= cap:
                edges.append(((i, j), float(D[i, j] / 2.0)))
    kept = {e for e, _ in edges}
    triangles = []
    for i, j, k in itertools.combinations(range(n), 3):
        if not {(i, j), (i, k), (j, k)} <= kept:
            continue
        a, b, c = float(D[i, j]), float(D[i, k]), float(D[j, k])
        value = max(a, b, c) / 2.0 if kind == "vr" else _meb_radius_scalar(a, b, c)
        if value <= cap:
            triangles.append(((i, j, k), value))
    return sorted(edges, key=lambda s: (s[1], s[0])), sorted(triangles, key=lambda s: (s[1], s[0]))
