"""Independent slow-route oracles for the test suite.

Nothing here shares algorithms with the package: diagrams come from
persistent Betti numbers via GF(2) ranks (not column reduction), the
3-point enclosing radius from explicit candidate circles (not the law of
cosines), bottleneck from exhaustive matching, and polygon triangulations
from full enumeration. The exactness references below are the exceptions.
`loop_complex` restates the VR/Cech value rules one triple at a time, so
the vectorized builders must match it bit for bit. `boundary_pd1` is the
textbook boundary-matrix reduction the package used to run, so the
package's cohomology route must give the very same pairs, float for float.
`kuhn_bottleneck` is the dense bisection-plus-Kuhn matching the package
used to run, so its windowed search must return the very same float; its
recursive Kuhn matcher shares nothing with the package's.
`scipy_bottleneck` is the route for diagrams too large for the recursive
one: the same bisection with scipy's Hopcroft-Karp. The package calls that
matcher too, so this oracle differs from it in the graph, dense and
diagonal-augmented, and in the candidates, all of them.
`lex_greedy_triangulation` is the arc-splitting greedy the package used to
run, so its ear clipping must return the very same triangles; `loop_delaunay`
triangulates cocircular groups with it.
`loop_delaunay` is the per-simplex planar alpha builder the package used to
run: it tests every circumcircle and diametral disk against every point and
reads lengths from the dense distance matrix, so the array builder, which
tests each triangle against its neighbours only, must return the very same
complex, float for float.
`short_by_definition` restates the Short test edge by edge, with one graph
search per edge in place of the package's single union-find pass.
`loop_oriented_angle`, `loop_angular_deviation`, `loop_angular_thickness`,
`loop_min_ray_angle` and `loop_distance_multiset` are the scalar angle and
the chord-by-chord and point-by-point loops the package used to run, with
1-D `np.linalg.norm` and `math.atan2`, so its row kernels must return the
very same floats and raise the same errors.
`masked_cofaces` is the VR/Cech coface pass edge by edge over the distance
matrix with its zero diagonal, k = i and k = j left out by the zero-side
mask the pass used to apply, so the pass over D with an inf diagonal must
give the very same fields and rows.
`NEAR_EQUILATERAL` and `equilateral_triangles` are clouds whose Cech
triangle value rounds a few ulps above diameter / sqrt(3), its bound in
exact arithmetic: an uncapped build must keep the triangle, and the
degree-1 class must die at its value.
`simplices` is no oracle: it reads a complex's arrays as (vertices, value)
tuples, for tests that compare simplices one by one.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

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


class Simplex(NamedTuple):
    vertices: tuple[int, ...]
    value: float


def simplices(cx, dim: int) -> list[Simplex]:
    """A complex's edges (dim 1) or triangles (dim 2) in filtration order, read off its arrays."""
    vertices, values = (cx.edge_vertices, cx.edge_values) if dim == 1 else (cx.triangle_vertices, cx.triangle_values)
    return [Simplex(tuple(v), x) for v, x in zip(vertices.tolist(), values.tolist())]


def oracle_pd(cx, dim: int) -> tuple[list[tuple[float, float]], list[float]]:
    """Diagram of a FilteredComplex from persistent Betti numbers.

    Returns (finite pairs, births of infinite bars), both unsorted
    multisets. beta_1^{i,j} = dim Z_1(K_i) - dim(Z_1(K_i) ∩ B_1(K_j));
    the second term is rank(D2_j) minus the rank of D2_j restricted to
    rows outside K_i. Multiplicities by inclusion-exclusion over the
    scale grid.
    """
    n = cx.n_vertices
    edges = simplices(cx, 1)
    tris = simplices(cx, 2)
    scales = sorted({0.0} | {s.value for s in edges + tris})
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


def _linf(a, b) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _kuhn_match(n_left: int, n_right: int, adj: list[list[int]]) -> int:
    """Maximum bipartite matching size (recursive augmenting paths)."""
    match_right = [-1] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or try_augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    size = 0
    for u in range(n_left):
        if try_augment(u, [False] * n_right):
            size += 1
    return size


def kuhn_bottleneck(d1, d2) -> float:
    """Bottleneck distance of two PersistenceDiagrams, infinite bars included.

    Bisection over every candidate (0, L-inf distances, half-persistences)
    with a Kuhn matching of the full (m + k) x (k + m) diagonal-augmented
    graph per step. Recursion depth grows with the diagram: small inputs only.
    """
    inf1 = sorted(b for b, _ in d1.infinite_pairs)
    inf2 = sorted(b for b, _ in d2.infinite_pairs)
    if len(inf1) != len(inf2):
        return INF
    floor = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)

    pts1 = list(d1.finite_pairs)
    pts2 = list(d2.finite_pairs)
    m, k = len(pts1), len(pts2)
    if m == 0 and k == 0:
        return floor
    diag1 = [(d - b) / 2.0 for b, d in pts1]
    diag2 = [(d - b) / 2.0 for b, d in pts2]
    candidates = sorted(
        {0.0}
        | {_linf(a, b) for a in pts1 for b in pts2}
        | set(diag1)
        | set(diag2)
    )

    def feasible(delta: float) -> bool:
        # left: pts1 then k diagonal slots; right: pts2 then m diagonal slots
        adj: list[list[int]] = []
        for i in range(m):
            row = [j for j in range(k) if _linf(pts1[i], pts2[j]) <= delta]
            if diag1[i] <= delta:
                row.extend(range(k, k + m))
            adj.append(row)
        for j in range(k):
            row = list(range(k, k + m))  # diagonal slot matches diagonal slot
            if diag2[j] <= delta:
                row = [j] + row
            adj.append(row)
        return _kuhn_match(m + k, k + m, adj) == m + k

    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):  # cannot happen: max candidate always works
        return INF
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(floor, candidates[lo])


def scipy_bottleneck(pairs1, pairs2) -> float:
    """Bottleneck distance over finite pairs by scipy's Hopcroft-Karp.

    Bisection over the sorted candidates; each step asks
    maximum_bipartite_matching for a perfect matching of the full
    diagonal-augmented graph (left: pairs1 then a diagonal slot per pairs2
    entry; right: pairs2 then a slot per pairs1 entry; slots match slots).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    a = np.asarray(pairs1, dtype=float).reshape(-1, 2)
    b = np.asarray(pairs2, dtype=float).reshape(-1, 2)
    m, k = len(a), len(b)
    if m + k == 0:
        return 0.0
    cost = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))
    half_a = (a[:, 1] - a[:, 0]) / 2.0
    half_b = (b[:, 1] - b[:, 0]) / 2.0
    candidates = np.unique(np.concatenate([[0.0], cost.ravel(), half_a, half_b]))

    def perfect(t: float) -> bool:
        adj = np.zeros((m + k, k + m), dtype=bool)
        adj[:m, :k] = cost <= t
        adj[np.arange(m), k + np.arange(m)] = half_a <= t
        adj[m + np.arange(k), np.arange(k)] = half_b <= t
        adj[m:, k:] = True
        return bool(np.all(maximum_bipartite_matching(csr_matrix(adj), perm_type="column") >= 0))

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


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


def lex_greedy_triangulation(cycle: list[int]) -> list[tuple[int, int, int]]:
    """Lexicographically smallest triangulation by the greedy the package used to run:
    take the triangle on an arc's three smallest ids, split the arc there, recurse."""
    out = []
    arcs = [list(cycle)]
    while arcs:
        arc = arcs.pop()
        if len(arc) < 3:
            continue
        chosen = sorted(arc)[:3]
        out.append(tuple(chosen))
        a, b, c = sorted(arc.index(v) for v in chosen)
        arcs += [arc[a : b + 1], arc[b : c + 1], arc[c:] + arc[: a + 1]]
    return sorted(out)


# ------------------------------------------------------ reference builders


def _meb_radius_scalar(a: float, b: float, c: float) -> float:
    """Enclosing radius from side lengths, the builders' rule for one triple."""
    a, b, c = sorted((a, b, c))
    longest = c
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


def masked_cofaces(points, kind: str, cap: float, edges):
    """Per edge (i, j) of `edges`, a complex's edges in filtration order: its cofaces {i, j, k} in (value, key) order,
    at most the cap, where k ranges over the vertices with D_ik and D_jk nonzero, and whether one of them witnesses
    that the edge is Long (it enters at D_ij / 2 over two strictly shorter sides). D is `_norms` of the coordinate
    differences, its diagonal zero. Returns the `_Cofaces` fields (oldest values, oldest ids, long, apparent) as
    lists, and per edge its (values, ids) row; an id is the base-n key of the sorted triple."""
    from pointpd.geometry import _norms

    n = len(points)
    D = _norms(points[:, None, :] - points[None, :, :]).tolist()
    position = {(int(i), int(j)): r for r, (i, j) in enumerate(edges)}
    oldest_values, oldest_ids, long, apparent, rows = [], [], [], [], []
    for r, (i, j) in enumerate(position):
        e, cofaces, witnessed = D[i][j], [], False
        for k in range(n):
            x, y = D[i][k], D[j][k]
            if min(x, y) == 0.0:  # k is i or j
                continue
            value = max(e, x, y) / 2.0 if kind == "vr" else _meb_radius_scalar(e, x, y)
            witnessed |= value == e / 2.0 and x < e and y < e
            if value <= cap:
                a, b, c = sorted((i, j, k))
                cofaces.append((value, (a * n + b) * n + c, (a, b, c)))
        cofaces.sort()
        rows.append(([value for value, _, _ in cofaces], [key for _, key, _ in cofaces]))
        long.append(witnessed)
        if cofaces:
            value, key, (a, b, c) = cofaces[0]
            youngest = max(position[(a, b)], position[(a, c)], position[(b, c)])
            oldest_values.append(value), oldest_ids.append(key), apparent.append(youngest == r)
        else:
            oldest_values.append(INF), oldest_ids.append(-1), apparent.append(False)
    return oldest_values, oldest_ids, long, apparent, rows


def _circumcircle_2d(a, b, c):
    """Circumcenter and circumradius of a nondegenerate planar triangle."""
    u = b - a
    v = c - a
    den = 2.0 * (u[0] * v[1] - u[1] * v[0])
    if den == 0.0:
        raise ValueError("degenerate (collinear) triangle has no circumcircle")
    uu = float(u[0] * u[0] + u[1] * u[1])
    vv = float(v[0] * v[0] + v[1] * v[1])
    ux = (v[1] * uu - u[1] * vv) / den
    uy = (u[0] * vv - v[0] * uu) / den
    center = a + np.array([ux, uy])
    radius = math.hypot(ux, uy)
    return center, radius


def _canonicalize_cocircular(points, triangles):
    """Replace each cocircular group's triangles with the canonical choice."""
    from pointpd.filtration import COCIRCULAR_TOL

    groups: dict[frozenset[int], None] = {}
    for tri in triangles:
        center, radius = _circumcircle_2d(points[tri[0]], points[tri[1]], points[tri[2]])
        dist = np.sqrt(((points - center) ** 2).sum(axis=1))
        on_circle = np.nonzero(np.abs(dist - radius) <= COCIRCULAR_TOL * max(1.0, radius))[0]
        if on_circle.size >= 4:
            groups[frozenset(int(v) for v in on_circle)] = None
    if not groups:
        return triangles
    out = set(triangles)
    for group in groups:
        members = sorted(group)
        out = {t for t in out if not set(t) <= group}
        center = points[members].mean(axis=0)
        cycle = sorted(
            members,
            key=lambda v: math.atan2(points[v][1] - center[1], points[v][0] - center[0]),
        )
        out.update(lex_greedy_triangulation(cycle))
    return out


def loop_delaunay(cloud):
    """The planar alpha complex one simplex at a time, over dense distances.

    Qhull's flat simplices are dropped by the builder's stated rule. Each
    remaining triangle's circumcircle and each edge's diametral disk is tested
    against every point of the cloud, with edge lengths read from the full
    n x n distance matrix. The array builder must match it bit for bit.
    """
    from scipy.spatial import Delaunay, QhullError

    from pointpd.filtration import (
        FilteredComplex,
        FiltrationKind,
        _all_collinear,
        _collinear_path_complex,
        _distance_matrix,
    )
    from pointpd.geometry import _as_cloud

    points = _as_cloud(cloud).points
    n = points.shape[0]
    if points.shape[1] != 2:
        raise ValueError("Delaunay implemented for the plane only")
    D = _distance_matrix(points)

    if n <= 2 or _all_collinear(points):
        return _collinear_path_complex(points)

    try:
        tess = Delaunay(points - points.mean(axis=0))
    except QhullError:
        if _all_collinear(points, tol=1e-8):
            return _collinear_path_complex(points)
        raise

    # Qhull's flat simplices (slivers along collinear hull points) are not triangles:
    # drop a simplex whose |u x v| is at most 8 eps max|points| max(|u|, |v|)
    rounding = 8.0 * np.finfo(np.float64).eps * float(np.abs(points).max())
    triangles = set()
    for tri in tess.simplices:
        a, b, c = sorted(int(v) for v in tri)
        u, v = points[b] - points[a], points[c] - points[a]
        if abs(u[0] * v[1] - u[1] * v[0]) > rounding * max(math.hypot(*u), math.hypot(*v)):
            triangles.add((a, b, c))
    triangles = _canonicalize_cocircular(points, triangles)

    tri_value: dict[tuple[int, int, int], float] = {}
    for tri in triangles:
        _, radius = _circumcircle_2d(points[tri[0]], points[tri[1]], points[tri[2]])
        longest = max(D[tri[0], tri[1]], D[tri[0], tri[2]], D[tri[1], tri[2]])
        tri_value[tri] = float(max(radius, longest / 2.0))

    edge_tris: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for tri in triangles:
        for e in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            edge_tris.setdefault(e, []).append(tri)

    edge_values: dict[tuple[int, int], float] = {}
    for (i, j), tris in edge_tris.items():
        mid = (points[i] + points[j]) / 2.0
        rad = float(D[i, j] / 2.0)
        dist = np.sqrt(((points - mid) ** 2).sum(axis=1))
        dist[i] = np.inf
        dist[j] = np.inf
        gabriel = bool(dist.min() >= rad)
        edge_values[(i, j)] = rad if gabriel else min(tri_value[t] for t in tris)
    return FilteredComplex.from_arrays(
        n,
        list(edge_values),
        list(edge_values.values()),
        list(tri_value),
        list(tri_value.values()),
        FiltrationKind.DELAUNAY,
        math.inf,  # an alpha complex is never capped
    )


# ---------------------------------------------------------------- Short edges


def short_by_definition(cx) -> list[bool]:
    """Per edge: its endpoints lie in different components of the graph of
    every other edge whose value is at most its own (one search per edge)."""
    edges, values = cx.edge_vertices.tolist(), cx.edge_values.tolist()
    out = []
    for e, ((p, q), value) in enumerate(zip(edges, values)):
        adj: dict[int, list[int]] = {v: [] for v in range(cx.n_vertices)}
        for f, ((a, b), other) in enumerate(zip(edges, values)):
            if f != e and other <= value:
                adj[a].append(b)
                adj[b].append(a)
        seen, stack = {p}, [p]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(q not in seen)
    return out


# ---------------------------------------------------------------- tail geometry


def loop_oriented_angle(u, v) -> float:
    """The scalar oriented angle: 1-D norms and math.atan2, one vector pair."""
    uh = u / float(np.linalg.norm(u))
    vh = v / float(np.linalg.norm(v))
    return 2.0 * math.atan2(float(np.linalg.norm(uh - vh)), float(np.linalg.norm(uh + vh)))


def loop_angular_deviation(pts, ray) -> float:
    """Largest unoriented angle between a chord and the ray's direction, chord by chord."""
    from pointpd.geometry import COINCIDENT_TOL

    worst = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if float(np.linalg.norm(pts[j] - pts[i])) < COINCIDENT_TOL:
                raise ValueError(f"coincident points at indices {i} and {j}")
            phi = loop_oriented_angle(pts[j] - pts[i], ray.direction)
            worst = max(worst, min(phi, math.pi - phi))
    return worst


def loop_angular_thickness(pts, ray) -> float:
    """Largest angle from the ray's direction to a later point, point by point."""
    from pointpd.geometry import COINCIDENT_TOL

    worst = 0.0
    for i in range(1, len(pts)):
        off = pts[i] - pts[0]
        if float(np.linalg.norm(off)) < COINCIDENT_TOL:
            raise ValueError(f"point {i} coincides with the ray vertex")
        worst = max(worst, loop_oriented_angle(ray.direction, off))
    return worst


def loop_min_ray_angle(pts, v: int, ray) -> float:
    """Smallest angle from the ray's direction to another point, point by point."""
    from pointpd.geometry import COINCIDENT_TOL

    best = math.inf
    for i in range(len(pts)):
        if i == v:
            continue
        off = pts[i] - pts[v]
        if float(np.linalg.norm(off)) < COINCIDENT_TOL:
            raise ValueError(f"point {i} duplicates the ray base point {v}")
        best = min(best, loop_oriented_angle(ray.direction, off))
    return best


def loop_generate_tail(spec):
    """generate_tail's points, one point per loop step: uniform(0, 1), normal(size=k), a 1-D norm and `basis @ v`."""
    from pointpd.constructions import _orthonormal_complement

    rng = np.random.default_rng(spec.seed)
    ray = spec.ray
    n = spec.n
    if n == 1:
        return ray.vertex[None, :].copy()
    gaps = rng.uniform(spec.spacing_min, spec.spacing_max, size=n - 1)
    proj = np.concatenate([[0.0], np.cumsum(gaps)])
    basis = _orthonormal_complement(ray.direction)
    k = basis.shape[1]
    points = np.empty((n, ray.dim))
    points[0] = ray.vertex
    tan_bound = math.tan(spec.cone_half_angle)
    for i in range(1, n):
        nearest_gap = gaps[i - 1] if i == n - 1 else min(gaps[i - 1], gaps[i])
        radius = 0.0
        offset = np.zeros(ray.dim)
        if k > 0 and tan_bound > 0.0:
            radius = rng.uniform(0.0, 1.0) * (tan_bound / 2.0) * nearest_gap
            raw = rng.normal(size=k)
            norm = float(np.linalg.norm(raw))
            if norm > 0.0:
                offset = basis @ (raw / norm * radius)
        points[i] = ray.vertex + proj[i] * ray.direction + offset
    return points


def loop_distance_multiset(pts) -> tuple[float, ...]:
    """Sorted pairwise distances, one 1-D np.linalg.norm per pair."""
    n = len(pts)
    return tuple(sorted(float(np.linalg.norm(pts[i] - pts[j])) for i in range(n) for j in range(i + 1, n)))


# ---------------------------------------------------------------- near-equilateral clouds

# Cech triangle value 8.574042765875697: 3 ulps above diameter / sqrt(3), which bounds it only in exact arithmetic
NEAR_EQUILATERAL = np.array(
    [
        [81.34938818931622, 19.36149545040805],
        [67.21829893045702, 23.928216857648735],
        [70.32894680920997, 9.406973872710918],
    ]
)


def equilateral_triangles(count: int, seed: int = 0) -> np.ndarray:
    """`count` equilateral triangles (count, 3, 2): circumradius below 10, turned at random, centred in [0, 100)^2.
    In floats about one in ten has a Cech value above diameter / sqrt(3)."""
    rng = np.random.default_rng(seed)
    radius, turn = rng.uniform(0.0, 10.0, count), rng.uniform(0.0, 2.0 * math.pi, count)
    centre = rng.uniform(0.0, 100.0, (count, 2))
    angles = turn[:, None] + 2.0 * math.pi / 3.0 * np.arange(3)
    return centre[:, None, :] + radius[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
