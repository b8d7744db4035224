"""Independent checks of pointpd outputs.

Nothing here imports pointpd. Distances, minimum spanning trees, enclosing
radii, edge classes and Betti numbers are recomputed from the coordinates
with numpy and scipy, so a defect in the package cannot hide behind its own
code. The checks test properties that hold for any correct implementation
(no golden digests of today's output), so a fix to a known defect never
reads as a failure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching, minimum_spanning_tree

# Relative slack for comparing a value the package computed with one
# recomputed here by a different float formula.
REL_TOL = 1e-9


class Mismatch(Exception):
    """An output of the program disagrees with an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def meb_radius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest enclosing ball radius of triples given side lengths.

    Non-acute triples are covered by the diametral ball of the longest
    side; acute ones by the circumscribed ball, whose radius comes from the
    Cayley-Menger form of the area (not Heron's formula).
    """
    a, b, c = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float), np.asarray(c, float))
    longest = np.maximum(np.maximum(a, b), c)
    sq = a * a + b * b + c * c
    non_acute = 2.0 * longest * longest >= sq
    a2, b2, c2 = a * a, b * b, c * c
    area16 = 2.0 * (a2 * b2 + b2 * c2 + c2 * a2) - (a2 * a2 + b2 * b2 + c2 * c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = a * b * c / np.sqrt(np.maximum(area16, 0.0))
    return np.where(non_acute | ~(area16 > 0.0), longest / 2.0, np.maximum(circum, longest / 2.0))


def triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.arange(n)
    I, J, K = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = (I < J) & (J < K)
    return I[mask], J[mask], K[mask]


def triangle_values(D: np.ndarray, kind: str) -> np.ndarray:
    i, j, k = triples(D.shape[0])
    if kind == "vr":
        return np.maximum(np.maximum(D[i, j], D[i, k]), D[j, k]) / 2.0
    return meb_radius(D[j, k], D[i, k], D[i, j])


def _in_pool(values: list[float], pool: np.ndarray) -> bool:
    """Every value lies within REL_TOL of some entry of the sorted pool."""
    if not values:
        return True
    v = np.asarray(values, dtype=float)
    pos = np.clip(np.searchsorted(pool, v), 1, len(pool) - 1)
    nearest = np.minimum(np.abs(pool[pos] - v), np.abs(pool[pos - 1] - v))
    return bool(np.all(nearest <= REL_TOL * np.maximum(1.0, np.abs(v))))


def mst_half_lengths(D: np.ndarray) -> np.ndarray:
    tree = minimum_spanning_tree(np.triu(D)).tocoo()
    return np.sort(tree.data / 2.0)


def mst_edges(D: np.ndarray) -> set[tuple[int, int]]:
    tree = minimum_spanning_tree(np.triu(D)).tocoo()
    return {(min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(tree.row, tree.col)}


def long_mask(D: np.ndarray, kind: str) -> np.ndarray:
    """Long edges of a full VR or Cech complex, from distances alone.

    An edge pq is Long when some v is strictly closer to p and to q than
    they are to each other; for Cech the angle at v must also be
    non-acute, so the triple's enclosing ball is the diametral one of pq.
    """
    n = D.shape[0]
    dpq = D[:, :, None]
    dpv = D[:, None, :]
    dqv = D[None, :, :]
    witness = (dpv < dpq) & (dqv < dpq)
    if kind == "cech":
        witness &= dpv * dpv + dqv * dqv <= dpq * dpq
    idx = np.arange(n)
    witness[idx, :, idx] = False
    witness[:, idx, idx] = False
    return witness.any(axis=2)


def check_classes(points: np.ndarray, kind: str, rows: list[tuple[int, int, str]]) -> None:
    """Every edge of the full complex appears once, with its true class."""
    D = distances(points)
    n = len(points)
    require(len(rows) == n * (n - 1) // 2, f"classify listed {len(rows)} edges, want {n * (n - 1) // 2}")
    seen = {(p, q) for p, q, _ in rows}
    require(len(seen) == len(rows), "classify listed an edge twice")
    short = mst_edges(D)
    long_ = long_mask(D, kind)
    for p, q, cls in rows:
        want = "Short" if (p, q) in short else ("Long" if long_[p, q] else "Medium")
        require(cls == want, f"edge ({p},{q}) classified {cls}, independent check says {want}")


def check_pd0(points: np.ndarray, pairs: list[tuple[float, float]]) -> None:
    """Dim-0 deaths are half the MST edge lengths; one infinite bar at 0."""
    finite = sorted(d for b, d in pairs if math.isfinite(d))
    infinite = [b for b, d in pairs if not math.isfinite(d)]
    require(all(b == 0.0 for b, _ in pairs), "dim-0 birth other than 0")
    require(len(infinite) == 1, f"{len(infinite)} infinite dim-0 bars, want 1")
    want = mst_half_lengths(distances(points))
    require(len(finite) == len(want), f"{len(finite)} finite dim-0 pairs, want {len(want)}")
    require(
        bool(np.all(np.abs(np.asarray(finite) - want) <= REL_TOL * np.maximum(1.0, want))),
        "dim-0 deaths differ from half the MST edge lengths",
    )


def betti1(points: np.ndarray, D: np.ndarray, kind: str, r: float) -> int:
    """Degree-1 Betti number of the complex at scale r, by GF(2) rank.

    `kind` is vr or cech; the planar alpha complex has the Cech complex's
    homotopy type at every scale, so delaunay diagrams are checked with cech.
    """
    n = len(points)
    iu, ju = np.triu_indices(n, k=1)
    keep = D[iu, ju] / 2.0 <= r
    ei, ej = iu[keep], ju[keep]
    index = {(int(a), int(b)): e for e, (a, b) in enumerate(zip(ei, ej))}
    adj = np.zeros((n, n), dtype=bool)
    adj[ei, ej] = True
    adj[ej, ei] = True
    _, labels = connected_components(adj, directed=False)
    components = int(labels.max()) + 1 if n else 0
    tris = [(a, b, c) for a, b in zip(ei, ej) for c in np.nonzero(adj[a] & adj[b])[0] if c > b]
    if tris and kind != "vr":
        t = np.asarray(tris)
        keep_t = meb_radius(D[t[:, 1], t[:, 2]], D[t[:, 0], t[:, 2]], D[t[:, 0], t[:, 1]]) <= r
        tris = [tri for tri, k in zip(tris, keep_t) if k]
    basis: dict[int, int] = {}
    rank = 0
    for a, b, c in tris:
        col = (1 << index[(int(a), int(b))]) | (1 << index[(int(a), int(c))]) | (1 << index[(int(b), int(c))])
        while col:
            low = col.bit_length() - 1
            if low not in basis:
                basis[low] = col
                rank += 1
                break
            col ^= basis[low]
    return len(ei) - (n - components) - rank


def thresholds(D: np.ndarray, edges_per_point: tuple[float, ...], avoid: list[float]) -> list[float]:
    """Scales with about k*n edges present.

    Each lies midway between two consecutive edge values and away from
    every value in `avoid` (the diagram's), so the count of bars alive
    there does not depend on float noise.
    """
    n = D.shape[0]
    half = np.sort(D[np.triu_indices(n, k=1)] / 2.0)
    avoid_arr = np.sort(np.asarray(avoid, dtype=float)) if avoid else np.empty(0)
    out = []
    for k in edges_per_point:
        m = min(max(int(k * n), 1), len(half) - 1)
        while m < len(half) - 1:
            r = (half[m - 1] + half[m]) / 2.0
            if avoid_arr.size == 0 or np.min(np.abs(avoid_arr - r)) > 1e-7 * r:
                out.append(float(r))
                break
            m += 1
    return out


def alive(pairs: list[tuple[float, float]], r: float) -> int:
    return sum(1 for b, d in pairs if b <= r < d)


def check_pd1(
    points: np.ndarray,
    kind: str,
    pairs: list[tuple[float, float]],
    full: bool = True,
    edges_per_point: tuple[float, ...] = (2.0, 3.5),
) -> None:
    """Structural and rank checks of a degree-1 diagram.

    Deaths exceed births and no bar is infinite (a full complex is simply
    connected at the top). For vr and cech every birth is an edge value and
    every death a triangle value. At a few scales early in the filtration
    the number of bars alive equals the independently computed Betti number.
    """
    D = distances(points)
    require(all(d > b for b, d in pairs), "dim-1 pair with death <= birth")
    if full:
        require(all(math.isfinite(d) for _, d in pairs), "infinite dim-1 bar in a full complex")
    n = len(points)
    values = [v for pair in pairs for v in pair if math.isfinite(v)]
    if kind in ("vr", "cech") and n >= 3:
        half = np.sort(D[np.triu_indices(n, k=1)] / 2.0)
        require(_in_pool([b for b, _ in pairs], half), "dim-1 birth that is no edge value")
        tri = half if kind == "vr" else np.sort(triangle_values(D, kind))
        require(_in_pool([d for _, d in pairs if math.isfinite(d)], tri), "dim-1 death that is no triangle value")
    rank_kind = "vr" if kind == "vr" else "cech"
    for r in thresholds(D, edges_per_point, values):
        got = alive(pairs, r)
        want = betti1(points, D, rank_kind, r)
        require(got == want, f"{got} dim-1 bars alive at scale {r:.6g}, Betti number is {want}")


def same_diagram(p1: list[tuple[float, float]], p2: list[tuple[float, float]], tol: float) -> bool:
    """Equal multisets up to tol, ignoring bars shorter than tol.

    Pairs are matched in sorted order, which is exact for clouds in general
    position where distinct bars are far apart compared with tol.
    """
    a = sorted((b, d) for b, d in p1 if d - b > tol)
    c = sorted((b, d) for b, d in p2 if d - b > tol)
    if len(a) != len(c):
        return False
    for (b1, d1), (b2, d2) in zip(a, c):
        if abs(b1 - b2) > tol:
            return False
        if math.isinf(d1) or math.isinf(d2):
            if d1 != d2:
                return False
        elif abs(d1 - d2) > tol:
            return False
    return True


def bottleneck(p1: list[tuple[float, float]], p2: list[tuple[float, float]]) -> float:
    """Exact bottleneck distance between two diagrams of finite pairs.

    Bisection over the candidate values (L-infinity distances between
    pairs, and each pair's distance to the diagonal) for the smallest
    threshold with a perfect matching, found by scipy's Hopcroft-Karp.
    Left nodes are p1 then a diagonal copy of each p2 pair; right nodes
    are p2 then a diagonal copy of each p1 pair. A pair may go to its own
    diagonal copy, and diagonal copies match each other at cost 0.
    """
    a = np.asarray(p1, dtype=float).reshape(-1, 2)
    b = np.asarray(p2, dtype=float).reshape(-1, 2)
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
        match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
        return bool(np.all(match >= 0))

    lo, hi = 0, len(candidates) - 1  # the largest candidate is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def parse_pd_csv(text: str) -> list[tuple[int, float, float]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "dim,birth,death", "pd output lacks its CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        require(len(parts) == 3, f"malformed pd row {line!r}")
        rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    return rows


def parse_classify_csv(text: str) -> list[tuple[int, int, str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "p,q,length,class", "classify output lacks its CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        require(len(parts) == 4, f"malformed classify row {line!r}")
        rows.append((int(parts[0]), int(parts[1]), parts[3]))
    return rows


def cloud_text(points: np.ndarray) -> str:
    return "".join(" ".join(repr(float(x)) for x in p) + "\n" for p in points)
