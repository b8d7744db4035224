"""Persistence diagrams by union-find and cohomology over GF(2), plus metrics.

Dim 1 reduces the coboundary matrix, which has the boundary matrix's pairs
(de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011), with two shortcuts from Bauer,
"Ripser" (J. Appl. Comput. Topol. 2021): clearing and apparent pairs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .filtration import FilteredComplex
from .geometry import PointCloud
from .unionfind import UnionFind

Pair = tuple[float, float]


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs in one homology dimension.

    Zero-persistence pairs are never stored. `truncation_scale` echoes the
    cap of the complex the diagram came from (None when unknown, e.g.
    after deserialization); death = inf marks classes alive at that cap.
    """

    dim: int
    pairs: tuple[Pair, ...]
    truncation_scale: float | None = None

    def __post_init__(self) -> None:
        if self.dim not in (0, 1):
            raise ValueError("only dimensions 0 and 1 are supported")
        cleaned = []
        for birth, death in self.pairs:
            birth = float(birth)
            death = float(death)
            if not death > birth:
                raise ValueError(f"death must exceed birth, got ({birth}, {death})")
            cleaned.append((birth, death))
        cleaned.sort()
        object.__setattr__(self, "pairs", tuple(cleaned))

    @property
    def finite_pairs(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if math.isfinite(p[1]))

    @property
    def infinite_pairs(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if math.isinf(p[1]))

    def persistences(self) -> list[float]:
        """Sorted death - birth over the finite pairs."""
        return sorted(d - b for b, d in self.finite_pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GapStats:
    """Widest and second-widest consecutive gap of sorted persistences."""

    gap1: float
    gap2: float
    ratio: float
    persistences: tuple[float, ...]


def _coboundary(triangle_edges_flat: npt.NDArray[np.intp], edge: int) -> set[int]:
    """Rows of the triangles that have the edge as a face."""
    return set((np.flatnonzero(triangle_edges_flat == edge) // 3).tolist())


def compute_pd(complex: FilteredComplex, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the complex in dimension 0 or 1.

    Dim 0: an edge that joins two components is a death, and each
    component left at the cap is an infinite bar. Dim 1: cohomology over
    the cycle-closing edges, youngest first, with the merge edges cleared.
    A column whose oldest coface is still free pairs with it unbuilt (an
    apparent pair; off ties, every Long edge does so at zero persistence).
    The rest are built and reduced; one that reduces to zero is a class
    alive at the cap (death = inf). Zero-persistence pairs are dropped.
    """
    if dim not in (0, 1):
        raise ValueError("only dimensions 0 and 1 are supported")
    uf = UnionFind(complex.n_vertices)
    merges = [uf.union(i, j) for i, j in zip(*complex.edge_vertices.T.tolist())]

    if dim == 0:
        deaths = complex.edge_values[merges].tolist()
        pairs = [(0.0, value) for value in deaths if value > 0.0]
        pairs.extend((0.0, math.inf) for _ in range(complex.n_vertices - len(deaths)))
        return PersistenceDiagram(0, tuple(pairs), complex.max_scale)

    flat = complex.triangle_edges.ravel()
    t = len(complex.triangle_values)  # the pivot of a zero column; never a key of `columns`
    first = np.full(len(merges), t, dtype=np.intp)
    np.minimum.at(first, flat, np.repeat(np.arange(t), 3))
    oldest = first.tolist()
    # pivot triangle -> its column: the edge id while unreduced, else a row set
    columns: dict[int, int | set[int]] = {}
    born, died = [], []
    for edge in reversed(range(len(merges))):
        if merges[edge]:
            continue
        pivot, column = oldest[edge], edge
        if pivot in columns:
            column = _coboundary(flat, edge)
            heap = sorted(column)  # rows of the column and stale rows, popped lazily
            while pivot in columns:
                other = columns[pivot]
                if isinstance(other, int):
                    other = columns[pivot] = _coboundary(flat, other)
                column ^= other
                for row in other:
                    heapq.heappush(heap, row)
                while heap and heap[0] not in column:
                    heapq.heappop(heap)
                pivot = heap[0] if heap else t
        if pivot < t:
            columns[pivot] = column
        born.append(edge)
        died.append(pivot)
    births = complex.edge_values[born]
    deaths = np.append(complex.triangle_values, math.inf)[died]
    pairs = zip(births[deaths > births].tolist(), deaths[deaths > births].tolist())
    return PersistenceDiagram(1, tuple(pairs), complex.max_scale)


def mst(cloud: PointCloud | npt.NDArray[np.float64]) -> list[tuple[tuple[int, int], float]]:
    """Euclidean minimum spanning tree by Kruskal.

    Ties are broken by lexicographic edge order, so the result is
    deterministic. Returns ((i, j), length) in acceptance order.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    pts = cloud.points
    n = cloud.n_points
    candidates = sorted(
        (float(np.linalg.norm(pts[i] - pts[j])), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    uf = UnionFind(n)
    out = []
    for d, i, j in candidates:
        if uf.union(i, j):
            out.append(((i, j), d))
            if len(out) == n - 1:
                break
    return out


def _kuhn_match(n_left: int, n_right: int, adj: list[list[int]]) -> int:
    """Maximum bipartite matching size (augmenting paths)."""
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


def _linf(a: Pair, b: Pair) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance between two diagrams of the same dimension.

    Finite points may match each other or their diagonal projection;
    infinite bars must match each other (count mismatch gives +inf, and
    matched infinite bars contribute their birth difference).
    """
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    inf1 = sorted(b for b, _ in d1.infinite_pairs)
    inf2 = sorted(b for b, _ in d2.infinite_pairs)
    if len(inf1) != len(inf2):
        return math.inf
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
        return math.inf
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(floor, candidates[lo])


def diagram_equal(d1: PersistenceDiagram, d2: PersistenceDiagram, tol: float = 0.0) -> bool:
    """True iff the multisets match under a perfect pairing within L-inf tol.

    No diagonal matching: cardinalities must agree exactly. tol = 0 is
    exact multiset equality.
    """
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    if len(d1.pairs) != len(d2.pairs):
        return False
    inf1 = sorted(b for b, _ in d1.infinite_pairs)
    inf2 = sorted(b for b, _ in d2.infinite_pairs)
    if len(inf1) != len(inf2):
        return False
    if any(abs(a - b) > tol for a, b in zip(inf1, inf2)):
        return False
    pts1 = list(d1.finite_pairs)
    pts2 = list(d2.finite_pairs)
    if tol == 0.0:
        return sorted(pts1) == sorted(pts2)
    m = len(pts1)
    adj = [[j for j in range(m) if _linf(pts1[i], pts2[j]) <= tol] for i in range(m)]
    return _kuhn_match(m, m, adj) == m


def gap_stats(diagram: PersistenceDiagram) -> GapStats:
    """Widest-gap statistics of a dimension-1 diagram's finite persistences.

    Raises:
        ValueError: diagram not 1-dimensional, fewer than 2 finite pairs
            ("gap ratio undefined"), or exactly 2 ("second gap undefined").
    """
    if diagram.dim != 1:
        raise ValueError("gap statistics are defined for dimension-1 diagrams")
    pers = diagram.persistences()
    if len(pers) < 2:
        raise ValueError("gap ratio undefined: need at least 2 finite pairs")
    gaps = sorted((b - a for a, b in zip(pers, pers[1:])), reverse=True)
    if len(gaps) < 2:
        raise ValueError("second gap undefined: need at least 3 finite pairs")
    gap1, gap2 = gaps[0], gaps[1]
    ratio = math.inf if gap2 == 0.0 else gap1 / gap2
    return GapStats(gap1, gap2, ratio, tuple(pers))


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def diagrams_to_csv(diagrams: list[PersistenceDiagram]) -> str:
    """Serialize diagrams as CSV: header dim,birth,death, rows sorted."""
    lines = ["dim,birth,death"]
    for d in sorted(diagrams, key=lambda d: d.dim):
        for birth, death in d.pairs:
            lines.append(f"{d.dim},{_fmt(birth)},{_fmt(death)}")
    return "\n".join(lines) + "\n"


def diagrams_from_csv(text: str) -> list[PersistenceDiagram]:
    """Parse the CSV produced by diagrams_to_csv (truncation unknown)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "dim,birth,death":
        raise ValueError("missing dim,birth,death header")
    by_dim: dict[int, list[Pair]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed diagram row: {ln!r}")
        dim = int(parts[0])
        by_dim.setdefault(dim, []).append((float(parts[1]), float(parts[2])))
    return [
        PersistenceDiagram(dim, tuple(pairs), None)
        for dim, pairs in sorted(by_dim.items())
    ]
