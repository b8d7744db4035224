"""Persistence diagrams by boundary reduction over GF(2), plus metrics.

Triangle columns of the boundary matrix are Python ints used as bitmasks
over the edge rows, so a column addition is one XOR and the pivot is
bit_length() - 1. Edge columns need no reduction: a union-find pass over
the edges in filtration order tells the edges that merge two components
(dim-0 deaths) from those that close a cycle.
"""

from __future__ import annotations

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


def _reduce(columns: list[int]) -> tuple[dict[int, int], list[int]]:
    """GF(2) column reduction in the given order.

    Returns (pairs, zero_columns): pairs maps pivot row -> column index,
    zero_columns lists indices of columns that reduced to zero.
    """
    pivot_col_mask: dict[int, int] = {}
    pivot_col_idx: dict[int, int] = {}
    zeros: list[int] = []
    for idx, col in enumerate(columns):
        low = col.bit_length() - 1
        while low >= 0 and low in pivot_col_mask:
            col ^= pivot_col_mask[low]
            low = col.bit_length() - 1
        if low >= 0:
            pivot_col_mask[low] = col
            pivot_col_idx[low] = idx
        else:
            zeros.append(idx)
    return pivot_col_idx, zeros


def compute_pd(complex: FilteredComplex, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the complex in dimension 0 or 1.

    Edges and triangles are stored sorted by (value, vertices), so
    reduction follows the filtration order. An edge kills a component
    exactly when its endpoints lie in different components as it enters,
    so one union-find pass gives the dim-0 deaths, with one infinite bar
    per component at the cap. Dim-1 pairs come from the triangle
    columns' edge pivots; an edge that closes a cycle and is no pivot is
    reported as infinite against the truncation scale.
    """
    if dim not in (0, 1):
        raise ValueError("only dimensions 0 and 1 are supported")
    uf = UnionFind(complex.n_vertices)
    merges = [uf.union(i, j) for i, j in zip(*complex.edge_vertices.T.tolist())]
    edge_values = complex.edge_values.tolist()

    if dim == 0:
        pairs = [(0.0, value) for value, merged in zip(edge_values, merges) if merged and value > 0.0]
        pairs.extend((0.0, math.inf) for _ in range(complex.n_vertices - sum(merges)))
        return PersistenceDiagram(0, tuple(pairs), complex.max_scale)

    tri_cols = [(1 << a) | (1 << b) | (1 << c) for a, b, c in zip(*complex.triangle_edges.T.tolist())]
    tri_pairs, _ = _reduce(tri_cols)
    tri_values = complex.triangle_values.tolist()
    pairs = []
    for edge_idx, tri_idx in tri_pairs.items():
        birth = edge_values[edge_idx]
        death = tri_values[tri_idx]
        if death > birth:
            pairs.append((birth, death))
    # any unpaired cycle-closing edge is a class still alive at the cap
    pairs.extend(
        (value, math.inf)
        for idx, (value, merged) in enumerate(zip(edge_values, merges))
        if not merged and idx not in tri_pairs
    )
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
