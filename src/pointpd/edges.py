"""Short / Medium / Long edge taxonomy for filtered complexes.

An edge is Short when removing it (but keeping every other edge up to and
including its own scale) disconnects its endpoints; Long when some
triangle enters the filtration together with it while the triangle's two
other edges entered strictly earlier; Medium otherwise. The two tests are
mutually exclusive, so hitting both is an internal error.

The `long_by_*` functions are independent distance/angle characterizations
of the Long class, implemented directly from the cloud coordinates so they
share no code with the classifier.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
import numpy.typing as npt

from .filtration import FilteredComplex
from .geometry import PointCloud, enclosing_radius_3, non_acute_at
from .unionfind import UnionFind

Edge = tuple[int, int]


class EdgeClass(Enum):
    SHORT = "Short"
    MEDIUM = "Medium"
    LONG = "Long"


class ConsistencyError(RuntimeError):
    """An edge tested both Short and Long; the taxonomy forbids that."""


def _long_mask(complex: FilteredComplex) -> npt.NDArray[np.bool_]:
    """Per edge: some triangle enters with it over two strictly earlier edges.

    Faces never enter after their triangle, so a boundary edge either
    entered strictly earlier or carries the triangle's value exactly.
    """
    earlier = complex.edge_values[complex.triangle_edges] < complex.triangle_values[:, None]
    witness = ~earlier & (earlier.sum(axis=1) == 2)[:, None]
    mask = np.zeros(len(complex.edge_values), dtype=bool)
    mask[complex.triangle_edges[witness]] = True
    return mask


def _edge_class(edge: Edge, value: float, short: bool, is_long: bool) -> EdgeClass:
    if short and is_long:
        raise ConsistencyError(f"edge {edge} tested both short and long at value {value}")
    if short:
        return EdgeClass.SHORT
    if is_long:
        return EdgeClass.LONG
    return EdgeClass.MEDIUM


def classify_all(complex: FilteredComplex) -> dict[Edge, EdgeClass]:
    """Classify every edge of the complex.

    Returns a map from the edge's (i, j) vertex pair to its class, i < j.

    Raises:
        ConsistencyError: if any edge passes both the Short and the Long
            test (the classes are provably disjoint, so this flags a bug).
    """
    long_mask = _long_mask(complex).tolist()
    edges = list(zip(*complex.edge_vertices.T.tolist()))
    values = complex.edge_values.tolist()
    result: dict[Edge, EdgeClass] = {}
    uf = UnionFind(complex.n_vertices)
    pos = 0
    while pos < len(edges):
        # edges tied at one scale: each Short test sees the others
        group_end = pos
        value = values[pos]
        while group_end < len(edges) and values[group_end] == value:
            group_end += 1
        group = range(pos, group_end)
        for idx in group:
            probe = uf  # a lone edge needs no copy: nothing else enters with it
            if len(group) > 1:
                probe = uf.clone()
                for other in group:
                    if other != idx:
                        probe.union(*edges[other])
            p, q = edges[idx]
            short = probe.find(p) != probe.find(q)
            result[edges[idx]] = _edge_class(edges[idx], value, short, long_mask[idx])
        for idx in group:
            uf.union(*edges[idx])
        pos = group_end
    return result


def classify_edge(complex: FilteredComplex, e: int) -> EdgeClass:
    """Class of the edge at index `e` in the complex's edge list.

    Raises:
        IndexError: index out of range.
        ConsistencyError: as in classify_all.
    """
    m = len(complex.edge_values)
    if not 0 <= e < m:
        raise IndexError(f"edge index {e} out of range for {m} edges")
    edges = list(zip(*complex.edge_vertices.T.tolist()))
    values = complex.edge_values.tolist()
    target, target_value = edges[e], values[e]
    uf = UnionFind(complex.n_vertices)
    for other, value in zip(edges, values):
        if value > target_value:
            break
        if other != target:
            uf.union(*other)
    p, q = target
    short = uf.find(p) != uf.find(q)
    return _edge_class(target, target_value, short, bool(_long_mask(complex)[e]))


def _check_pair(cloud: PointCloud, p: int, q: int) -> None:
    n = cloud.n_points
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"vertex pair ({p}, {q}) out of range for {n} points")
    if p == q:
        raise ValueError("an edge needs two distinct vertices")


def long_by_vr(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Distance characterization of Long for Vietoris-Rips.

    True iff some third point v is strictly closer to both p and q than
    they are to each other.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    _check_pair(cloud, p, q)
    pts = cloud.points
    d_pq = float(np.linalg.norm(pts[p] - pts[q]))
    for v in range(cloud.n_points):
        if v in (p, q):
            continue
        if (
            float(np.linalg.norm(pts[p] - pts[v])) < d_pq
            and float(np.linalg.norm(pts[q] - pts[v])) < d_pq
        ):
            return True
    return False


def long_by_cech(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Characterization of Long for Cech.

    True iff some third point v is strictly closer to both endpoints than
    the edge length and the triple's enclosing ball at half the edge
    length already covers all three points. For a triple that covering
    condition is the same as a non-acute angle at v.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    _check_pair(cloud, p, q)
    pts = cloud.points
    d_pq = float(np.linalg.norm(pts[p] - pts[q]))
    for v in range(cloud.n_points):
        if v in (p, q):
            continue
        if not (
            float(np.linalg.norm(pts[p] - pts[v])) < d_pq
            and float(np.linalg.norm(pts[q] - pts[v])) < d_pq
        ):
            continue
        if enclosing_radius_3(pts[p], pts[q], pts[v]) <= d_pq / 2.0:
            return True
    return False


def long_by_delaunay(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Angle characterization of Long for the planar alpha filtration.

    True iff some third point sees the segment [p, q] under a non-acute
    angle. Only meaningful for edges of the Delaunay triangulation.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    if cloud.dim != 2:
        raise ValueError("the Delaunay characterization is planar only")
    _check_pair(cloud, p, q)
    pts = cloud.points
    return any(
        non_acute_at(pts[v], pts[p], pts[q])
        for v in range(cloud.n_points)
        if v not in (p, q)
    )
