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

from collections.abc import Iterator
from enum import Enum

import numpy as np
import numpy.typing as npt

from .filtration import FilteredComplex
from .geometry import PointCloud, _as_cloud, enclosing_radius_3, non_acute_at

Edge = tuple[int, int]


class EdgeClass(Enum):
    SHORT = "Short"
    MEDIUM = "Medium"
    LONG = "Long"


class ConsistencyError(RuntimeError):
    """An edge tested both Short and Long; the taxonomy forbids that."""


def _long_mask(complex: FilteredComplex) -> npt.NDArray[np.bool_]:
    """Per edge: some triangle enters with it over two strictly earlier edges (the complex's coface pass)."""
    return complex._cofaces.long


def _class_masks(complex: FilteredComplex) -> tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]]:
    """Short and Long mask per edge, in the complex's edge order: Short from the
    complex's union-find pass, Long from its coface pass.

    Raises:
        ConsistencyError: for the first edge in filtration order that
            passes both the Short and the Long test.
    """
    short_mask = complex._components.short
    long_mask = _long_mask(complex)
    both = np.flatnonzero(short_mask & long_mask)
    if both.size:
        e = int(both[0])
        edge, value = tuple(complex.edge_vertices[e].tolist()), complex.edge_values[e].item()
        raise ConsistencyError(f"edge {edge} tested both short and long at value {value}")
    return short_mask, long_mask


def _edge_classes(complex: FilteredComplex) -> npt.NDArray[np.object_]:
    """Each edge's EdgeClass, in the complex's edge order; raises ConsistencyError as _class_masks does."""
    short_mask, long_mask = _class_masks(complex)
    return np.where(short_mask, EdgeClass.SHORT, np.where(long_mask, EdgeClass.LONG, EdgeClass.MEDIUM))


def classify_all(complex: FilteredComplex) -> dict[Edge, EdgeClass]:
    """Classify every edge of the complex.

    Returns a map from the edge's (i, j) vertex pair to its class, i < j.

    Raises:
        ConsistencyError: if any edge passes both the Short and the Long
            test (the classes are provably disjoint, so this flags a bug).
    """
    return dict(zip(zip(*complex.edge_vertices.T.tolist()), _edge_classes(complex).tolist()))


def classify_edge(complex: FilteredComplex, e: int) -> EdgeClass:
    """Class of the edge at index `e` in the complex's edge list.

    Reads the same cached passes as classify_all, ties included.

    Raises:
        IndexError: index out of range.
        ConsistencyError: as in classify_all.
    """
    m = len(complex.edge_values)
    if not 0 <= e < m:
        raise IndexError(f"edge index {e} out of range for {m} edges")
    short_mask, long_mask = _class_masks(complex)
    return EdgeClass.SHORT if short_mask[e] else EdgeClass.LONG if long_mask[e] else EdgeClass.MEDIUM


def _check_pair(cloud: PointCloud, p: int, q: int) -> None:
    n = cloud.n_points
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"vertex pair ({p}, {q}) out of range for {n} points")
    if p == q:
        raise ValueError("an edge needs two distinct vertices")


def _vr_witnesses(cloud: PointCloud, p: int, q: int) -> Iterator[int]:
    """Third points strictly closer to both p and q than they are to each other."""
    _check_pair(cloud, p, q)
    pts = cloud.points
    d_pq = float(np.linalg.norm(pts[p] - pts[q]))
    return (
        v
        for v in range(cloud.n_points)
        if v not in (p, q)
        and float(np.linalg.norm(pts[p] - pts[v])) < d_pq
        and float(np.linalg.norm(pts[q] - pts[v])) < d_pq
    )


def long_by_vr(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Distance characterization of Long for Vietoris-Rips.

    True iff some third point v is strictly closer to both p and q than
    they are to each other.
    """
    return next(_vr_witnesses(_as_cloud(cloud), p, q), None) is not None


def long_by_cech(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Characterization of Long for Cech.

    True iff some third point v is strictly closer to both endpoints than
    the edge length and the triple's enclosing ball at half the edge
    length already covers all three points. For a triple that covering
    condition is the same as a non-acute angle at v.
    """
    cloud = _as_cloud(cloud)
    witnesses = _vr_witnesses(cloud, p, q)
    pts = cloud.points
    half = float(np.linalg.norm(pts[p] - pts[q])) / 2.0
    return any(enclosing_radius_3(pts[p], pts[q], pts[v]) <= half for v in witnesses)


def long_by_delaunay(cloud: PointCloud | npt.NDArray[np.float64], p: int, q: int) -> bool:
    """Angle characterization of Long for the planar alpha filtration.

    True iff some third point sees the segment [p, q] under a non-acute
    angle. Only meaningful for edges of the Delaunay triangulation.
    """
    cloud = _as_cloud(cloud)
    if cloud.dim != 2:
        raise ValueError("the Delaunay characterization is planar only")
    _check_pair(cloud, p, q)
    pts = cloud.points
    return any(
        non_acute_at(pts[v], pts[p], pts[q])
        for v in range(cloud.n_points)
        if v not in (p, q)
    )
