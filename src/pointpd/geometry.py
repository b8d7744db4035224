"""Euclidean primitives: point clouds, distances, rays, angles, enclosing radii.

Lengths sum their squares one coordinate at a time (`_norms`, `_distance_matrix`), so each equals
D bit for bit; only `_row_norms`, for the angle kernels, differs. Angles between directions are
computed with the two-argument arctangent form, which stays accurate for nearly parallel and
nearly opposite vectors where a plain arccos of the dot product loses digits. One kernel, `_extreme_angle`,
ranks rows by SIMD np.arctan2 and takes math.atan2 only near the extreme; `oriented_angle` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

# Points closer than this are treated as coincident (degenerate input).
COINCIDENT_TOL = 1e-12

# Default slack for angle-threshold comparisons (radians).
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class PointCloud:
    """Finite ordered list of points in R^N.

    Args:
        points: array-like of shape (n, N), n >= 1. Coordinates must be
            finite. The array is copied and frozen.
    """

    points: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got ndim={pts.ndim}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if pts.shape[1] < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n_points

    def __getitem__(self, i: int) -> npt.NDArray[np.float64]:
        return self.points[i]

    def diameter(self) -> float:
        """Largest pairwise distance (0.0 for a single point)."""
        return float(_distance_matrix(self.points).max())


def _norms(diff: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Euclidean lengths along the last axis (of 2 or more axes), summed in `_distance_matrix`'s order."""
    first, *rest = np.moveaxis(diff, -1, 0)
    total = first * first
    for x in rest:
        total += x * x
    return np.sqrt(total, out=total)


def _distance_matrix(points: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Distances in a cloud (n, d) or each cloud of (T, n, d): bit for bit `_norms` of the differences, never stored."""
    first, *rest = np.moveaxis(points, -1, 0)
    D = first[..., :, None] - first[..., None, :]
    D *= D
    square = np.empty_like(D)
    for x in rest:
        np.subtract(x[..., :, None], x[..., None, :], out=square)
        square *= square
        D += square
    return np.sqrt(D, out=D)


def _as_cloud(cloud: PointCloud | npt.ArrayLike) -> PointCloud:
    """The cloud itself, or a validated PointCloud of the given coordinates."""
    if isinstance(cloud, PointCloud):
        return cloud
    return PointCloud(np.asarray(cloud, dtype=np.float64))


def _unit(d: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """A finite nonzero vector over its Euclidean norm.

    Only a vector whose largest coordinate passes 2**500, so that its squared norm can overflow, or stays below
    2**-500, so that its squares can underflow, is scaled first, by an exact power of two; every other vector
    keeps `d / np.linalg.norm(d)` bit for bit.

    Raises:
        ValueError: the vector is zero.
    """
    exponent = math.frexp(float(np.max(np.abs(d), initial=0.0)))[1]
    if abs(exponent) > 500:
        d = np.ldexp(d, -exponent)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    return d / norm


@dataclass(frozen=True)
class Ray:
    """Ray from `vertex` in unit direction `direction`.

    A nonzero direction of any length is accepted and normalized.
    """

    vertex: npt.NDArray[np.float64]
    direction: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        v = np.array(self.vertex, dtype=np.float64, copy=True)
        d = np.array(self.direction, dtype=np.float64, copy=True)
        if v.ndim != 1 or d.ndim != 1:
            raise ValueError("vertex and direction must be 1-d arrays")
        if v.shape != d.shape:
            raise ValueError(
                f"vertex and direction dimensions differ: {v.shape} vs {d.shape}"
            )
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise ValueError("ray coordinates must be finite")
        d = _unit(d)
        v.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "direction", d)

    @property
    def dim(self) -> int:
        return self.vertex.shape[0]


def _row_norms(x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Euclidean norm of every row, equal bit for bit to 1-D np.linalg.norm (sqrt of the same dot): the one length
    not summed as `_norms` sums it, since the loop oracles pin the angle kernels and `distance_multiset` to it."""
    return np.sqrt(np.vecdot(x, x))


def _half_angle_sides(rows: npt.NDArray[np.float64], v: npt.NDArray[np.float64], nu) -> tuple[np.ndarray, np.ndarray]:
    """The atan2 arguments |u^ - v^| and |u^ + v^| of each row u's oriented angle against v, given the rows'
    `_row_norms` nu (callers check them first); ValueError if v or some row is (numerically) zero."""
    nv = float(np.linalg.norm(v))
    if nv < COINCIDENT_TOL or (nu < COINCIDENT_TOL).any():
        raise ValueError("cannot measure the angle of a zero vector")
    uh = rows / nu[:, None]
    vh = v / nv
    return _row_norms(uh - vh), _row_norms(uh + vh)


def _extreme_angle(rows: npt.NDArray[np.float64], v: npt.NDArray[np.float64], nu, pick=np.max, fold=False) -> float:
    """pick (np.max or np.min) of the rows' `oriented_angle`s against v, the rows' norms nu given, each angle phi first
    folded to min(phi, pi - phi) if fold.

    SIMD np.arctan2 only ranks the rows; math.atan2 decides among those ranked within 1e-12 rad of the extreme. The
    two differ by an ulp or two, under 1e-15 rad up to pi, so the exact extreme's row always ranks inside the margin.
    """
    a, b = _half_angle_sides(rows, v, nu)

    def angles(half: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:  # 2 * half, folded if fold
        return np.minimum(2.0 * half, math.pi - 2.0 * half) if fold else 2.0 * half

    ranked = angles(np.arctan2(a, b))
    near = np.flatnonzero(~(np.abs(ranked - pick(ranked)) > 1e-12))  # a NaN angle (an inf row) stays NaN
    return float(pick(angles(np.array([math.atan2(a[i], b[i]) for i in near.tolist()], dtype=np.float64))))


def oriented_angle(u: npt.NDArray[np.float64], v: npt.NDArray[np.float64]) -> float:
    """Angle in [0, pi] between nonzero vectors u and v.

    Uses 2*atan2(|u^ - v^|, |u^ + v^|) on the normalized vectors, which is
    exact at 0 and pi and does not suffer the arccos cancellation near
    either end.
    """
    rows = np.asarray(u, dtype=np.float64)[None, :]
    return _extreme_angle(rows, np.asarray(v, dtype=np.float64), _row_norms(rows))


def segment_angle(
    a: npt.NDArray[np.float64],
    b: npt.NDArray[np.float64],
    c: npt.NDArray[np.float64],
    d: npt.NDArray[np.float64],
) -> float:
    """Unoriented angle in [0, pi/2] between segments [a,b] and [c,d].

    The segments are treated as undirected lines: the result is the acute
    angle between their directions, independent of endpoint order.

    Raises:
        ValueError: if either segment has (numerically) zero length.
    """
    a, b, c, d = (np.asarray(x, dtype=np.float64) for x in (a, b, c, d))
    u = b - a
    v = d - c
    if float(np.linalg.norm(u)) < COINCIDENT_TOL or float(np.linalg.norm(v)) < COINCIDENT_TOL:
        raise ValueError("degenerate segment: endpoints coincide")
    phi = oriented_angle(u, v)
    return min(phi, math.pi - phi)


def angular_deviation(points: npt.NDArray[np.float64] | PointCloud, ray: Ray) -> float:
    """Largest angle any chord of `points` makes with the axis of `ray`.

    Every unordered pair of points defines a segment; the result is the
    maximum of segment_angle between those segments and the ray's line.
    Lies in [0, pi/2]; unoriented, so reversing the ray changes nothing,
    and only the ray's direction counts, not where its vertex sits.

    Args:
        points: at least 2 pairwise distinct points, shape (n, N).
        ray: the reference axis.

    Raises:
        ValueError: fewer than 2 points, or coincident points.
    """
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("angular deviation needs at least 2 points")
    if pts.shape[1] != ray.dim:
        raise ValueError("points and ray live in different dimensions")
    upper = ~np.tri(pts.shape[0], dtype=bool)  # the pairs i < j, in np.triu_indices order
    chords = np.stack([(x - x[:, None])[upper] for x in pts.T], axis=1)  # pts[j] - pts[i], a coordinate at a time
    short = np.flatnonzero((norms := _row_norms(chords)) < COINCIDENT_TOL)
    if short.size:
        i, j = np.nonzero(upper)
        raise ValueError(f"coincident points at indices {i[short[0]]} and {j[short[0]]}")
    return _extreme_angle(chords, ray.direction, norms, fold=True)


def angular_thickness(points: npt.NDArray[np.float64] | PointCloud, ray: Ray) -> float:
    """Largest oriented angle from the ray direction to any point after the first.

    The first point must sit on the ray vertex; each later point p
    contributes the oriented angle between ray.direction and p - vertex.
    Lies in [0, pi]. A single point has thickness 0 by convention.

    Raises:
        ValueError: first point off the ray vertex, or a later point
            coincident with it.
    """
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("angular thickness needs at least 1 point")
    if pts.shape[1] != ray.dim:
        raise ValueError("points and ray live in different dimensions")
    if float(np.linalg.norm(pts[0] - ray.vertex)) > COINCIDENT_TOL:
        raise ValueError("first point must coincide with the ray vertex")
    offs = pts[1:] - pts[0]
    short = np.flatnonzero((norms := _row_norms(offs)) < COINCIDENT_TOL)
    if short.size:
        raise ValueError(f"point {short[0] + 1} coincides with the ray vertex")
    return _extreme_angle(offs, ray.direction, norms) if len(offs) else 0.0


def min_ray_angle(cloud: PointCloud, v: int, ray: Ray) -> float:
    """Smallest oriented angle between the ray direction and any other point.

    Args:
        cloud: at least 2 points.
        v: index of the ray's base point in `cloud`.
        ray: its vertex must coincide with cloud[v].

    Returns:
        min over p in cloud, p != cloud[v], of the oriented angle between
        ray.direction and p - cloud[v]. In [0, pi].

    Raises:
        ValueError: singleton cloud, vertex mismatch, or another point of
            the cloud coinciding with cloud[v].
    """
    if not 0 <= v < cloud.n_points:
        raise IndexError(f"vertex index {v} out of range for {cloud.n_points} points")
    if cloud.n_points < 2:
        raise ValueError("min ray angle needs at least 2 points")
    if cloud.dim != ray.dim:
        raise ValueError("cloud and ray live in different dimensions")
    base = cloud.points[v]
    if float(np.linalg.norm(base - ray.vertex)) > COINCIDENT_TOL:
        raise ValueError("ray vertex must coincide with the indexed cloud point")
    others = np.delete(np.arange(cloud.n_points), v)
    offs = cloud.points[others] - base
    short = np.flatnonzero((norms := _row_norms(offs)) < COINCIDENT_TOL)
    if short.size:
        raise ValueError(f"point {others[short[0]]} duplicates the ray base point {v}")
    return _extreme_angle(offs, ray.direction, norms, np.min)


def enclosing_radius_3(
    p: npt.NDArray[np.float64],
    q: npt.NDArray[np.float64],
    r: npt.NDArray[np.float64],
) -> float:
    """Radius of the smallest ball enclosing three points (any ambient dim).

    If the angle opposite the longest side is non-acute (collinear and
    coincident cases included), the ball spans that side: radius is half
    the longest pairwise distance. Otherwise the triple is an acute
    triangle and the radius is its circumradius.
    """
    p, q, r = (np.asarray(x, dtype=np.float64) for x in (p, q, r))
    pts = [p, q, r]
    # side k is opposite vertex k
    sides = [
        float(np.linalg.norm(q - r)),
        float(np.linalg.norm(p - r)),
        float(np.linalg.norm(p - q)),
    ]
    k = int(np.argmax(sides))
    a, b = [pts[i] for i in range(3) if i != k]
    w = pts[k]
    if float(np.dot(a - w, b - w)) <= 0.0:
        return sides[k] / 2.0
    # acute triangle: circumradius a*b*c / 4K with K from the cross norm
    u = q - p
    v = r - p
    gram = float(np.dot(u, u)) * float(np.dot(v, v)) - float(np.dot(u, v)) ** 2
    area2 = math.sqrt(max(gram, 0.0))  # = 2 * triangle area
    if area2 <= 0.0:
        return sides[k] / 2.0
    return sides[0] * sides[1] * sides[2] / (2.0 * area2)


def non_acute_at(
    v: npt.NDArray[np.float64],
    p: npt.NDArray[np.float64],
    q: npt.NDArray[np.float64],
) -> bool:
    """True when the angle at v in the triple (p, v, q) is >= pi/2.

    Decided by the exact sign of (p - v) . (q - v); a right angle counts
    as non-acute.

    Raises:
        ValueError: if v coincides with p or q.
    """
    v, p, q = (np.asarray(x, dtype=np.float64) for x in (v, p, q))
    if float(np.linalg.norm(p - v)) < COINCIDENT_TOL or float(np.linalg.norm(q - v)) < COINCIDENT_TOL:
        raise ValueError("angle vertex coincides with an endpoint")
    return float(np.dot(p - v, q - v)) <= 0.0
