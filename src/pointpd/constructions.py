"""Equal-persistence constructions: tails, long wedges, tail attachment.

A tail is an ordered near-collinear point run whose successive edges are
Short and whose skip edges are Long; such runs contribute nothing to the
degree-1 diagram. Attaching a tail to a cloud at a sufficiently exposed
vertex (min ray angle at least the tail's angular thickness plus pi/2)
leaves the cloud's degree-1 diagram unchanged; this module generates the
instances and verifies the claims with the classifier and the diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .edges import EdgeClass, classify_all
from .filtration import FilteredComplex, FiltrationKind, _norms, build_complex
from .geometry import (
    ANGLE_TOL,
    COINCIDENT_TOL,
    PointCloud,
    Ray,
    _as_cloud,
    _row_norms,
    angular_deviation,
    angular_thickness,
    min_ray_angle,
)
from .persistence import PersistenceDiagram, compute_pd, diagram_equal

Edge = tuple[int, int]


class HypothesisError(ValueError):
    """An attachment violates the angle hypothesis mu >= theta + pi/2."""

    report: AttachReport | None = None  # the failed attachment, set where the library raises


@dataclass(frozen=True)
class TailSpec:
    """Recipe for a generated tail.

    cone_half_angle bounds both the angular deviation and the angular
    thickness of the output and must stay strictly below pi/4.
    """

    ray: Ray
    n: int
    spacing_min: float
    spacing_max: float
    cone_half_angle: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a tail needs at least one point")
        if not self.spacing_min > 0.0:
            raise ValueError("spacing_min must be positive")
        if not math.isfinite(self.spacing_max):
            raise ValueError(f"spacing_max must be finite, got {self.spacing_max}")
        if self.spacing_max < self.spacing_min:
            raise ValueError("spacing_max must be at least spacing_min")
        if not 0.0 <= self.cone_half_angle < math.pi / 4.0:
            raise ValueError("cone_half_angle must lie in [0, pi/4)")


@dataclass(frozen=True)
class TailCheck:
    """Outcome of validate_tail: verdict plus the full class trace."""

    ok: bool
    classes: dict[Edge, EdgeClass]
    failures: tuple[tuple[Edge, EdgeClass | None], ...]


@dataclass(frozen=True)
class AttachReport:
    """Angles governing a tail attachment.

    mu: smallest oriented angle from the ray to any other cloud point
        (+inf for a singleton cloud). theta: angular thickness of the
        tail. hypothesis_ok: mu >= theta + pi/2 up to the angle tolerance.
    """

    mu: float
    theta: float
    hypothesis_ok: bool


@dataclass(frozen=True)
class WedgeReport:
    is_long_wedge: bool
    offending_edges: tuple[tuple[Edge, EdgeClass], ...]
    pd_union_ok: bool
    union_diagram: PersistenceDiagram
    component_diagrams: tuple[PersistenceDiagram, ...]


@dataclass(frozen=True)
class TailTheoremReport:
    """Which of the three equal-persistence readings hold for an instance."""

    mu: float
    theta: float
    union: PointCloud
    tail_trivial: bool
    union_equals_base_plus_tail: bool
    union_equals_base: bool
    union_diagram: PersistenceDiagram
    base_diagram: PersistenceDiagram
    tail_diagram: PersistenceDiagram


def _orthonormal_complement(direction: np.ndarray) -> np.ndarray:
    """Columns spanning the hyperplane orthogonal to a unit direction."""
    dim = direction.shape[0]
    if dim == 1:
        return np.zeros((1, 0))
    m = np.concatenate([direction[:, None], np.eye(dim)], axis=1)
    q, _ = np.linalg.qr(m)
    return q[:, 1:dim]


def generate_tail(spec: TailSpec) -> PointCloud:
    """Generate a tail: ordered points along spec.ray within its cone.

    Projections onto the ray increase strictly with consecutive gaps in
    [spacing_min, spacing_max]. Each point's transverse offset is at most
    tan(cone)/2 times its smallest projection gap to any other point,
    which forces the angular deviation to stay at or below the cone angle
    (every chord's slope against the ray is under tan(cone)) and the
    angular thickness strictly under it. Both bounds are re-validated;
    a violation means a construction bug and raises.
    """
    rng = np.random.default_rng(spec.seed)
    ray = spec.ray
    n = spec.n
    if n == 1:
        return PointCloud(ray.vertex[None, :].copy())
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
    tail = PointCloud(points)
    omega = angular_deviation(tail, ray)
    theta = angular_thickness(tail, ray)
    if not omega < math.pi / 4.0:
        raise RuntimeError(f"tail construction bug: angular deviation {omega} >= pi/4")
    # ANGLE_TOL absorbs the rounding noise of exactly collinear points
    if theta > spec.cone_half_angle + ANGLE_TOL:
        raise RuntimeError(
            f"tail construction bug: angular thickness {theta} exceeds cone {spec.cone_half_angle}"
        )
    return tail


def validate_tail(
    tail: PointCloud | np.ndarray,
    kind: FiltrationKind | str,
) -> TailCheck:
    """Check the definition of a tail with the edge classifier.

    Builds the filtration on the tail alone and verifies that every
    successive edge is Short and every other present edge is Long. For
    filtrations that omit some skip edges (Delaunay), absent edges are
    vacuously fine, but a missing successive edge is a failure.
    """
    tail = _as_cloud(tail)
    if tail.n_points == 1:
        return TailCheck(True, {}, ())
    return _tail_check(build_complex(tail, kind))


def _tail_check(complex: FilteredComplex) -> TailCheck:
    """validate_tail on the tail's already built filtration."""
    classes = classify_all(complex)
    failures: list[tuple[Edge, EdgeClass | None]] = []
    for i in range(complex.n_vertices - 1):
        if (i, i + 1) not in classes:
            failures.append(((i, i + 1), None))
    for edge, cls in sorted(classes.items()):
        expected = EdgeClass.SHORT if edge[1] == edge[0] + 1 else EdgeClass.LONG
        if cls is not expected:
            failures.append((edge, cls))
    return TailCheck(not failures, classes, tuple(failures))


def attach_tail(
    cloud: PointCloud,
    v: int,
    ray: Ray,
    tail: PointCloud,
) -> tuple[PointCloud, AttachReport]:
    """Glue a tail onto cloud[v] and report the attachment angles.

    The attachment always proceeds; callers probing sharpness can ignore
    hypothesis_ok, while verify_tail_theorem and generate_trivial_family refuse it.

    Raises:
        ValueError: ray or tail not anchored at cloud[v].
    """
    if not 0 <= v < cloud.n_points:
        raise IndexError(f"vertex index {v} out of range for {cloud.n_points} points")
    anchor = cloud.points[v]
    if float(np.linalg.norm(ray.vertex - anchor)) > COINCIDENT_TOL:
        raise ValueError("ray vertex must coincide with the attachment point")
    if float(np.linalg.norm(tail.points[0] - anchor)) > COINCIDENT_TOL:
        raise ValueError("tail must start at the attachment point")
    mu = math.inf if cloud.n_points == 1 else min_ray_angle(cloud, v, ray)
    theta = 0.0 if tail.n_points == 1 else angular_thickness(tail, ray)
    ok = mu >= theta + math.pi / 2.0 - ANGLE_TOL
    union = PointCloud(np.concatenate([cloud.points, tail.points[1:]], axis=0))
    return union, AttachReport(mu, theta, ok)


def _require_hypothesis(report: AttachReport, where: str = "") -> None:
    """Raise HypothesisError, carrying the report, unless mu >= theta + pi/2 held."""
    if not report.hypothesis_ok:
        error = HypothesisError(
            f"{where}mu >= theta + pi/2 violated: mu={report.mu}, theta={report.theta}"
        )
        error.report = report
        raise error


def _combined_diagram(diagrams: list[PersistenceDiagram]) -> PersistenceDiagram:
    pairs: list[tuple[float, float]] = []
    for d in diagrams:
        pairs.extend(d.pairs)
    return PersistenceDiagram(1, tuple(pairs), None)


def verify_long_wedge(
    components: list[PointCloud],
    kind: FiltrationKind | str,
    tol: float = 1e-9,
) -> WedgeReport:
    """Check the wedge property and the diagram sum identity.

    The components must share exactly one common point, each containing
    it exactly once; one tolerance test on every pair of points decides
    the common point, the components' meetings and the union. Every edge
    of the union's filtration running between two distinct components
    must be Long; when that holds, the union's degree-1 diagram should
    equal the multiset union of the component diagrams. Both verdicts are
    reported; a True wedge with a failed diagram identity is a
    theorem-violation diagnostic for the caller.

    Raises:
        ValueError: no components, or the sharing precondition fails.
    """
    if not components:
        raise ValueError("need at least one component")
    points = np.concatenate([c.points for c in components])
    owner = np.repeat(np.arange(len(components)), [c.n_points for c in components])
    order = np.arange(len(points))
    if len(components) > 1:
        # near[i, j]: points i and j coincide
        near = _norms(points[:, None, :] - points[None, :, :]) <= COINCIDENT_TOL
        in_all = [near[owner == 0][:, owner == c].any(axis=1) for c in range(1, len(components))]
        shared = np.flatnonzero(np.logical_and.reduce(in_all))
        if len(shared) != 1:
            raise ValueError(
                f"components must share exactly one common point, found {len(shared)}"
            )
        v = shared[0]
        for idx, hits in enumerate(np.bincount(owner[near[v]], minlength=len(components)).tolist()):
            if hits != 1:
                raise ValueError(f"component {idx} contains the common point {hits} times")
        for a in range(len(components)):
            for b in range(a + 1, len(components)):
                if int(near[owner == a][:, owner == b].sum()) != 1:
                    raise ValueError(
                        f"components {a} and {b} must intersect in the common point only"
                    )
        order = np.concatenate([[v], np.flatnonzero(~near[v])])
        owner[v] = -1  # the common point belongs to every component
    union = PointCloud(points[order])
    owner = owner[order].tolist()

    union_complex = build_complex(union, kind)
    classes = classify_all(union_complex)
    offending = tuple(
        (edge, cls)
        for edge, cls in sorted(classes.items())
        if owner[edge[0]] != owner[edge[1]]
        and owner[edge[0]] >= 0
        and owner[edge[1]] >= 0
        and cls is not EdgeClass.LONG
    )
    union_pd = compute_pd(union_complex, 1)
    component_pds = tuple(compute_pd(build_complex(c, kind), 1) for c in components)
    combined = _combined_diagram(list(component_pds))
    return WedgeReport(
        is_long_wedge=not offending,
        offending_edges=offending,
        pd_union_ok=diagram_equal(union_pd, combined, tol),
        union_diagram=union_pd,
        component_diagrams=component_pds,
    )


def verify_tail_theorem(
    cloud: PointCloud,
    v: int,
    ray: Ray,
    tail: PointCloud,
    kind: FiltrationKind | str,
    tol: float = 1e-9,
) -> TailTheoremReport:
    """Attach a tail once and compare the three candidate diagram identities.

    Reports attach_tail's mu, theta and union, and whether (i) the tail's
    own diagram is empty, (ii) the union diagram equals base plus tail
    combined, and (iii) the union diagram equals the base diagram alone.

    Raises:
        ValueError: attachment anchoring wrong.
        HypothesisError: mu >= theta + pi/2 fails; its report is attach_tail's
            (use attach_tail directly to probe deliberate violations).
    """
    union, report = attach_tail(cloud, v, ray, tail)
    _require_hypothesis(report)
    union_pd = compute_pd(build_complex(union, kind), 1)
    base_pd = compute_pd(build_complex(cloud, kind), 1)
    tail_pd = compute_pd(build_complex(tail, kind), 1)
    return TailTheoremReport(
        mu=report.mu,
        theta=report.theta,
        union=union,
        tail_trivial=len(tail_pd) == 0,
        union_equals_base_plus_tail=diagram_equal(
            union_pd, _combined_diagram([base_pd, tail_pd]), tol
        ),
        union_equals_base=diagram_equal(union_pd, base_pd, tol),
        union_diagram=union_pd,
        base_diagram=base_pd,
        tail_diagram=tail_pd,
    )


def distance_multiset(cloud: PointCloud) -> tuple[float, ...]:
    """Sorted pairwise distances; equal multisets are necessary for isometry."""
    i, j = np.triu_indices(cloud.n_points, k=1)
    return tuple(np.sort(_row_norms(cloud.points[i] - cloud.points[j])).tolist())


def generate_trivial_family(
    base: PointCloud,
    tails: list[tuple[int, TailSpec]],
    kind: FiltrationKind | str,
    variants: int = 1,
) -> list[PointCloud]:
    """Grow a family of clouds with empty degree-1 diagrams.

    Starting from a base whose diagram is verified empty, each variant
    attaches the given tails sequentially (variant k shifts every tail
    seed by k), re-checking the angle hypothesis against the accumulated
    union each time, and verifies the final diagram is empty. Variants
    are spot-checked pairwise for distinct distance multisets, a cheap
    necessary condition for non-isometry.

    Raises:
        ValueError: variants below 1, base diagram nonempty, or a tail ray
            not anchored at its base vertex.
        HypothesisError: an attachment violates the angle hypothesis.
        RuntimeError: a finished variant has a nonempty diagram, or two
            variants are indistinguishable by distance multiset.
    """
    if variants < 1:
        raise ValueError("variants must be at least 1")
    base_pd = compute_pd(build_complex(base, kind), 1)
    if len(base_pd) != 0:
        raise ValueError("base cloud must have an empty dimension-1 diagram")
    for t_idx, (vi, spec) in enumerate(tails):
        if not 0 <= vi < base.n_points:
            raise IndexError(f"tail {t_idx}: vertex index {vi} out of range")
        if float(np.linalg.norm(spec.ray.vertex - base.points[vi])) > COINCIDENT_TOL:
            raise ValueError(f"tail {t_idx}: ray vertex differs from base point {vi}")
    if not tails:
        return [base]

    family: list[PointCloud] = []
    for k in range(variants):
        current = base
        for t_idx, (vi, spec) in enumerate(tails):
            tail = generate_tail(replace(spec, seed=spec.seed + k))
            current, report = attach_tail(current, vi, spec.ray, tail)
            _require_hypothesis(report, f"tail {t_idx} of variant {k}: ")
        final_pd = compute_pd(build_complex(current, kind), 1)
        if len(final_pd) != 0:
            raise RuntimeError(
                f"variant {k} ended with a nonempty dimension-1 diagram: {final_pd.pairs}"
            )
        family.append(current)

    seen: dict[tuple[float, ...], int] = {}
    for idx, cloud in enumerate(family):
        key = distance_multiset(cloud)
        if key in seen:
            raise RuntimeError(
                f"variants {seen[key]} and {idx} have identical distance multisets"
            )
        seen[key] = idx
    return family
