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
from itertools import chain

import numpy as np

from .edges import EdgeClass, _edge_classes, classify_all
from .filtration import FilteredComplex, FiltrationKind, _complex_groups, build_complex
from .geometry import (
    ANGLE_TOL,
    COINCIDENT_TOL,
    PointCloud,
    Ray,
    _distance_matrix,
    _row_norms,
    angular_deviation,
    angular_thickness,
    min_ray_angle,
)
from .persistence import PersistenceDiagram, _dim1_diagrams, compute_pd, diagram_equal

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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

    The draws are the n - 1 gaps, then per point one uniform and k normals
    (none when the cone or the k = dim - 1 transverse dimensions are 0),
    in that order, so a seed gives the same tail bit for bit.
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
    tan_bound = math.tan(spec.cone_half_angle)
    offsets = np.zeros((n - 1, ray.dim))
    if k > 0 and tan_bound > 0.0:
        # the same doubles as uniform(0.0, 1.0) and normal(size=k), which return 0 + 1 * x
        fraction, raw = map(np.array, zip(*[(rng.random(), rng.standard_normal(k)) for _ in range(n - 1)]))
        radius = fraction * (tan_bound / 2.0) * np.append(np.minimum(gaps[:-1], gaps[1:]), gaps[-1])
        norms = _row_norms(raw)[:, None]
        unit = np.divide(raw, norms, out=np.zeros_like(raw), where=norms > 0.0)
        # the stacked matmul is `basis @ v` per point bit for bit; `coeffs @ basis.T` is not
        offsets = np.matmul(basis, (unit * radius[:, None])[:, :, None])[..., 0]
    points = np.concatenate([ray.vertex[None, :], ray.vertex + proj[1:, None] * ray.direction + offsets])
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
    return _tail_check(build_complex(tail, kind))


def _tail_check(complex: FilteredComplex) -> TailCheck:
    """validate_tail on the tail's already built filtration."""
    ends = complex.edge_vertices
    classes = _edge_classes(complex)
    successive = ends[:, 1] == ends[:, 0] + 1
    missing = np.setdiff1d(np.arange(complex.n_vertices - 1), ends[successive, 0]).tolist()
    failures: list[tuple[Edge, EdgeClass | None]] = [((i, i + 1), None) for i in missing]
    wrong = np.flatnonzero(classes != np.where(successive, EdgeClass.SHORT, EdgeClass.LONG))
    failures += sorted(zip(map(tuple, ends[wrong].tolist()), classes[wrong].tolist()))
    return TailCheck(not failures, classify_all(complex), tuple(failures))


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
        ValueError: mixed ambient dimensions, or ray or tail not anchored at cloud[v].
    """
    if not 0 <= v < cloud.n_points:
        raise IndexError(f"vertex index {v} out of range for {cloud.n_points} points")
    if not cloud.dim == ray.dim == tail.dim:
        raise ValueError(f"cloud, ray and tail must share one ambient dimension, got {cloud.dim}, {ray.dim} and {tail.dim}")
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


def verify_long_wedge(
    components: list[PointCloud],
    kind: FiltrationKind | str,
    tol: float = 1e-9,
) -> WedgeReport:
    """Check the wedge property and the diagram sum identity.

    The components must share exactly one common point, each containing it exactly once; one tolerance test on
    every pair of points decides the common point, the components' meetings and the union. Every edge of the
    union's filtration running between two distinct components must be Long; when that holds, the union's
    degree-1 diagram should equal the multiset union of the component diagrams. Both verdicts are reported; a
    True wedge with a failed diagram identity is a theorem-violation diagnostic for the caller. The union is
    built and checked first, on its own, then the components as one group; one call runs every reduction.

    Raises:
        ValueError: no components, mixed ambient dimensions, or the sharing precondition fails.
    """
    if not components:
        raise ValueError("need at least one component")
    if len(dims := list(dict.fromkeys(c.dim for c in components))) > 1:
        raise ValueError(f"components must share one ambient dimension, got {dims[0]} and {dims[1]}")
    points = np.concatenate([c.points for c in components])
    owner = np.repeat(np.arange(len(components)), [c.n_points for c in components])
    order = np.arange(len(points))
    if len(components) > 1:
        near = _distance_matrix(points) <= COINCIDENT_TOL
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

    union_complex = build_complex(union, kind)
    ends = union_complex.edge_vertices
    classes = _edge_classes(union_complex)
    owners = owner[order][ends]
    bad = np.flatnonzero((owners[:, 0] != owners[:, 1]) & (owners >= 0).all(axis=1) & (classes != EdgeClass.LONG))
    offending = tuple(sorted(zip(map(tuple, ends[bad].tolist()), classes[bad].tolist())))
    arms = chain.from_iterable(_complex_groups(components, kind))
    union_pd, *component_pds = _dim1_diagrams([union_complex, *arms])
    combined = PersistenceDiagram(1, tuple(chain.from_iterable(d.pairs for d in component_pds)))
    return WedgeReport(
        is_long_wedge=not offending,
        offending_edges=offending,
        pd_union_ok=diagram_equal(union_pd, combined, tol),
        union_diagram=union_pd,
        component_diagrams=tuple(component_pds),
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

    Reports attach_tail's mu, theta and union, and whether (i) the tail's own diagram is empty, (ii) the union
    diagram equals base plus tail combined, and (iii) the union diagram equals the base diagram alone. Union,
    base and tail are built as one group, the union first, so its errors come first, and reduced in one call.

    Raises:
        ValueError: attachment anchoring or ambient dimensions wrong.
        HypothesisError: mu >= theta + pi/2 fails; its report is attach_tail's
            (use attach_tail directly to probe deliberate violations).
    """
    union, report = attach_tail(cloud, v, ray, tail)
    _require_hypothesis(report)
    union_pd, base_pd, tail_pd = _dim1_diagrams(list(chain.from_iterable(_complex_groups([union, cloud, tail], kind))))
    return TailTheoremReport(
        mu=report.mu,
        theta=report.theta,
        union=union,
        tail_trivial=len(tail_pd) == 0,
        union_equals_base_plus_tail=diagram_equal(union_pd, PersistenceDiagram(1, base_pd.pairs + tail_pd.pairs), tol),
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
