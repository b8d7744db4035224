import math

import numpy as np
import pytest

from pointpd.constructions import (
    AttachReport,
    HypothesisError,
    TailSpec,
    attach_tail,
    distance_multiset,
    generate_tail,
    generate_trivial_family,
    validate_tail,
    verify_long_wedge,
    verify_tail_theorem,
)
from pointpd.edges import EdgeClass
from pointpd.filtration import build_complex
from pointpd.geometry import PointCloud, Ray, angular_deviation, angular_thickness
from pointpd.persistence import compute_pd

from oracles import loop_distance_multiset

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
OUT_RAY = Ray([0.0, 0.0], [-1.0, -1.0])  # away from the square's interior
IN_RAY = Ray([0.0, 0.0], [1.0, 1.0])


def spec(seed=0, n=5, cone=0.1, direction=(-1.0, -1.0), vertex=(0.0, 0.0)):
    return TailSpec(
        ray=Ray(list(vertex), list(direction)),
        n=n,
        spacing_min=0.5,
        spacing_max=1.0,
        cone_half_angle=cone,
        seed=seed,
    )


class TestTailSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="at least one point"):
            spec(n=0)
        with pytest.raises(ValueError, match="spacing_min"):
            TailSpec(OUT_RAY, 3, 0.0, 1.0, 0.1, 0)
        with pytest.raises(ValueError, match="spacing_max"):
            TailSpec(OUT_RAY, 3, 1.0, 0.5, 0.1, 0)
        for spacing_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="spacing_max must be finite"):
                TailSpec(OUT_RAY, 3, 0.5, spacing_max, 0.1, 0)
        with pytest.raises(ValueError, match="cone_half_angle"):
            spec(cone=math.pi / 4.0)
        with pytest.raises(ValueError, match="cone_half_angle"):
            spec(cone=-0.1)


class TestGenerateTail:
    @pytest.mark.parametrize("seed", range(8))
    def test_geometry_within_bounds(self, seed):
        s = spec(seed=seed, n=6, cone=0.2)
        tail = generate_tail(s)
        assert tail.n_points == 6
        assert np.allclose(tail.points[0], s.ray.vertex)
        proj = (tail.points - s.ray.vertex) @ s.ray.direction
        gaps = np.diff(proj)
        assert np.all(gaps >= s.spacing_min - 1e-12)
        assert np.all(gaps <= s.spacing_max + 1e-12)
        assert angular_deviation(tail, s.ray) < math.pi / 4.0
        assert angular_thickness(tail, s.ray) <= s.cone_half_angle

    def test_zero_cone_is_collinear(self):
        tail = generate_tail(spec(seed=3, n=5, cone=0.0))
        assert angular_deviation(tail, OUT_RAY) < 1e-12

    def test_single_point(self):
        tail = generate_tail(spec(n=1))
        assert tail.n_points == 1
        assert np.allclose(tail.points[0], [0.0, 0.0])

    def test_deterministic(self):
        a = generate_tail(spec(seed=9))
        b = generate_tail(spec(seed=9))
        assert np.array_equal(a.points, b.points)
        c = generate_tail(spec(seed=10))
        assert not np.array_equal(a.points, c.points)

    def test_three_dimensional(self):
        s = TailSpec(Ray([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), 5, 0.5, 1.0, 0.15, 4)
        tail = generate_tail(s)
        assert tail.dim == 3
        assert angular_thickness(tail, s.ray) <= 0.15


class TestValidateTail:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_generated_tails_validate(self, seed, kind):
        tail = generate_tail(spec(seed=seed, n=5, cone=0.05))
        check = validate_tail(tail, kind)
        assert check.ok
        assert check.failures == ()
        for (i, j), cls in check.classes.items():
            want = EdgeClass.SHORT if j == i + 1 else EdgeClass.LONG
            assert cls is want

    def test_collinear_tail_validates_under_delaunay(self):
        tail = generate_tail(spec(seed=1, n=4, cone=0.0))
        assert validate_tail(tail, "delaunay").ok

    def test_single_point_is_vacuously_a_tail(self):
        assert validate_tail(PointCloud([[2.0, 1.0]]), "vr").ok

    def test_scrambled_order_fails(self):
        tail = generate_tail(spec(seed=2, n=4, cone=0.0))
        scrambled = PointCloud(tail.points[[0, 2, 1, 3]])
        check = validate_tail(scrambled, "vr")
        assert not check.ok
        assert check.failures

    def test_classes_alone_do_not_certify_the_cone(self):
        # the class pattern can hold while the bend exceeds pi/4; the
        # generator enforces the angle bound separately
        bent = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.2, 0.9]])
        assert validate_tail(bent, "vr").ok
        ray = Ray([0.0, 0.0], [1.0, 0.0])
        assert angular_deviation(bent, ray) > math.pi / 4.0

    def test_accepts_raw_arrays(self):
        assert validate_tail(np.array([[0.0, 0.0], [1.0, 0.0]]), "vr").ok


class TestAttachTail:
    def test_square_corner_angles(self):
        tail = generate_tail(spec(seed=5, n=4, cone=0.05))
        union, report = attach_tail(SQUARE, 0, OUT_RAY, tail)
        assert union.n_points == SQUARE.n_points + tail.n_points - 1
        assert report.mu == pytest.approx(3.0 * math.pi / 4.0)
        assert report.theta <= 0.05
        assert report.hypothesis_ok

    def test_inward_ray_fails_hypothesis(self):
        # the opposite corner (1,1) sits on the ray itself, so mu is ~0
        tail = generate_tail(spec(seed=5, n=4, cone=0.05, direction=(1.0, 1.0)))
        _, report = attach_tail(SQUARE, 0, IN_RAY, tail)
        assert report.mu < 1e-9
        assert not report.hypothesis_ok

    def test_grazing_ray_fails_hypothesis(self):
        # down-right diagonal: nearest cloud point (1,0) sits at pi/4
        ray = Ray([0.0, 0.0], [1.0, -1.0])
        tail = generate_tail(spec(seed=6, n=3, cone=0.05, direction=(1.0, -1.0)))
        _, report = attach_tail(SQUARE, 0, ray, tail)
        assert report.mu == pytest.approx(math.pi / 4.0)
        assert not report.hypothesis_ok

    def test_boundary_angle_is_inclusive(self):
        # mu is exactly pi/2 and theta is 0: the hypothesis just holds
        cloud = PointCloud([[0.0, 0.0], [0.0, -1.0]])
        ray = Ray([0.0, 0.0], [1.0, 0.0])
        tail = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        _, report = attach_tail(cloud, 0, ray, tail)
        assert report.mu == pytest.approx(math.pi / 2.0)
        assert report.theta == 0.0
        assert report.hypothesis_ok

    def test_singleton_cloud_has_infinite_mu(self):
        cloud = PointCloud([[0.0, 0.0]])
        tail = generate_tail(spec(seed=1, n=3))
        _, report = attach_tail(cloud, 0, OUT_RAY, tail)
        assert report.mu == math.inf
        assert report.hypothesis_ok

    def test_anchoring_errors(self):
        tail = generate_tail(spec(seed=5, n=3))
        with pytest.raises(IndexError):
            attach_tail(SQUARE, 9, OUT_RAY, tail)
        with pytest.raises(ValueError, match="ray vertex"):
            attach_tail(SQUARE, 1, OUT_RAY, tail)
        shifted = PointCloud(tail.points + [0.5, 0.5])
        with pytest.raises(ValueError, match="tail must start"):
            attach_tail(SQUARE, 0, OUT_RAY, shifted)


class TestVerifyLongWedge:
    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_triangle_and_square_wedge(self, kind):
        tri = PointCloud([[0.0, 0.0], [-3.0, 0.0], [0.0, -4.0]])
        report = verify_long_wedge([tri, SQUARE], kind)
        assert report.is_long_wedge
        assert report.offending_edges == ()
        assert report.pd_union_ok
        assert len(report.component_diagrams) == 2
        assert len(report.component_diagrams[0]) == 0
        assert len(report.component_diagrams[1]) == 1
        assert len(report.union_diagram) == 1

    def test_narrow_angle_breaks_the_wedge(self):
        # segments 60 degrees apart: the cross edge enters first, as Short
        a = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        b = PointCloud([[0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        report = verify_long_wedge([a, b], "vr")
        assert not report.is_long_wedge
        assert report.offending_edges
        assert all(cls is not EdgeClass.LONG for _, cls in report.offending_edges)

    def test_medium_cross_edge_breaks_diagrams_too(self):
        # two paths closing a unit square: the closing edge is Medium and
        # the union gains a cycle no component has
        a = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        b = PointCloud([[0.0, 0.0], [0.0, 1.0]])
        report = verify_long_wedge([a, b], "vr")
        assert not report.is_long_wedge
        assert not report.pd_union_ok
        assert len(report.union_diagram) == 1

    def test_single_component_is_trivially_a_wedge(self):
        report = verify_long_wedge([SQUARE], "vr")
        assert report.is_long_wedge
        assert report.pd_union_ok

    def test_three_component_wedge(self):
        a = PointCloud([[0.0, 0.0], [5.0, 0.0]])
        b = PointCloud([[0.0, 0.0], [0.0, 5.0]])
        c = PointCloud([[0.0, 0.0], [-5.0, -0.1]])
        report = verify_long_wedge([a, b, c], "vr")
        assert report.is_long_wedge
        assert report.pd_union_ok

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            verify_long_wedge([], "vr")
        far = PointCloud([[5.0, 5.0], [6.0, 5.0]])
        with pytest.raises(ValueError, match="exactly one common point"):
            verify_long_wedge([SQUARE, far], "vr")
        overlap = PointCloud([[0.0, 0.0], [1.0, 0.0], [7.0, 7.0]])
        with pytest.raises(ValueError, match="exactly one common point"):
            verify_long_wedge([SQUARE, overlap], "vr")

    def test_component_holding_the_common_point_twice(self):
        # (0, 0) is the only point of `a` found in `b`, but `b` holds it
        # twice within the coincidence tolerance
        a = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        b = PointCloud([[0.0, 0.0], [0.5e-12, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="component 1 contains the common point 2 times"):
            verify_long_wedge([a, b], "vr")

    def test_components_meeting_beyond_the_common_point(self):
        # all three share (0, 0); b and c also share (-1, -1)
        a = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        b = PointCloud([[0.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        c = PointCloud([[0.0, 0.0], [-1.0, -1.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="components 1 and 2 must intersect in the common point only"):
            verify_long_wedge([a, b, c], "vr")


class TestVerifyTailTheorem:
    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_square_base_keeps_its_diagram(self, kind):
        tail = generate_tail(spec(seed=11, n=5, cone=0.05))
        report = verify_tail_theorem(SQUARE, 0, OUT_RAY, tail, kind)
        assert report.mu == pytest.approx(3.0 * math.pi / 4.0)
        assert report.tail_trivial
        assert report.union_equals_base_plus_tail
        assert report.union_equals_base
        assert len(report.base_diagram) == 1  # the square's cycle survives
        assert len(report.union_diagram) == 1

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_trivial_base_stays_trivial(self, kind):
        base = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        ray = Ray([0.0, 0.0], [-1.0, -1.0])
        tail = generate_tail(spec(seed=4, n=6, cone=0.1, direction=(-1.0, -1.0)))
        report = verify_tail_theorem(base, 0, ray, tail, kind)
        assert report.tail_trivial
        assert report.union_equals_base
        assert len(report.union_diagram) == 0

    def test_violated_hypothesis_raises(self):
        tail = generate_tail(spec(seed=5, n=4, cone=0.05, direction=(1.0, 1.0)))
        with pytest.raises(HypothesisError, match="^mu >= theta \\+ pi/2 violated") as exc:
            verify_tail_theorem(SQUARE, 0, IN_RAY, tail, "vr")
        # the error carries the failed attachment's angles
        assert exc.value.report == attach_tail(SQUARE, 0, IN_RAY, tail)[1]
        assert not exc.value.report.hypothesis_ok
        assert HypothesisError("raised by a caller").report is None

    @pytest.mark.parametrize("kind", ["vr", "delaunay"])
    def test_union_is_attach_tails(self, kind):
        tail = generate_tail(spec(seed=11, n=5, cone=0.05))
        union, attach = attach_tail(SQUARE, 0, OUT_RAY, tail)
        report = verify_tail_theorem(SQUARE, 0, OUT_RAY, tail, kind)
        assert np.array_equal(report.union.points, union.points)
        assert (report.mu, report.theta) == (attach.mu, attach.theta)

    def test_bad_anchor_raises(self):
        tail = generate_tail(spec(seed=5, n=4))
        with pytest.raises(ValueError, match="ray vertex"):
            verify_tail_theorem(SQUARE, 3, OUT_RAY, tail, "vr")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_admissible_attachments(self, seed):
        rng = np.random.default_rng(seed + 2000)
        base = PointCloud(rng.random((6, 2)))
        hull_v = int(np.argmin(base.points[:, 0]))  # leftmost is on the hull
        ray = Ray(base.points[hull_v], [-1.0, 0.0])
        tail_spec = TailSpec(ray, 4, 0.5, 1.0, 0.01, seed)
        tail = generate_tail(tail_spec)
        _, attach = attach_tail(base, hull_v, ray, tail)
        if not attach.hypothesis_ok:
            pytest.skip("sampled cloud hugs the leftward ray")
        report = verify_tail_theorem(base, hull_v, ray, tail, "vr")
        assert report.tail_trivial
        assert report.union_equals_base_plus_tail
        assert report.union_equals_base


class TestGenerateTrivialFamily:
    def test_variants_are_distinct_and_trivial(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        tails = [(0, spec(seed=7, n=4, cone=0.1, direction=(-1.0, 0.0)))]
        family = generate_trivial_family(base, tails, "vr", variants=3)
        assert len(family) == 3
        keys = {distance_multiset(c) for c in family}
        assert len(keys) == 3
        for cloud in family:
            assert cloud.n_points == 5
            assert len(compute_pd(build_complex(cloud, "vr"), 1)) == 0

    def test_two_tails_sequentially(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        tails = [
            (0, spec(seed=1, n=3, cone=0.05, direction=(-1.0, 0.0))),
            (1, spec(seed=2, n=3, cone=0.05, direction=(1.0, 0.0), vertex=(1.0, 0.0))),
        ]
        family = generate_trivial_family(base, tails, "vr", variants=2)
        assert all(c.n_points == 6 for c in family)

    def test_empty_tails_returns_base(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        family = generate_trivial_family(base, [], "vr")
        assert len(family) == 1
        assert family[0] is base

    def test_rejects_base_with_nonempty_diagram(self):
        with pytest.raises(ValueError, match="empty dimension-1"):
            generate_trivial_family(
                SQUARE, [(0, spec(seed=1, n=3, direction=(-1.0, 0.0)))], "vr"
            )

    def test_inward_tail_raises_hypothesis_error(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        tails = [(0, spec(seed=3, n=3, cone=0.05, direction=(1.0, 0.0)))]
        with pytest.raises(HypothesisError, match="^tail 0 of variant 0: mu >= theta \\+ pi/2 violated") as exc:
            generate_trivial_family(base, tails, "vr", variants=1)
        _, attach = attach_tail(base, 0, tails[0][1].ray, generate_tail(tails[0][1]))
        assert exc.value.report == attach
        assert not attach.hypothesis_ok

    def test_anchor_and_range_errors(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IndexError, match="out of range"):
            generate_trivial_family(base, [(5, spec(seed=1, n=3))], "vr")
        off = [(1, spec(seed=1, n=3, direction=(-1.0, 0.0)))]  # vertex (0,0) != base[1]
        with pytest.raises(ValueError, match="ray vertex differs"):
            generate_trivial_family(base, off, "vr")
        for tails in ([(0, spec(seed=1, n=3, direction=(-1.0, 0.0)))], []):
            with pytest.raises(ValueError, match="variants"):
                generate_trivial_family(base, tails, "vr", variants=0)

    def test_deterministic(self):
        base = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        tails = [(0, spec(seed=7, n=4, cone=0.1, direction=(-1.0, 0.0)))]
        fam1 = generate_trivial_family(base, tails, "vr", variants=2)
        fam2 = generate_trivial_family(base, tails, "vr", variants=2)
        for a, b in zip(fam1, fam2):
            assert np.array_equal(a.points, b.points)


class TestDistanceMultiset:
    def test_sorted_distances(self):
        tri = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        assert distance_multiset(tri) == (3.0, 4.0, 5.0)

    def test_isometric_clouds_agree(self):
        tri = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        flipped = PointCloud([[0.0, 0.0], [-3.0, 0.0], [0.0, 4.0]])
        assert distance_multiset(tri) == distance_multiset(flipped)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_equals_pairwise_loop(self, dim):
        rng = np.random.default_rng(dim)
        for n in (2, 3, 40, 200):
            ray = Ray(rng.normal(size=dim) * 100.0, rng.normal(size=dim))
            tail = generate_tail(TailSpec(ray, n, 0.3, 2.0, 0.5, int(rng.integers(1 << 30))))
            assert distance_multiset(tail) == loop_distance_multiset(tail.points)
            cloud = PointCloud(rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0))
            assert distance_multiset(cloud) == loop_distance_multiset(cloud.points)
