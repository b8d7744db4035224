import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointpd.constructions import TailSpec, generate_tail
from pointpd.filtration import build_vr
from pointpd.geometry import (
    PointCloud,
    Ray,
    angular_deviation,
    angular_thickness,
    enclosing_radius_3,
    min_ray_angle,
    non_acute_at,
    oriented_angle,
    segment_angle,
    _row_norms,
)

from oracles import (
    loop_angular_deviation,
    loop_angular_thickness,
    loop_min_ray_angle,
    loop_oriented_angle,
    oracle_meb3,
)


class TestPointCloud:
    def test_copies_and_freezes(self):
        src = np.array([[0.0, 0.0], [1.0, 2.0]])
        cloud = PointCloud(src)
        src[0, 0] = 99.0
        assert cloud.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_shape_accessors(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        assert cloud.n_points == 1
        assert cloud.dim == 3
        assert len(cloud) == 1
        assert np.array_equal(cloud[0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, 2.0],  # 1-d
            np.zeros((0, 2)),  # no points
            np.zeros((2, 0)),  # no coordinates
            [[0.0, np.nan]],
            [[0.0, np.inf]],
        ],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            PointCloud(bad)

    def test_diameter(self):
        assert PointCloud([[5.0, 5.0]]).diameter() == 0.0
        sq = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert sq.diameter() == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_diameter_matches_pairwise_max(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 3))
        cloud = PointCloud(pts)
        want = max(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(8)
            for j in range(i + 1, 8)
        )
        assert cloud.diameter() == pytest.approx(want)

    def test_diameter_is_twice_the_largest_vr_edge(self):
        # the diameter is D's largest entry bit for bit, from 8 coordinates on as well
        for dim in range(1, 21):
            for seed in range(5):
                pts = np.random.default_rng(seed).random((30, dim))
                assert PointCloud(pts).diameter() == 2.0 * build_vr(pts).edge_values.max(), (dim, seed)


class TestRay:
    def test_normalizes_direction(self):
        ray = Ray(np.zeros(2), np.array([3.0, 4.0]))
        assert np.allclose(ray.direction, [0.6, 0.8])
        assert ray.dim == 2

    def test_normalizes_a_direction_whose_norm_overflows(self):
        ray = Ray(np.zeros(2), np.array([1e308, 1e308]))
        assert np.allclose(ray.direction, [math.sqrt(0.5)] * 2, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("direction", [[1e-13, 0.0], [1e-200, 1e-200], [5e-324, 0.0]])
    def test_normalizes_a_direction_of_any_nonzero_length(self, direction):
        want = np.array(direction) / max(direction)
        assert np.allclose(Ray(np.zeros(2), np.array(direction)).direction, want / np.linalg.norm(want), rtol=0.0, atol=1e-15)

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(2), np.zeros(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(2), np.ones(3))


class TestOrientedAngle:
    @pytest.mark.parametrize(
        "u,v,want",
        [
            ([1, 0], [1, 0], 0.0),
            ([1, 0], [0, 1], math.pi / 2),
            ([1, 0], [-1, 0], math.pi),
            ([1, 0], [1, 1], math.pi / 4),
            ([2, 0, 0], [0, 0, 7], math.pi / 2),
        ],
    )
    def test_exact_cases(self, u, v, want):
        assert oriented_angle(np.array(u, float), np.array(v, float)) == pytest.approx(want, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            oriented_angle(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_arccos(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        want = math.acos(float(np.clip(cos, -1.0, 1.0)))
        assert oriented_angle(u, v) == pytest.approx(want, abs=1e-12)

    def test_stable_for_tiny_angles(self):
        # arccos would round a 1e-8 angle to the 1e-8 ulp cliff; atan2 keeps it
        u = np.array([1.0, 0.0])
        eps = 1e-8
        v = np.array([math.cos(eps), math.sin(eps)])
        assert oriented_angle(u, v) == pytest.approx(eps, rel=1e-6)


class TestSegmentAngle:
    def test_unoriented(self):
        a, b = np.zeros(2), np.array([1.0, 0.0])
        c, d = np.zeros(2), np.array([-1.0, 1.0])
        # 3pi/4 between directions folds to pi/4 between lines
        assert segment_angle(a, b, c, d) == pytest.approx(math.pi / 4)
        assert segment_angle(b, a, c, d) == pytest.approx(math.pi / 4)

    def test_parallel_and_perpendicular(self):
        a, b = np.zeros(2), np.array([2.0, 0.0])
        assert segment_angle(a, b, np.array([5.0, 5.0]), np.array([7.0, 5.0])) == pytest.approx(0.0, abs=1e-15)
        assert segment_angle(a, b, np.zeros(2), np.array([0.0, 3.0])) == pytest.approx(math.pi / 2)

    def test_degenerate_segment(self):
        p = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            segment_angle(p, p, np.zeros(2), np.ones(2))


class TestAngularDeviation:
    def test_collinear_points_have_zero_deviation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        assert angular_deviation(pts, ray) == pytest.approx(0.0, abs=1e-15)

    def test_reversed_ray_changes_nothing(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(5, 2))
        fwd = Ray(np.zeros(2), np.array([1.0, 0.3]))
        bwd = Ray(np.zeros(2), np.array([-1.0, -0.3]))
        assert angular_deviation(pts, fwd) == pytest.approx(angular_deviation(pts, bwd))

    def test_known_worst_chord(self):
        # chord from (1,0) to (2,1) tilts 45 degrees off the x-axis
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        assert angular_deviation(pts, ray) == pytest.approx(math.pi / 4)

    def test_needs_two_points(self):
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            angular_deviation(np.array([[0.0, 0.0]]), ray)

    def test_coincident_points_rejected(self):
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            angular_deviation(pts, ray)

    def test_accepts_point_cloud(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        assert angular_deviation(cloud, ray) == pytest.approx(0.0, abs=1e-15)


class TestAngularThickness:
    def test_single_point_is_zero(self):
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        assert angular_thickness(np.array([[0.0, 0.0]]), ray) == 0.0

    def test_known_value(self):
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        assert angular_thickness(pts, ray) == pytest.approx(math.pi / 4)

    def test_behind_the_ray_counts(self):
        # thickness is oriented: a point behind the vertex scores > pi/2
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        pts = np.array([[0.0, 0.0], [-1.0, 0.0]])
        assert angular_thickness(pts, ray) == pytest.approx(math.pi)

    def test_first_point_must_sit_on_vertex(self):
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            angular_thickness(np.array([[0.5, 0.0], [1.0, 0.0]]), ray)


class TestMinRayAngle:
    def test_square_corner_with_outward_diagonal(self):
        cloud = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
        ray = Ray(cloud.points[0], np.array([-1.0, -1.0]))
        assert min_ray_angle(cloud, 0, ray) == pytest.approx(3 * math.pi / 4)

    def test_ray_toward_a_point_gives_zero(self):
        cloud = PointCloud([[0, 0], [2, 0]])
        ray = Ray(cloud.points[0], np.array([1.0, 0.0]))
        assert min_ray_angle(cloud, 0, ray) == pytest.approx(0.0, abs=1e-15)

    def test_vertex_mismatch(self):
        cloud = PointCloud([[0, 0], [1, 0]])
        ray = Ray(np.array([5.0, 5.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            min_ray_angle(cloud, 0, ray)

    def test_index_out_of_range(self):
        cloud = PointCloud([[0, 0], [1, 0]])
        ray = Ray(cloud.points[0], np.array([1.0, 0.0]))
        with pytest.raises(IndexError):
            min_ray_angle(cloud, 7, ray)

    def test_duplicate_base_point_rejected(self):
        cloud = PointCloud([[0, 0], [0, 0], [1, 0]])
        ray = Ray(cloud.points[0], np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            min_ray_angle(cloud, 0, ray)


class TestRowKernelsMatchLoops:
    """The row kernels must return the scalar loops' floats exactly:
    make-tail, attach and family print omega, theta and mu."""

    def test_row_norms_equal_1d_norm(self):
        # vecdot takes the dot np.linalg.norm takes; einsum and (x * x).sum(1)
        # add in another order and miss the last bit on thousands of rows,
        # and the kernel's atan2 stays math.atan2 because np.arctan2 (SIMD)
        # misses it too
        rng = np.random.default_rng(11)
        for dim in range(1, 7):
            for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                x = rng.normal(size=(2000, dim)) * scale
                assert _row_norms(x).tolist() == [float(np.linalg.norm(r)) for r in x]

    def test_kernel_equals_scalar_angle(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(500, 3))
        v = rng.normal(size=3)
        assert [oriented_angle(r, v) for r in rows] == [loop_oriented_angle(r, v) for r in rows]
        with pytest.raises(ValueError, match="zero vector"):
            oriented_angle(np.zeros(3), v)
        with np.errstate(invalid="ignore"):  # a row of infinite norm has the scalar loop's NaN angle
            assert math.isnan(oriented_angle(np.array([np.inf, 0.0, 0.0]), v))
            assert math.isnan(loop_oriented_angle(np.array([np.inf, 0.0, 0.0]), v))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 9, 40, 200])
    def test_generated_tails(self, dim, n):
        rng = np.random.default_rng(100 * dim + n)
        vertex = rng.normal(size=dim) * 10.0 ** rng.uniform(0.0, 3.0)
        ray = Ray(vertex, rng.normal(size=dim))
        tail = generate_tail(TailSpec(ray, n, 0.3, 2.0, rng.uniform(0.0, 0.7), int(rng.integers(1 << 30))))
        assert angular_deviation(tail, ray) == loop_angular_deviation(tail.points, ray)
        assert angular_thickness(tail, ray) == loop_angular_thickness(tail.points, ray)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_random_clouds(self, dim):
        # chords in every direction, so both branches of min(phi, pi - phi)
        rng = np.random.default_rng(dim)
        for n in (2, 5, 30):
            pts = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2.0, 3.0)
            ray = Ray(pts[0], rng.normal(size=dim))
            assert angular_deviation(pts, ray) == loop_angular_deviation(pts, ray)
            assert angular_thickness(pts, ray) == loop_angular_thickness(pts, ray)
            for v in (0, n - 1):
                at_v = Ray(pts[v], rng.normal(size=dim))
                assert min_ray_angle(PointCloud(pts), v, at_v) == loop_min_ray_angle(pts, v, at_v)

    def test_coincident_errors_name_the_first_pair(self):
        # (1, 2) coincide and so do (0, 3); the loop meets (0, 3) first
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))
        for f in (angular_deviation, loop_angular_deviation):
            with pytest.raises(ValueError, match=r"^coincident points at indices 0 and 3$"):
                f(pts, ray)
        for f in (angular_thickness, loop_angular_thickness):
            with pytest.raises(ValueError, match=r"^point 3 coincides with the ray vertex$"):
                f(pts, ray)
        for v, other in ((1, 2), (3, 0)):
            at_v = Ray(pts[v], np.array([1.0, 0.0]))
            message = rf"^point {other} duplicates the ray base point {v}$"
            with pytest.raises(ValueError, match=message):
                min_ray_angle(PointCloud(pts), v, at_v)
            with pytest.raises(ValueError, match=message):
                loop_min_ray_angle(pts, v, at_v)

    @pytest.mark.parametrize("shift", [1e3, 1e5, 1e7, 1e8])
    def test_deviation_ignores_where_the_ray_sits(self, shift):
        rng = np.random.default_rng(int(shift) % 97)
        for dim in (2, 3):
            ray = Ray(np.zeros(dim), rng.normal(size=dim))
            tail = generate_tail(TailSpec(ray, 25, 0.5, 1.5, 0.3, int(rng.integers(1 << 30))))
            moved = Ray(ray.vertex + shift * rng.normal(size=dim), ray.direction)
            assert angular_deviation(tail, moved) == angular_deviation(tail, ray)


@st.composite
def tied_clouds(draw):
    """(points, ray) with the ray's vertex at points[0], built so that many angles tie at the extremes: a cone-0
    tail, points mirrored about an axis-aligned ray, an integer lattice, or rows repeated at 2^k scales."""
    shape, dim = draw(st.sampled_from(["cone-0 tail", "mirrored", "lattice", "scaled"])), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "cone-0 tail":
        ray = Ray(rng.normal(size=dim) * 10.0 ** rng.uniform(-1.0, 2.0), rng.normal(size=dim))
        return generate_tail(TailSpec(ray, int(rng.integers(2, 40)), 0.3, 2.0, 0.0, int(rng.integers(1 << 30)))).points, ray
    axis, sign = draw(st.integers(0, dim - 1)), draw(st.sampled_from([-1.0, 1.0]))
    ray = Ray(np.zeros(dim), sign * np.eye(dim)[axis])
    if shape == "mirrored":  # a transverse coordinate negated: the mirror image makes the same angles, exactly
        half = rng.normal(size=(int(rng.integers(1, 12)), dim)) * 10.0 ** rng.uniform(-2.0, 2.0)
        mirror = half.copy()
        mirror[:, (axis + 1) % dim] *= -1.0
        rows = np.concatenate([half, mirror])
    elif shape == "lattice":
        rows = np.unique(rng.integers(-3, 4, (int(rng.integers(2, 40)), dim)), axis=0).astype(np.float64)
        rows = rows[(rows != 0.0).any(axis=1)]
        rows = rows if len(rows) else np.eye(dim)
    else:  # u and 2^k u have the same unit vector, bit for bit
        base = rng.normal(size=(int(rng.integers(1, 6)), dim))
        rows = np.concatenate([np.ldexp(base, k) for k in sorted(set(rng.integers(-20, 21, 4).tolist()))])
    return np.concatenate([np.zeros((1, dim)), rng.permutation(rows)]), ray


class TestAngleExtremesAtTies:
    """np.arctan2 only ranks the rows: every extreme equals its loop oracle's float, ties and near-ties included."""

    @given(tied_clouds())
    def test_extremes_equal_the_loops(self, cloud):
        pts, ray = cloud
        assert angular_deviation(pts, ray) == loop_angular_deviation(pts, ray)
        assert angular_thickness(pts, ray) == loop_angular_thickness(pts, ray)
        assert min_ray_angle(PointCloud(pts), 0, ray) == loop_min_ray_angle(pts, 0, ray)

    def test_ranking_tie_one_ulp_apart(self):
        # u's exact angle is one ulp above w's, np.arctan2 misses u's by that ulp and so ranks w level with u;
        # ranking alone would return w's angle, the first of two equal ranks
        u = np.array([float.fromhex("-0x1.fa84ddd70b96cp-1"), float.fromhex("-0x1.50ed14fb91436p-1")])
        w = np.array([float.fromhex("-0x1.fa84ddd70b968p-1"), float.fromhex("-0x1.50ed14fb91434p-1")])
        ray = Ray(np.zeros(2), np.array([1.0, 0.0]))

        def sides(x):
            xh = x / float(np.linalg.norm(x))
            return float(np.linalg.norm(xh - ray.direction)), float(np.linalg.norm(xh + ray.direction))

        exact_u, exact_w = (2.0 * math.atan2(*sides(x)) for x in (u, w))
        ranked_u, ranked_w = (2.0 * float(np.arctan2(*sides(x))) for x in (u, w))
        assert ranked_u != exact_u and math.nextafter(exact_w, math.inf) == exact_u and ranked_w == ranked_u
        pts = np.stack([np.zeros(2), 2.0 * w, u])  # 2w makes w's angles, and keeps the chords long
        assert angular_thickness(pts, ray) == loop_angular_thickness(pts, ray) == exact_u
        assert angular_deviation(pts, ray) == loop_angular_deviation(pts, ray)
        assert min_ray_angle(PointCloud(pts), 0, ray) == loop_min_ray_angle(pts, 0, ray)


class TestEnclosingRadius3:
    def test_equilateral_uses_circumradius(self):
        p = np.array([0.0, 0.0])
        q = np.array([1.0, 0.0])
        r = np.array([0.5, math.sqrt(3) / 2])
        assert enclosing_radius_3(p, q, r) == pytest.approx(1 / math.sqrt(3))

    def test_right_triangle_uses_half_hypotenuse(self):
        p = np.array([0.0, 0.0])
        q = np.array([3.0, 0.0])
        r = np.array([0.0, 4.0])
        assert enclosing_radius_3(p, q, r) == pytest.approx(2.5)

    def test_obtuse_uses_half_longest_side(self):
        p = np.array([0.0, 0.0])
        q = np.array([4.0, 0.0])
        r = np.array([2.0, 0.5])
        assert enclosing_radius_3(p, q, r) == pytest.approx(2.0)

    def test_collinear(self):
        p = np.array([0.0, 0.0])
        q = np.array([1.0, 0.0])
        r = np.array([3.0, 0.0])
        assert enclosing_radius_3(p, q, r) == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_candidate_oracle(self, seed, dim):
        rng = np.random.default_rng(seed * 31 + dim)
        p, q, r = rng.normal(size=(3, dim))
        assert enclosing_radius_3(p, q, r) == pytest.approx(
            oracle_meb3(p, q, r), abs=1e-9
        )


class TestNonAcuteAt:
    def test_right_angle_counts(self):
        assert non_acute_at(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_acute_is_false(self):
        assert not non_acute_at(
            np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.5])
        )

    def test_obtuse_is_true(self):
        assert non_acute_at(np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 0.5]))

    def test_coincident_vertex_rejected(self):
        with pytest.raises(ValueError):
            non_acute_at(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
