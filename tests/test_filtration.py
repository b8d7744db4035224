import gc
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointpd.filtration import (
    _FACE_COLUMNS,
    _MAX_VERTICES,
    FilteredComplex,
    FiltrationKind,
    _distance_matrix,
    _edge_rows,
    _lex_smallest_triangulation,
    _meb_radius_from_sides,
    build_cech,
    build_complex,
    build_delaunay_2d,
    build_vr,
    critical_scales,
)
from pointpd.edges import classify_all, classify_edge
from pointpd.geometry import PointCloud
from pointpd.persistence import bottleneck_distance, compute_pd, diagram_equal

from oracles import lex_min_triangulation, loop_complex, loop_delaunay, oracle_meb3

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
KINDS = ["vr", "cech", "delaunay"]


def random_cloud(seed: int, n: int, dim: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, dim)))


def grid(angle: float = 0.0) -> np.ndarray:
    """5x5 unit grid rotated by `angle`: many ties and right triangles."""
    points = np.array([[x, y] for x in range(5) for y in range(5)], dtype=np.float64)
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, -s], [s, c]]).T


# (points, max_scale) inputs on which the vectorized VR/Cech builders must
# reproduce the plain-loop reference exactly
LOOP_REFERENCE_CASES = {
    "random_2d": (random_cloud(11, 30, 2).points, None),
    "random_3d": (random_cloud(12, 24, 3).points, None),
    "grid": (grid(), None),
    # right triangles sit on the switch between the non-acute and Heron rules
    "grid_rotated": (grid(0.3), None),
    "random_capped": (random_cloud(13, 40, 2).points, 0.12),
}


def value_at(cx: FilteredComplex, vertices: tuple[int, ...]) -> float:
    """The value of the edge or triangle on these sorted vertices, read off the complex's arrays."""
    rows, values = (cx.edge_vertices, cx.edge_values) if len(vertices) == 2 else (cx.triangle_vertices, cx.triangle_values)
    (row,) = np.flatnonzero((rows == vertices).all(axis=1))
    return float(values[row])


# from_arrays inputs (n, edge vertices, edge values, triangle vertices, triangle values) and the error each raises
TRIANGLE_EDGES = [[0, 1], [0, 2], [1, 2]]
REJECTED_ARRAYS = {
    "no-vertex": ((0, [], [], [], []), "complex needs at least one vertex"),
    "too-many-vertices": ((_MAX_VERTICES + 1, [], [], [], []), f"at most {_MAX_VERTICES} vertices are supported"),
    "value-count": ((2, [[0, 1]], [], [], []), "1 simplices of 2 vertices but 0 values"),
    "nan-value": ((2, [[0, 1]], [math.nan], [], []), "simplex value must be finite and nonnegative: (0, 1) at nan"),
    "negative-value": ((2, [[0, 1]], [-1.0], [], []), "simplex value must be finite and nonnegative: (0, 1) at -1.0"),
    "vertex-out-of-range": ((2, [[0, 2]], [1.0], [], []), "vertex index out of range in (0, 2)"),
    "non-increasing-vertices": ((2, [[1, 0]], [0.5], [], []), "simplex vertices must be strictly increasing: (1, 0)"),
    "duplicate-edge": ((2, [[0, 1], [0, 1]], [0.5, 0.5], [], []), "duplicate simplex (0, 1)"),
    "duplicate-triangle": ((3, TRIANGLE_EDGES, [1.0] * 3, [[0, 1, 2]] * 2, [1.0, 2.0]), "duplicate simplex (0, 1, 2)"),
    "missing-face": (
        (3, TRIANGLE_EDGES[:2], [1.0] * 2, [[0, 1, 2]], [1.0]),
        "face (1, 2) of (0, 1, 2) missing: complex not face-closed",
    ),
    "face-after-coface": (
        (3, TRIANGLE_EDGES, [2.0, 1.0, 1.0], [[0, 1, 2]], [1.0]),
        "face (0, 1) enters at 2.0 after coface (0, 1, 2) at 1.0",
    ),
}


class TestFilteredComplex:
    def test_sorts_simplices_by_value_dim_vertices(self):
        # the square ties four edges at 0.5, and two edges and four triangles at sqrt(2)/2
        cx = build_vr(SQUARE)
        for vertices, values in ((cx.edge_vertices, cx.edge_values), (cx.triangle_vertices, cx.triangle_values)):
            keys = list(zip(values.tolist(), vertices.tolist()))
            assert keys == sorted(keys)
        assert len(set(cx.edge_values.tolist())) == 2 and len(cx.triangle_values) == 4

    @pytest.mark.parametrize("case", REJECTED_ARRAYS)
    def test_from_arrays_rejects(self, case):
        arrays, message = REJECTED_ARRAYS[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            FilteredComplex.from_arrays(*arrays, "vr", 2.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tuple_constructor_round_trips_arrays(self, kind):
        cx = build_complex(random_cloud(4, 12, 2), kind)
        again = FilteredComplex.from_arrays(
            cx.n_vertices,
            cx.edge_vertices[::-1],
            cx.edge_values[::-1],
            cx.triangle_vertices[::-1],
            cx.triangle_values[::-1],
            kind,
            cx.max_scale,
        )
        assert_same_complex(again, cx)

    @pytest.mark.parametrize("args", [(), (3, [], "vr", 1.0)])
    def test_direct_construction_names_from_arrays(self, args):
        with pytest.raises(TypeError, match="from_arrays"):
            FilteredComplex(*args)

    def test_is_immutable(self):
        cx = build_vr(SQUARE)
        with pytest.raises(AttributeError):
            cx.max_scale = 2.0
        with pytest.raises(ValueError):
            cx.edge_values[0] = 0.0
        with pytest.raises(ValueError):
            cx.triangle_values[0] = 0.0  # built on this first read
        with pytest.raises(AttributeError):
            cx.triangle_values = cx.triangle_values[:1]

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("cap", [None, 0.3])
    def test_counting_and_reducing_leave_triangle_arrays_unbuilt(self, kind, cap):
        cx = build_complex(random_cloud(9, 40, 3), kind, max_scale=cap)
        count, text = len(cx.triangles), repr(cx)
        compute_pd(cx, 0)
        compute_pd(cx, 1)
        classify_all(cx)
        classify_edge(cx, 0)
        assert len(list(cx.edges)) == len(cx.edge_values) > 0
        lazy = {"_triangles", "triangle_vertices", "triangle_values", "triangle_edges"}
        assert not lazy & set(cx.__dict__)
        assert f"triangles={count}," in text
        assert count == len(cx.triangle_values) > 0
        assert {"_triangles", "triangle_values"} <= set(cx.__dict__)

    @pytest.mark.parametrize("kind", KINDS)
    def test_freed_without_the_cycle_collector(self, kind):
        # the cached coface pass and the views must not point back at the complex
        cx = build_complex(random_cloud(5, 30, 2), kind)
        compute_pd(cx, 1)
        classify_all(cx)
        assert len(cx.triangles) == len(list(cx.triangles)) and len(cx.edges) > 0
        ref = weakref.ref(cx)
        gc.disable()
        try:
            del cx
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [6, 60])
    def test_edge_rows_table_and_sorted_lookup_agree(self, n):
        # n = 6 takes the dense key table, n = 60 the sorted search
        rng = np.random.default_rng(n)
        pairs = sorted({tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(8)})
        keys = np.array([i * n + j for i, j in pairs], dtype=np.int64)
        queries = np.array([[i * n + j for i in range(3) for j in range(i + 1, 4)]], dtype=np.int64)
        row_of = {int(k): r for r, k in enumerate(keys)}
        want = [[row_of.get(int(q), -1) for q in queries[0]]]
        assert _edge_rows(keys, n, queries).tolist() == want


class TestLoopReference:
    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("case", sorted(LOOP_REFERENCE_CASES))
    def test_vectorized_build_equals_loops(self, kind, case):
        points, cap = LOOP_REFERENCE_CASES[case]
        cx = build_complex(points, kind, max_scale=cap)
        want_edges, want_triangles = loop_complex(_distance_matrix(points), kind, cx.max_scale)
        if cap is not None:
            n = len(points)
            assert 0 < len(want_edges) < n * (n - 1) // 2
        got_edges = [(tuple(v), x) for v, x in zip(cx.edge_vertices.tolist(), cx.edge_values.tolist())]
        got_triangles = [
            (tuple(v), x) for v, x in zip(cx.triangle_vertices.tolist(), cx.triangle_values.tolist())
        ]
        assert got_edges == want_edges
        assert got_triangles == want_triangles
        faces = cx.edge_vertices[cx.triangle_edges]
        assert np.array_equal(faces, cx.triangle_vertices[:, _FACE_COLUMNS])


class TestVR:
    def test_square_contents(self):
        cx = build_vr(SQUARE)
        root_half = math.sqrt(2.0) / 2.0
        assert value_at(cx, (0, 1)) == value_at(cx, (0, 2)) == value_at(cx, (1, 3)) == value_at(cx, (2, 3)) == 0.5
        assert value_at(cx, (0, 3)) == value_at(cx, (1, 2)) == pytest.approx(root_half)
        assert len(cx.triangles) == 4
        for tri in cx.triangles:
            assert tri.value == pytest.approx(root_half)
        assert cx.max_scale == pytest.approx(root_half)

    def test_triangle_value_is_max_edge(self):
        cx = build_vr(random_cloud(0, 7, 3))
        for tri in cx.triangles:
            i, j, k = tri.vertices
            assert tri.value == max(value_at(cx, (i, j)), value_at(cx, (i, k)), value_at(cx, (j, k)))

    def test_cap_filters_simplices(self):
        cx = build_vr(SQUARE, max_scale=0.6)
        assert [0, 1] in cx.edge_vertices.tolist()
        assert [0, 3] not in cx.edge_vertices.tolist()
        assert len(cx.triangles) == 0
        assert cx.max_scale == 0.6

    def test_default_cap_keeps_everything(self):
        cloud = random_cloud(1, 8, 2)
        cx = build_vr(cloud)
        n = cloud.n_points
        assert len(cx.edges) == n * (n - 1) // 2
        assert len(cx.triangles) == n * (n - 1) * (n - 2) // 6

    def test_triangle_needs_all_edges(self):
        # cap that keeps two of three edges: no triangle may appear
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [3.0, 0.1]])
        cx = build_vr(cloud, max_scale=1.2)
        assert len(cx.triangles) == 0


class TestCech:
    def test_edge_values_are_half_distance(self):
        cloud = random_cloud(2, 6, 2)
        cx = build_cech(cloud)
        for e in cx.edges:
            i, j = e.vertices
            d = float(np.linalg.norm(cloud.points[i] - cloud.points[j]))
            assert e.value == pytest.approx(d / 2.0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dim", [2, 4])
    def test_triangle_values_match_enclosing_ball_oracle(self, seed, dim):
        cloud = random_cloud(seed * 13 + dim, 6, dim)
        cx = build_cech(cloud)
        for tri in cx.triangles:
            i, j, k = tri.vertices
            want = oracle_meb3(cloud.points[i], cloud.points[j], cloud.points[k])
            assert tri.value == pytest.approx(want, abs=1e-9)

    def test_default_cap_keeps_every_triangle(self):
        # equilateral: the triangle needs scale side/sqrt(3) > diam/2
        side = 1.0
        tri = PointCloud([[0, 0], [side, 0], [side / 2, side * math.sqrt(3) / 2]])
        cx = build_cech(tri)
        assert len(cx.triangles) == 1
        assert cx.triangles[0].value == pytest.approx(side / math.sqrt(3))
        cloud = random_cloud(5, 8, 3)
        cx = build_cech(cloud)
        assert len(cx.triangles) == 8 * 7 * 6 // 6

    def test_rule_ignores_side_order(self):
        rng = np.random.default_rng(0)
        random_sides = rng.random((3, 10**5)) * rng.choice([1e-3, 1.0, 1e3], size=10**5)
        random_sides[1, :1000] = random_sides[0, :1000]  # isosceles ties
        # a lattice's sides include exact right triangles and flat (collinear) ones
        lattice = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float64)
        D = _distance_matrix(lattice)
        i, j, k = np.array(list(itertools.combinations(range(len(lattice)), 3))).T
        u, v = lattice[j] - lattice[i], lattice[k] - lattice[i]
        assert (np.cross(u, v) == 0.0).all(axis=1).any()
        assert ((u * v).sum(axis=1) == 0.0).any()
        for sides in (random_sides, np.stack([D[i, j], D[i, k], D[j, k]])):
            want = _meb_radius_from_sides(*sides)
            for order in itertools.permutations(range(3)):
                assert np.array_equal(_meb_radius_from_sides(*sides[list(order)]), want)

    def test_non_acute_triangle_enters_with_longest_edge(self):
        cloud = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        cx = build_cech(cloud)
        # exact float equality: the taxonomy depends on it
        assert value_at(cx, (0, 1, 2)) == value_at(cx, (1, 2)) == 2.5

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_value_at_least_vr(self, seed):
        cloud = random_cloud(seed + 100, 6, 2)
        vr = build_vr(cloud)
        cech = build_cech(cloud)
        for tri in cech.triangles:
            assert tri.value >= value_at(vr, tri.vertices) - 1e-12


class TestDelaunay:
    def test_square_is_canonicalized(self):
        cx = build_delaunay_2d(SQUARE)
        tris = tuple(t.vertices for t in cx.triangles)
        assert tris == ((0, 1, 2), (1, 2, 3))
        assert [1, 2] in cx.edge_vertices.tolist()
        assert [0, 3] not in cx.edge_vertices.tolist()
        root_half = math.sqrt(2.0) / 2.0
        assert value_at(cx, (1, 2)) == pytest.approx(root_half)
        for t in cx.triangles:
            assert t.value == pytest.approx(root_half)

    def test_gabriel_edges_enter_at_half_length(self):
        cloud = PointCloud([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
        cx = build_delaunay_2d(cloud)
        leg = float(np.linalg.norm(cloud.points[2] - cloud.points[0]))
        assert value_at(cx, (0, 2)) == pytest.approx(leg / 2.0)
        assert value_at(cx, (1, 2)) == pytest.approx(leg / 2.0)

    def test_non_gabriel_edge_waits_for_its_triangle(self):
        # (2, 0.5) sits inside the diametral disk of the base edge
        cloud = PointCloud([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
        cx = build_delaunay_2d(cloud)
        assert value_at(cx, (0, 1)) == pytest.approx(4.25)  # circumradius
        assert value_at(cx, (0, 1)) == value_at(cx, (0, 1, 2))

    def test_rejects_non_planar(self):
        with pytest.raises(ValueError, match="plane"):
            build_delaunay_2d(PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="coincident"):
            build_delaunay_2d(PointCloud([[0, 0], [0, 0], [1, 0]]))

    def test_collinear_becomes_path(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        cx = build_delaunay_2d(cloud)
        assert len(cx.triangles) == 0
        got = {e.vertices: e.value for e in cx.edges}
        assert got == {(0, 1): 0.5, (1, 3): 0.5, (2, 3): 0.5}

    def test_two_points(self):
        cx = build_delaunay_2d(PointCloud([[0.0, 0.0], [2.0, 0.0]]))
        assert {e.vertices for e in cx.edges} == {(0, 1)}
        assert value_at(cx, (0, 1)) == 1.0

    def test_single_point(self):
        cx = build_delaunay_2d(PointCloud([[0.5, 0.5]]))
        assert len(cx.edges) == 0 and len(cx.triangles) == 0

    def test_near_collinear_does_not_crash(self):
        xs = np.arange(6, dtype=np.float64)
        pts = np.stack([xs, 1e-10 * (xs % 2)], axis=1)
        cx = build_delaunay_2d(PointCloud(pts))
        assert cx.n_vertices == 6  # validated on construction

    @pytest.mark.parametrize("seed", range(10))
    def test_triangles_match_scipy_when_generic(self, seed):
        from scipy.spatial import Delaunay

        cloud = random_cloud(seed + 40, 9, 2)
        cx = build_delaunay_2d(cloud)
        want = {tuple(sorted(int(v) for v in t)) for t in Delaunay(cloud.points).simplices}
        assert {t.vertices for t in cx.triangles} == want

    def test_translation_invariant(self):
        # far from the origin Qhull used to triangulate differently
        for seed in range(200):
            cloud = np.random.default_rng(seed).random((12, 2))
            here = compute_pd(build_delaunay_2d(cloud), 1)
            there = compute_pd(build_delaunay_2d(cloud + 1e6), 1)
            assert len(there) == len(here)
            assert bottleneck_distance(here, there) <= 1e-9


def regular_polygon(k: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(k) / k
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def delaunay_reference_corpus() -> dict[str, dict[str, np.ndarray]]:
    """Planar clouds, by family, on which the array builder must equal `loop_delaunay`."""
    six_by_five = np.array([[x, y] for x in range(6) for y in range(5)], dtype=np.float64)

    def rotated(angle: float) -> np.ndarray:
        c, s = math.cos(angle), math.sin(angle)
        return six_by_five @ np.array([[c, -s], [s, c]]).T

    return {
        "random": {f"seed {s}": np.random.default_rng(s).random((3 + s % 58, 2)) for s in range(300)},
        "lattices": {
            f"seed {s}": np.unique(np.random.default_rng(1000 + s).integers(0, 7, (4 + s, 2)), axis=0).astype(float)
            for s in range(20)
        },
        "grids": {
            "6x5": six_by_five,
            # at 0.07 rad and x1.74 a point sits on a diametral circle to the last bit,
            # while the smallest incident triangle value rounds above half the edge
            "rotated 0.07": rotated(0.07),
            "rotated 0.3": rotated(0.3),
            "scaled 1.74": six_by_five * 1.74,
            "scaled 1e5": six_by_five * 1e5,
            "shifted 1e6": six_by_five + 1e6,
        },
        "polygons": {
            "regular 12-gon": regular_polygon(12),
            "regular 8-gon and an interior point": np.vstack([regular_polygon(8), [[0.1, 0.05]]]),
        },
        "large": {
            "n=150": random_cloud(150, 150, 2).points,
            "n=600": random_cloud(600, 600, 2).points,
            # the seed-independent n = 600 cloud of the alpha_stability benchmark workload
            "alpha n=600": np.random.default_rng([0, 3, 0, 5]).random((600, 2)),
        },
    }


def assert_same_complex(got: FilteredComplex, want: FilteredComplex) -> None:
    for field in ("edge_vertices", "edge_values", "triangle_vertices", "triangle_values", "triangle_edges"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.max_scale == want.max_scale


class TestDelaunayReference:
    @pytest.mark.parametrize("family", sorted(delaunay_reference_corpus()))
    def test_equals_per_simplex_builder(self, family):
        for name, points in delaunay_reference_corpus()[family].items():
            try:
                assert_same_complex(build_delaunay_2d(points), loop_delaunay(points))
            except AssertionError as err:
                raise AssertionError(f"{family} {name}: {err}") from None

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=30, unique=True))
    def test_integer_grid_points(self, coords):
        # small integer grids are full of cocircular groups of 4+ points
        points = np.array(coords, dtype=np.float64)
        assert_same_complex(build_delaunay_2d(points), loop_delaunay(points))

    @pytest.mark.parametrize("shift", [1e7, 3e7, 1e8, 1e9])
    @pytest.mark.parametrize("angle", [0.3, 1.0])
    def test_certificate_far_from_origin(self, angle, shift):
        # far out, the grid's cocircular groups are cocircular only to within
        # the rounding of the circumcentres, which the certificate must allow
        c, s = math.cos(angle), math.sin(angle)
        six_by_five = np.array([[x, y] for x in range(6) for y in range(5)], dtype=np.float64)
        points = six_by_five @ np.array([[c, -s], [s, c]]).T + shift
        try:
            want = loop_delaunay(points)
        except ValueError as err:
            # the per-simplex builder can meet a triangle that rounds flat; the
            # array builder must then fail the same way, not with a certificate error
            with pytest.raises(ValueError, match=re.escape(str(err))):
                build_delaunay_2d(points)
        else:
            assert_same_complex(build_delaunay_2d(points), want)

    def test_certificate_rejects_a_non_delaunay_triangulation(self, monkeypatch):
        import scipy.spatial

        # a convex kite: (3) lies inside the circumcircle of (0, 1, 2), so
        # the Delaunay diagonal is (1, 3), not (0, 2)
        kite = np.array([[0.0, 0.0], [1.0, -0.3], [2.0, 0.0], [1.0, 0.3]])
        assert {t.vertices for t in build_delaunay_2d(kite).triangles} == {(0, 1, 3), (1, 2, 3)}

        class WrongDiagonal:
            def __init__(self, points):
                self.simplices = np.array([[0, 1, 2], [0, 2, 3]])

        monkeypatch.setattr(scipy.spatial, "Delaunay", WrongDiagonal)
        with pytest.raises(ValueError, match=r"point 3 is inside the circumcircle of \(0, 1, 2\)"):
            build_delaunay_2d(kite)


class TestDelaunayScale:
    def test_large_cloud_stays_small(self):
        points = np.random.default_rng(5000).random((5000, 2))
        tracemalloc.start()
        try:
            cx = build_delaunay_2d(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cx.triangle_values) > 9900
        assert peak < 64 * 2**20  # a 5000 x 5000 distance matrix alone is 191 MiB

    @pytest.mark.parametrize("gap, coincident", [(5e-13, True), (1e-11, False)])
    def test_near_pair_in_large_cloud(self, gap, coincident):
        points = np.random.default_rng(5001).random((5000, 2))
        points[4321] = points[17] + [gap, 0.0]
        if coincident:
            with pytest.raises(ValueError, match="coincident"):
                build_delaunay_2d(points)
        else:
            cx = build_delaunay_2d(points)
            assert [17, 4321] in cx.edge_vertices.tolist()


class TestLexSmallestTriangulation:
    @pytest.mark.parametrize(
        "cycle",
        [
            [0, 1, 3, 2],
            [0, 2, 3, 1],
            [3, 0, 1, 2],
            [0, 1, 2, 3, 4],
            [4, 2, 0, 1, 3],
            [0, 1, 2, 3, 4, 5],
            [5, 3, 1, 0, 2, 4],
            [2, 6, 4, 0, 5, 1, 3],
        ],
    )
    def test_matches_enumeration(self, cycle):
        assert _lex_smallest_triangulation(list(cycle)) == lex_min_triangulation(cycle)

    def test_unit_square_cycle(self):
        # the fan from vertex 0 is NOT minimal here
        assert _lex_smallest_triangulation([0, 1, 3, 2]) == [(0, 1, 2), (1, 2, 3)]

    def test_cocircular_square_offsets(self):
        # shifted/scaled square: still one cocircular group of 4
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cloud = PointCloud(3.0 * base + np.array([5.0, -2.0]))
        cx = build_delaunay_2d(cloud)
        assert tuple(t.vertices for t in cx.triangles) == ((0, 1, 2), (1, 2, 3))

    def test_regular_hexagon(self):
        angles = [k * math.pi / 3 for k in range(6)]
        cloud = PointCloud([[math.cos(a), math.sin(a)] for a in angles])
        cx = build_delaunay_2d(cloud)
        got = sorted(t.vertices for t in cx.triangles)
        # convex order of the ids around the circle
        order = sorted(range(6), key=lambda v: math.atan2(cloud.points[v][1], cloud.points[v][0]))
        assert got == lex_min_triangulation(order)


class TestKindAgreement:
    @staticmethod
    def _non_obtuse(points: np.ndarray) -> bool:
        p, q, r = points
        return (
            np.dot(q - p, r - p) >= 0
            and np.dot(p - q, r - q) >= 0
            and np.dot(p - r, q - r) >= 0
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_cech_equals_delaunay_on_non_obtuse_triples(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((3, 2))
        while not self._non_obtuse(pts):
            pts = rng.random((3, 2))
        cech = build_cech(PointCloud(pts))
        alpha = build_delaunay_2d(PointCloud(pts))
        assert sorted(cech.edge_vertices.tolist()) == sorted(alpha.edge_vertices.tolist())
        assert sorted(cech.triangle_vertices.tolist()) == sorted(alpha.triangle_vertices.tolist())
        for s in (*cech.edges, *cech.triangles):
            assert value_at(alpha, s.vertices) == pytest.approx(s.value, abs=1e-9)

    def test_obtuse_triple_differs(self):
        # Cech caps the triangle at half the longest side; the alpha value
        # is the circumradius, strictly larger, and drags the longest edge
        # (non-Gabriel) up with it.
        cloud = PointCloud([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
        cech = build_cech(cloud)
        alpha = build_delaunay_2d(cloud)
        assert value_at(cech, (0, 1, 2)) == pytest.approx(2.0)
        assert value_at(alpha, (0, 1, 2)) == pytest.approx(4.25)
        assert value_at(cech, (0, 1)) == pytest.approx(2.0)
        assert value_at(alpha, (0, 1)) == pytest.approx(4.25)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [5, 8])
    def test_cech_and_delaunay_diagrams_agree(self, seed, n):
        # same union-of-balls topology, so equal diagrams in both degrees
        cloud = random_cloud(seed * 7 + n, n, 2)
        cech = build_cech(cloud)
        alpha = build_delaunay_2d(cloud)
        for dim in (0, 1):
            assert diagram_equal(
                compute_pd(cech, dim), compute_pd(alpha, dim), tol=1e-9
            )


class TestBuildComplex:
    @pytest.mark.parametrize("kind", KINDS)
    def test_accepts_strings_and_enums(self, kind):
        cloud = random_cloud(3, 5, 2)
        a = build_complex(cloud, kind)
        b = build_complex(cloud, FiltrationKind(kind))
        assert_same_complex(a, b)

    def test_delaunay_rejects_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_complex(SQUARE, "delaunay", max_scale=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_complex(SQUARE, "rips")

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("cap", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_cap_rejected(self, kind, cap):
        # every `value <= cap` test would be False and leave the vertices alone
        with pytest.raises(ValueError, match="max_scale must be a nonnegative number"):
            build_complex(SQUARE, kind, max_scale=cap)

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_zero_and_infinite_caps_accepted(self, kind):
        assert len(build_complex(SQUARE, kind, max_scale=0.0).edge_values) == 0
        full = build_complex(SQUARE, kind, max_scale=math.inf)
        assert full.max_scale == math.inf
        assert len(full.edge_values) == 6 and len(full.triangle_values) == 4

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_clouds_build_valid_filtrations(self, kind, seed):
        # FilteredComplex validates closure and monotonicity on construction
        cloud = random_cloud(seed + 60, 7, 2)
        cx = build_complex(cloud, kind)
        assert cx.kind is FiltrationKind(kind)
        assert critical_scales(cx)[-1] <= cx.max_scale + 1e-12


class TestCriticalScales:
    def test_sorted_distinct_with_zero(self):
        scales = critical_scales(build_vr(SQUARE))
        assert scales[0] == 0.0
        assert scales == sorted(set(scales))
        assert scales == [0.0, 0.5, pytest.approx(math.sqrt(2) / 2)]
