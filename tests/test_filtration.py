import gc
import itertools
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointpd.filtration import (
    _FACE_COLUMNS,
    _MAX_VERTICES,
    _STACK,
    FilteredComplex,
    FiltrationKind,
    _capped_complexes,
    _complex_groups,
    _edge_rows,
    _explicit_cofaces,
    _lex_smallest_triangulation,
    _meb_radius_from_sides,
    _triangulation,
    build_cech,
    build_complex,
    build_delaunay_2d,
    build_vr,
)
from pointpd.constructions import TailSpec, generate_tail, validate_tail
from pointpd.edges import _edge_classes, classify_all, classify_edge
from pointpd.geometry import PointCloud, Ray, _distance_matrix, _norms
from pointpd.persistence import _dim1_diagrams, bottleneck_distance, compute_pd, diagram_equal

from oracles import (
    NEAR_EQUILATERAL,
    equilateral_triangles,
    lex_greedy_triangulation,
    lex_min_triangulation,
    loop_complex,
    loop_delaunay,
    masked_cofaces,
    oracle_meb3,
    simplices,
)

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
KINDS = ["vr", "cech", "delaunay"]
ARRAYS = ["edge_vertices", "edge_values", "triangle_vertices", "triangle_values", "triangle_edges"]


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


# from_arrays inputs (n, edge vertices, edge values, triangle vertices, triangle values[, max_scale, else 2.0])
# and the error each raises
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
    "no-edges": ((3, [], [], [[0, 1, 2]], [1.0]), "face (0, 1) of (0, 1, 2) missing: complex not face-closed"),
    "face-after-coface": (
        (3, TRIANGLE_EDGES, [2.0, 1.0, 1.0], [[0, 1, 2]], [1.0]),
        "face (0, 1) enters at 2.0 after coface (0, 1, 2) at 1.0",
    ),
    "nan-cap": ((2, [[0, 1]], [0.5], [], [], math.nan), "max_scale must be a nonnegative number, got nan"),
    "negative-cap": ((2, [[0, 1]], [0.5], [], [], -1.0), "max_scale must be a nonnegative number, got -1.0"),
    "edge-above-cap": ((2, [[0, 1]], [2.5], [], []), "simplex (0, 1) at 2.5 is above max_scale 2.0"),
    "triangle-above-cap": (
        (3, TRIANGLE_EDGES, [1.0] * 3, [[0, 1, 2]], [1.5], 1.25),
        "simplex (0, 1, 2) at 1.5 is above max_scale 1.25",
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
        cap = arrays[5] if len(arrays) > 5 else 2.0
        with pytest.raises(ValueError, match=re.escape(message)):
            FilteredComplex.from_arrays(*arrays[:5], "vr", cap)

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

    @pytest.mark.parametrize("field", ARRAYS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_is_immutable(self, kind, field):
        cx = build_complex(SQUARE, kind)
        with pytest.raises(AttributeError):
            cx.max_scale = 2.0
        array = getattr(cx, field)  # a VR/Cech triangle array is built on this first read
        with pytest.raises(ValueError):
            array[0] = array[-1]
        with pytest.raises(AttributeError):
            setattr(cx, field, array[:1])

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("cap", [None, 0.3])
    def test_counting_and_reducing_leave_triangle_arrays_unbuilt(self, kind, cap):
        cx = build_complex(random_cloud(9, 40, 3), kind, max_scale=cap)
        compute_pd(cx, 0)
        compute_pd(cx, 1)
        classify_all(cx)
        classify_edge(cx, 0)
        assert len(simplices(cx, 1)) == len(cx.edge_values) > 0
        lazy = {"_triangles", "triangle_vertices", "triangle_values", "triangle_edges"}
        assert not lazy & set(cx.__dict__)
        count, text = len(cx.triangles), repr(cx)
        if cap is None:  # every triple: counted without the arrays; a capped count reads them
            assert not lazy & set(cx.__dict__)
        assert f"triangles={count}," in text
        assert count == len(cx.triangle_values) > 0
        assert {"_triangles", "triangle_values"} <= set(cx.__dict__)

    @pytest.mark.parametrize("kind", KINDS)
    def test_freed_without_the_cycle_collector(self, kind):
        # the cached coface pass and triangle arrays must not point back at the complex
        cx = build_complex(random_cloud(5, 30, 2), kind)
        compute_pd(cx, 1)
        classify_all(cx)
        assert len(cx.triangles) == len(simplices(cx, 2)) and len(cx.edges) > 0
        ref = weakref.ref(cx)
        gc.disable()
        try:
            del cx
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cap", [None, 0.3])
    def test_views_are_ranges_over_the_array_rows(self, kind, cap):
        cloud = random_cloud(6, 8, 2)
        if cap is not None and kind == "delaunay":  # the builder takes no cap: cap its arrays
            full = build_delaunay_2d(cloud)
            e, t = full.edge_values <= cap, full.triangle_values <= cap
            cx = FilteredComplex.from_arrays(
                8, full.edge_vertices[e], full.edge_values[e], full.triangle_vertices[t], full.triangle_values[t], kind, cap
            )
        else:
            cx = build_complex(cloud, kind, max_scale=cap)
        assert type(cx.edges) is range and type(cx.triangles) is range
        rows = range(len(cx.edge_values)), range(len(cx.triangle_values))  # builds a VR/Cech complex's triangle arrays
        assert (cx.edges, cx.triangles) == rows and len(cx.triangles) > 0

    @pytest.mark.parametrize("n", [6, 60])
    def test_edge_rows_table_and_sorted_lookup_agree(self, n):
        # one sorted search at any n: the keys pack densely at n = 6 and sparsely at n = 60
        rng = np.random.default_rng(n)
        pairs = sorted({tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(8)})
        keys = np.array([i * n + j for i, j in pairs], dtype=np.int64)
        queries = np.array([[i * n + j for i in range(3) for j in range(i + 1, 4)]], dtype=np.int64)
        row_of = {int(k): r for r, k in enumerate(keys)}
        want = [[row_of.get(int(q), -1) for q in queries[0]]]
        assert _edge_rows(keys, queries).tolist() == want


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


def _lattice(side: int, dim: int) -> np.ndarray:
    return np.array(list(itertools.product(range(side), repeat=dim)), dtype=np.float64)


class TestImplicitBuild:
    """The VR/Cech builder's D, edge order and coface pass, against the expressions they stand in for."""

    @pytest.mark.parametrize("dim", range(1, 21))
    def test_distance_matrix_equals_norms_of_differences(self, dim):
        # summing coordinate by coordinate matches numpy's in-order sum below 8 terms bit for bit; from 8 on numpy
        # sums pairwise, and each order's rounding of d positive squares moves the root by under d/2 ulps
        rng = np.random.default_rng(dim)
        for points in (rng.random((30, dim)), rng.random((4, 17, dim)) * 1e3 - 400.0):
            diff = points[..., :, None, :] - points[..., None, :, :]
            want = np.sqrt((diff * diff).sum(axis=-1))
            if dim < 8:
                assert np.array_equal(_distance_matrix(points), want)
            else:
                np.testing.assert_allclose(_distance_matrix(points), want, rtol=dim * np.finfo(np.float64).eps, atol=0.0)

    def test_norms_of_differences_equal_distance_matrix(self):
        # one recipe: every length the package measures is D bit for bit, from 8 coordinates on as well
        for dim in range(1, 21):
            rng = np.random.default_rng(dim)
            for points in (rng.random((30, dim)), rng.random((4, 17, dim)) * 1e3 - 400.0):
                diff = points[..., :, None, :] - points[..., None, :, :]
                assert np.array_equal(_norms(diff), _distance_matrix(points)), dim

    @pytest.mark.parametrize(
        "case,cap",
        [("uniform", None), ("uniform", 0.3), ("grid", None), ("grid", 1.5), ("lattice_3d", None), ("stack", None),
         ("lattice_stack", None)],
    )
    def test_edge_order_is_the_stable_sort(self, case, cap):
        rng = np.random.default_rng(3)
        points = {
            "uniform": rng.random((1, 50, 2)),
            "grid": grid()[None],
            "lattice_3d": _lattice(4, 3)[None],
            "stack": rng.random((6, 40, 4)),
            "lattice_stack": np.stack([_lattice(3, 3)[rng.permutation(27)] for _ in range(5)]),
        }[case]
        n = points.shape[1]
        i, j = np.triu_indices(n, k=1)
        values = _norms(points[..., :, None, :] - points[..., None, :, :])[:, i, j] / 2.0
        ties = sum(len(row) - len(np.unique(row)) for row in values)
        assert ties > 100 if "lattice" in case or "grid" in case else ties == 0
        for t, cx in enumerate(_capped_complexes(points, FiltrationKind.VR, cap)):
            order = np.argsort(values[t], kind="stable")
            order = order[values[t, order] <= (math.inf if cap is None else cap)]
            assert np.array_equal(cx.edge_vertices, np.stack([i, j], axis=1)[order])
            assert np.array_equal(cx.edge_values, values[t, order])

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize(
        "case,cap",
        [("uniform_2d", None), ("uniform_3d", 0.35), ("grid", None), ("grid", 1.5), ("lattice_3d", None),
         ("stack", None)],
    )
    def test_coface_pass_equals_the_masked_reference(self, kind, case, cap):
        rng = np.random.default_rng(4)
        clouds = {
            "uniform_2d": [rng.random((30, 2))],
            "uniform_3d": [rng.random((28, 3))],
            "grid": [grid(0.3)],
            "lattice_3d": [_lattice(3, 3)],
            "stack": list(rng.random((5, 16, 3))),
        }[case]
        if len(clouds) > 1:
            (complexes,) = _complex_groups(clouds, FiltrationKind(kind))
        else:
            complexes = [build_complex(clouds[0], kind, max_scale=cap)]
        for points, cx in zip(clouds, complexes):
            cofaces, m = cx._cofaces, len(cx.edge_values)
            *fields, rows = masked_cofaces(points, kind, cx.max_scale, cx.edge_vertices.tolist())
            got = [cofaces.oldest_values, cofaces.oldest_ids, cofaces.long, cofaces.apparent]
            assert [field.tolist() for field in got] == fields
            assert cofaces.rows(list(range(cofaces.offset, cofaces.offset + m))) == rows
            assert sum(map(len, (values for values, _ in rows))) == 3 * len(cx.triangles) > 0

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_implicit_pass_equals_the_explicit_pass(self, kind):
        # the pass read off D against the CSR coboundary of the same complex's own triangle arrays: lone clouds at
        # five caps, the 4^4 lattice and the 8x8 grid at four, and every member of one group of clouds of six sizes
        lone = [random_cloud(21, 30, 2).points, random_cloud(22, 24, 3).points, grid(), grid(0.3), _lattice(3, 3)]
        caps = (0.5, 0.75, 1.0, 1.25)
        complexes = [build_complex(points, kind, max_scale=cap) for points in lone for cap in (None, *caps)]
        grids = (_lattice(4, 4), _lattice(8, 2))
        complexes += [build_complex(points, kind, max_scale=cap) for points in grids for cap in caps]
        rng = np.random.default_rng(23)
        (group,) = _complex_groups([rng.random((n, 2)) for n in (1, 2, 5, 12, 22, 30)], kind)
        for cx in complexes + group:
            got, want = cx._cofaces, _explicit_cofaces(cx)
            for field in ("oldest_values", "oldest_ids", "long", "apparent"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            edges = list(range(len(cx.edge_values)))
            assert got.rows([got.offset + e for e in edges]) == want.rows(edges)
        assert [cx.n_vertices for cx in group] == [1, 2, 5, 12, 22, 30]


def reordered_cech() -> FilteredComplex:
    """A capped Cech complex rebuilt by `from_arrays` from its arrays in reverse order."""
    cx = build_cech(random_cloud(28, 24, 2), max_scale=0.35)
    arrays = (cx.edge_vertices, cx.edge_values, cx.triangle_vertices, cx.triangle_values)
    return FilteredComplex.from_arrays(24, *(a[::-1] for a in arrays), "cech", 0.35)


# complexes of every kind and shape whose coface ids must decode; the 5x5 grid's Delaunay complex has cocircular groups
ID_CASES = {
    "delaunay_random": lambda: [build_delaunay_2d(random_cloud(25, 40, 2))],
    "delaunay_grid": lambda: [build_delaunay_2d(grid())],
    "vr": lambda: [build_vr(random_cloud(26, 20, 3))],
    "vr_capped": lambda: [build_vr(random_cloud(27, 30, 2), max_scale=0.4)],
    "cech": lambda: [build_cech(random_cloud(26, 20, 3))],
    "cech_capped": lambda: [build_cech(random_cloud(27, 30, 2), max_scale=0.4)],
    "cech_ragged": lambda: next(_complex_groups([random_cloud(29 + n, n, 2) for n in (3, 9, 16, 24)], "cech")),
    "from_arrays": lambda: [reordered_cech()],
}


class TestTriangleIds:
    """Both coface passes name a triangle by its key (a n + b) n + c, so an id decodes to the triangle it names."""

    @pytest.mark.parametrize("case", ID_CASES)
    def test_an_id_decodes_to_its_triangle(self, case):
        for cx in ID_CASES[case]():
            cofaces, n = cx._cofaces, cx.n_vertices
            value_of = dict(zip(map(tuple, cx.triangle_vertices.tolist()), cx.triangle_values.tolist()))
            assert np.array_equal(cofaces.oldest_ids == -1, cofaces.oldest_values == np.inf)
            edges = cx.edge_vertices.tolist()
            rows = cofaces.rows([cofaces.offset + e for e in range(len(edges))])
            assert sum(len(ids) for _, ids in rows) == 3 * len(value_of)
            oldest = zip(cofaces.oldest_values.tolist(), cofaces.oldest_ids.tolist())
            for edge, (values, ids), (first_value, first_id) in zip(edges, rows, oldest, strict=True):
                named = list(zip(values, ids)) + ([(first_value, first_id)] if first_id >= 0 else [])
                for value, t in named:
                    a, b, c = t // (n * n), t // n % n, t % n
                    assert 0 <= a < b < c < n and set(edge) <= {a, b, c}, (case, edge, t)
                    assert value_of[a, b, c] == value, (case, edge, t)


class TestVR:
    def test_square_contents(self):
        cx = build_vr(SQUARE)
        root_half = math.sqrt(2.0) / 2.0
        assert value_at(cx, (0, 1)) == value_at(cx, (0, 2)) == value_at(cx, (1, 3)) == value_at(cx, (2, 3)) == 0.5
        assert value_at(cx, (0, 3)) == value_at(cx, (1, 2)) == pytest.approx(root_half)
        assert len(cx.triangles) == 4
        for tri in simplices(cx, 2):
            assert tri.value == pytest.approx(root_half)
        assert cx.max_scale == math.inf

    def test_triangle_value_is_max_edge(self):
        cx = build_vr(random_cloud(0, 7, 3))
        for tri in simplices(cx, 2):
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
        for e in simplices(cx, 1):
            i, j = e.vertices
            d = float(np.linalg.norm(cloud.points[i] - cloud.points[j]))
            assert e.value == pytest.approx(d / 2.0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dim", [2, 4])
    def test_triangle_values_match_enclosing_ball_oracle(self, seed, dim):
        cloud = random_cloud(seed * 13 + dim, 6, dim)
        cx = build_cech(cloud)
        for tri in simplices(cx, 2):
            i, j, k = tri.vertices
            want = oracle_meb3(cloud.points[i], cloud.points[j], cloud.points[k])
            assert tri.value == pytest.approx(want, abs=1e-9)

    def test_default_cap_keeps_every_triangle(self):
        # equilateral: the triangle needs scale side/sqrt(3) > diam/2
        side = 1.0
        tri = PointCloud([[0, 0], [side, 0], [side / 2, side * math.sqrt(3) / 2]])
        cx = build_cech(tri)
        assert len(cx.triangles) == 1
        assert simplices(cx, 2)[0].value == pytest.approx(side / math.sqrt(3))
        cloud = random_cloud(5, 8, 3)
        cx = build_cech(cloud)
        assert len(cx.triangles) == 8 * 7 * 6 // 6
        # in floats these triangles' values round up to a few ulps above their exact bound diam/sqrt(3)
        for points in [NEAR_EQUILATERAL, *equilateral_triangles(50)]:
            cx = build_cech(points)
            assert cx.max_scale == math.inf and len(cx.triangle_values) == 1
            (pair,) = compute_pd(cx, 1).pairs
            assert pair[1] == cx.triangle_values[0]
        assert value_at(build_cech(NEAR_EQUILATERAL), (0, 1, 2)) == 8.574042765875697

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

    @pytest.mark.parametrize("side", [1e77, 1e100, 1e120, 1e150])
    def test_equilateral_triangle_past_heron_overflow(self, side):
        # Heron's product overflows past about 2**255 (5.8e76): the rule scales each such triangle's sides by a power of two
        cx = build_cech(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]) * side)
        (value,) = cx.triangle_values
        assert abs(value - side / math.sqrt(3.0)) <= 4 * math.ulp(side / math.sqrt(3.0))
        ((birth, death),) = compute_pd(cx, 1).pairs
        assert birth == cx.edge_values[-1] and death == value

    def test_huge_sides_elsewhere_leave_a_small_triangle_unscaled(self):
        # the far point's triangles are scaled past 2**250, each by its own power of two; the tiny equilateral
        # triangle shares their blocks and keeps the bits it has alone, so its bar (5e-7, 5.77e-7) stays
        tiny = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]) * 1e-6
        alone = build_cech(tiny)
        cx = build_cech(np.vstack([tiny, [[1e80, 0.0]]]))
        (value,) = alone.triangle_values
        assert value == pytest.approx(1e-6 / math.sqrt(3.0), rel=1e-15)
        assert value in cx.triangle_values.tolist()
        assert compute_pd(cx, 1).pairs == compute_pd(alone, 1).pairs == ((alone.edge_values[-1], value),)

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
        for tri in simplices(cech, 2):
            assert tri.value >= value_at(vr, tri.vertices) - 1e-12


class TestDelaunay:
    def test_square_is_canonicalized(self):
        cx = build_delaunay_2d(SQUARE)
        tris = tuple(t.vertices for t in simplices(cx, 2))
        assert tris == ((0, 1, 2), (1, 2, 3))
        assert [1, 2] in cx.edge_vertices.tolist()
        assert [0, 3] not in cx.edge_vertices.tolist()
        root_half = math.sqrt(2.0) / 2.0
        assert value_at(cx, (1, 2)) == pytest.approx(root_half)
        for t in simplices(cx, 2):
            assert t.value == pytest.approx(root_half)
        assert cx.max_scale == math.inf

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

    def test_rejects_a_duplicate_that_qhull_sets_aside(self):
        # off the collinear path the duplicate is in no Qhull simplex, so no edge reveals it
        with pytest.raises(ValueError, match="^coincident points are not allowed$"):
            build_delaunay_2d(PointCloud([[0, 0], [1, 0], [0, 1], [1, 0], [1, 1.5]]))

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_qhull_failure_is_a_value_error(self, scale):
        # Qhull cannot scale the lifted coordinate of so large a cloud: its first line, not a RuntimeError dump
        with pytest.raises(ValueError, match=r"^QH\d+ qhull [^\n]*$"):
            build_delaunay_2d(PointCloud([[scale, 0.0], [-scale, 0.0], [0.0, scale]]))

    def test_collinear_becomes_path(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        cx = build_delaunay_2d(cloud)
        assert len(cx.triangles) == 0
        got = {e.vertices: e.value for e in simplices(cx, 1)}
        assert got == {(0, 1): 0.5, (1, 3): 0.5, (2, 3): 0.5}
        assert cx.max_scale == math.inf

    def test_two_points(self):
        cx = build_delaunay_2d(PointCloud([[0.0, 0.0], [2.0, 0.0]]))
        assert {e.vertices for e in simplices(cx, 1)} == {(0, 1)}
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
        assert {t.vertices for t in simplices(cx, 2)} == want

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


def rotated_integer_grids(count: int = 300) -> dict[str, np.ndarray]:
    """Random 8 x 8 integer grid subsets, rotated, scaled and shifted. In some, a group
    member sits on the circle of the group's diameter, one ulp inside or outside."""
    rng, out = np.random.default_rng(123), {}
    for t in range(count):
        points = np.unique(rng.integers(0, 8, (rng.integers(10, 40), 2)), axis=0).astype(float)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        scale, shift = (0.3, 1.0, 1.74, 1e3)[t % 4], (0.0, 10.0, 1e3)[t % 3]
        out[f"grid {t} at {angle:.3f} rad"] = points @ np.array([[c, -s], [s, c]]).T * scale + shift
    return out


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
            "regular 60-gon": regular_polygon(60),
            "regular 8-gon and an interior point": np.vstack([regular_polygon(8), [[0.1, 0.05]]]),
        },
        "rotated integer grids": rotated_integer_grids(),
        "large": {
            "n=150": random_cloud(150, 150, 2).points,
            "n=600": random_cloud(600, 600, 2).points,
            # the seed-independent n = 600 cloud of the alpha_stability benchmark workload
            "alpha n=600": np.random.default_rng([0, 3, 0, 5]).random((600, 2)),
        },
    }


def assert_same_complex(got: FilteredComplex, want: FilteredComplex) -> None:
    for field in ARRAYS:
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

    @pytest.mark.parametrize("shift", [1e3, 1e5, 1e6, 1e7, 3e7, 1e8, 1e9])
    @pytest.mark.parametrize("angle", [0.3, 1.0])
    def test_certificate_far_from_origin(self, angle, shift):
        # far out, Qhull adds flat simplices along the grid's straight sides and the
        # cells are cocircular only to within the rounding of the circumcentres;
        # the build must still be a triangulation of the grid, with the grid's diagram
        c, s = math.cos(angle), math.sin(angle)
        six_by_five = np.array([[x, y] for x in range(6) for y in range(5)], dtype=np.float64)
        points = six_by_five @ np.array([[c, -s], [s, c]]).T
        cx = build_delaunay_2d(points + shift)
        tris = cx.triangle_vertices
        assert len(tris) == 40
        assert len(points) - len(cx.edge_vertices) + len(tris) == 1
        # measured on the unshifted grid, so overlapping triangles would sum to more
        u, v = points[tris[:, 1]] - points[tris[:, 0]], points[tris[:, 2]] - points[tris[:, 0]]
        assert np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]).sum() / 2.0 == pytest.approx(20.0, abs=1e-9)
        want = compute_pd(build_delaunay_2d(points), 1)
        assert bottleneck_distance(compute_pd(cx, 1), want) <= 4.0 * np.finfo(np.float64).eps * shift

    @pytest.mark.parametrize("shift", [1e3, 1e5])
    def test_shifted_grid_keeps_its_triangulation(self, shift):
        # shifted by 1e3 the rotated 6x5 grid gives 57 triangles, and its degree-1
        # diagram gains a pair that dies near 4e13 and one that never dies
        c, s = math.cos(0.3), math.sin(0.3)
        points = np.array([[x, y] for x in range(6) for y in range(5)], dtype=np.float64) @ np.array([[c, -s], [s, c]]).T
        cx = build_delaunay_2d(points + shift)
        # no planar triangulation of n points has more than 2n - 5 triangles
        assert len(cx.triangle_values) <= 2 * len(points) - 5
        want = compute_pd(build_delaunay_2d(points), 1)
        assert bottleneck_distance(compute_pd(cx, 1), want) <= 1e-9

    def test_certificate_rejects_a_non_delaunay_triangulation(self, monkeypatch):
        import scipy.spatial

        # a convex kite: (3) lies inside the circumcircle of (0, 1, 2), so
        # the Delaunay diagonal is (1, 3), not (0, 2)
        kite = np.array([[0.0, 0.0], [1.0, -0.3], [2.0, 0.0], [1.0, 0.3]])
        assert {t.vertices for t in simplices(build_delaunay_2d(kite), 2)} == {(0, 1, 3), (1, 2, 3)}

        class WrongDiagonal:
            def __init__(self, points):
                self.simplices = np.array([[0, 1, 2], [0, 2, 3]])

        monkeypatch.setattr(scipy.spatial, "Delaunay", WrongDiagonal)
        with pytest.raises(ValueError, match=r"point 3 is inside the circumcircle of \(0, 1, 2\)"):
            build_delaunay_2d(kite)

    @pytest.mark.parametrize(
        "third, message",
        [
            pytest.param((0, 1, 2), r"point 3 is inside the circumcircle of \(0, 1, 2\)", id="certificate"),
            pytest.param((1, 2, 3), r"not a triangulation: n - E \+ t = 2, and an edge lies in 3", id="guard"),
        ],
    )
    def test_overlapping_triangles_are_rejected(self, monkeypatch, third, message):
        import scipy.spatial

        # the kite's Delaunay triangles (0, 1, 3) and (1, 2, 3), and a third that overlaps them
        kite = np.array([[0.0, 0.0], [1.0, -0.3], [2.0, 0.0], [1.0, 0.3]])

        class Overlapping:
            def __init__(self, points):
                self.simplices = np.array([[0, 1, 3], [1, 2, 3], third])

        monkeypatch.setattr(scipy.spatial, "Delaunay", Overlapping)
        with pytest.raises(ValueError, match=message):
            build_delaunay_2d(kite)


class TestTriangulation:
    @pytest.mark.parametrize(
        "tris, message",
        [
            pytest.param([[0, 1, 2], [0, 1, 3], [0, 1, 4]], "n - E + t = 1, and an edge lies in 3 triangles", id="fan"),
            pytest.param([[0, 1, 2], [3, 4, 5]], "n - E + t = 2, and an edge lies in 1 triangles", id="disjoint"),
        ],
    )
    def test_guard_rejects(self, tris, message):
        points = np.random.default_rng(0).random((1 + max(map(max, tris)), 2))
        with pytest.raises(ValueError, match=re.escape(f"not a triangulation: {message}")):
            _triangulation(points, np.array(tris, dtype=np.intp))

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_from_the_faces(self, seed):
        # against a per-face dict: edges in key order, each face's edge, and the pairs of faces on one edge
        import scipy.spatial

        points = np.random.default_rng(seed).random((40, 2))
        tris = np.sort(scipy.spatial.Delaunay(points).simplices.astype(np.intp), axis=1)
        edges, half, inverse, shared = _triangulation(points, tris)
        faces = [tuple(t[list(cols)].tolist()) for t in tris for cols in _FACE_COLUMNS]
        assert [tuple(e) for e in edges.tolist()] == sorted(set(faces))
        assert [tuple(edges[r].tolist()) for r in inverse] == faces
        on_edge = {}
        for f, face in enumerate(faces):
            on_edge.setdefault(face, []).append(f)
        assert np.sort(shared, axis=1).tolist() == [fs for _, fs in sorted(on_edge.items()) if len(fs) == 2]
        assert np.array_equal(half, _norms(points[edges[:, 0]] - points[edges[:, 1]]) / 2.0)


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

    def test_regular_polygon_is_one_cocircular_group(self):
        # every circumcircle passes through all 1000 points; the group is found
        # once, from the triangles' adjacency, and triangulated as the fan from 0
        tracemalloc.start()
        try:
            cx = build_delaunay_2d(regular_polygon(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(cx.triangle_vertices.tolist()) == [[0, k, k + 1] for k in range(1, 999)]
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("angle, spacing", [(0.0, 1.0), (0.3, 1.0), (0.0, 0.5)])
    def test_lattice_cells_keep_the_lex_smallest_diagonal(self, angle, spacing):
        # a 30 x 30 lattice has 841 cocircular cells (one group each); every
        # cell a, a + 1, a + 30, a + 31 keeps the diagonal (a + 1, a + 30)
        side = 30
        c, s = math.cos(angle), math.sin(angle)
        points = np.array([[x, y * spacing] for x in range(side) for y in range(side)]) @ np.array([[c, -s], [s, c]]).T
        corners = [a for a in range(side * (side - 1)) if a % side < side - 1]
        want = sorted([(a, a + 1, a + side) for a in corners] + [(a + 1, a + side, a + side + 1) for a in corners])
        assert sorted(map(tuple, build_delaunay_2d(points).triangle_vertices.tolist())) == want


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

    @given(st.integers(3, 8).flatmap(lambda k: st.permutations(range(k))))
    def test_matches_enumeration_on_every_labelling(self, cycle):
        assert _lex_smallest_triangulation(list(cycle)) == lex_min_triangulation(cycle)

    def test_equals_the_greedy_on_random_cycles(self):
        rng = np.random.default_rng(18)
        for _ in range(2000):
            cycle = rng.permutation(1000)[: rng.integers(3, 61)].tolist()
            assert _lex_smallest_triangulation(cycle) == lex_greedy_triangulation(cycle), cycle

    def test_large_cycle_is_fast(self):
        # the arc-splitting greedy sorts and searches the remaining arc per pick: 0.6-1.5 s on a 2-core VM
        cycle = list(range(10_000))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            got = _lex_smallest_triangulation(cycle)
            best = min(best, time.perf_counter() - start)
        assert got == [(0, k, k + 1) for k in range(1, 9_999)]
        assert best < 0.25

    def test_unit_square_cycle(self):
        # the fan from vertex 0 is NOT minimal here
        assert _lex_smallest_triangulation([0, 1, 3, 2]) == [(0, 1, 2), (1, 2, 3)]

    def test_cocircular_square_offsets(self):
        # shifted/scaled square: still one cocircular group of 4
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cloud = PointCloud(3.0 * base + np.array([5.0, -2.0]))
        cx = build_delaunay_2d(cloud)
        assert tuple(t.vertices for t in simplices(cx, 2)) == ((0, 1, 2), (1, 2, 3))

    def test_regular_hexagon(self):
        angles = [k * math.pi / 3 for k in range(6)]
        cloud = PointCloud([[math.cos(a), math.sin(a)] for a in angles])
        cx = build_delaunay_2d(cloud)
        got = sorted(t.vertices for t in simplices(cx, 2))
        # convex order of the ids around the circle
        order = sorted(range(6), key=lambda v: math.atan2(cloud.points[v][1], cloud.points[v][0]))
        assert got == lex_min_triangulation(order)


def near_collinear_tail(cone: float, seed: int) -> np.ndarray:
    return generate_tail(TailSpec(Ray(np.zeros(2), np.array([1.0, 0.3])), 30, 0.5, 1.5, cone, seed)).points


def noisy_line(noise: float) -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.sort(rng.random(30))
    return np.stack([t, 0.5 * t + noise * rng.standard_normal(30)], axis=1)


# Near-collinear clouds, each with what the Delaunay build does wrong today: thin triangles have
# circumradii of 5e5 to 5e9, so COCIRCULAR_TOL * max(1, r) links neighbours that are not cocircular,
# and the "groups" are re-triangulated as convex polygons (ROADMAP item 7)
NEAR_COLLINEAR = {
    "tail cone 0.01 seed 2": (lambda: near_collinear_tail(0.01, 2), AssertionError),  # 2 pairs, deaths to 1.3e6
    "tail cone 1e-3 seed 0": (lambda: near_collinear_tail(1e-3, 0), ValueError),  # not a triangulation
    "tail cone 1e-6 seed 0": (lambda: near_collinear_tail(1e-6, 0), AssertionError),  # 4 pairs
    "line noise 1e-7": (lambda: noisy_line(1e-7), AssertionError),  # 5 pairs, bottleneck 2.2e5 to Cech
    "line noise 1e-6": (lambda: noisy_line(1e-6), ValueError),  # not a triangulation
}


class TestNearCollinear:
    @pytest.mark.parametrize("name", sorted(NEAR_COLLINEAR))
    def test_cech_has_no_cycles(self, name):
        points = NEAR_COLLINEAR[name][0]()
        assert compute_pd(build_cech(points), 1).pairs == ()
        assert not name.startswith("tail") or validate_tail(points, "cech").ok

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=raises, reason="ROADMAP item 7"))
            for name, (_, raises) in sorted(NEAR_COLLINEAR.items())
        ],
    )
    def test_delaunay_has_no_cycles(self, name):
        points = NEAR_COLLINEAR[name][0]()
        assert compute_pd(build_delaunay_2d(points), 1).pairs == ()
        assert not name.startswith("tail") or validate_tail(points, "delaunay").ok


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
        for s in (*simplices(cech, 1), *simplices(cech, 2)):
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

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("cap", [None, math.inf])
    def test_kept_distance_that_overflows_rejected(self, kind, cap):
        # the distance from (0, 0) to (1e200, 0) squares past the largest float; numpy warns as it overflows
        with pytest.warns(RuntimeWarning), pytest.raises(
            ValueError, match=r"^simplex value must be finite and nonnegative: \(0, 1\) at inf$"
        ):
            build_complex([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], kind, max_scale=cap)

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_overflowed_distance_above_the_cap_left_out(self, kind):
        with pytest.warns(RuntimeWarning):
            cx = build_complex([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], kind, max_scale=1.0)
        assert cx.edge_vertices.tolist() == [[0, 2]] and cx.edge_values.tolist() == [0.5]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_clouds_build_valid_filtrations(self, kind, seed):
        # FilteredComplex validates closure and monotonicity on construction
        cloud = random_cloud(seed + 60, 7, 2)
        cx = build_complex(cloud, kind)
        assert cx.kind is FiltrationKind(kind)
        assert max(cx.edge_values.max(initial=0.0), cx.triangle_values.max(initial=0.0)) <= cx.max_scale + 1e-12


def ragged_cloud(rng: np.random.Generator, n: int, dim: int, lattice: bool) -> np.ndarray:
    """n uniform points in the unit cube, or n distinct points of a small integer lattice, where distances tie."""
    if not lattice:
        return rng.random((n, dim))
    cells = _lattice(math.ceil(n ** (1.0 / dim)) + 1, dim)
    return cells[rng.choice(len(cells), n, replace=False)]


class TestRaggedGroups:
    """Consecutive clouds of one ambient dimension and any sizes share one D stack, one coface pass and one `rows`
    source; each member is its cloud's lone build."""

    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 45), min_size=1, max_size=6),
           dim=st.integers(1, 4), switch=st.integers(1, 6), lattice=st.booleans(), kind=st.sampled_from(["vr", "cech"]))
    def test_members_equal_lone_builds(self, seed, sizes, dim, switch, lattice, kind):
        # clouds from `switch` on live one dimension up: the groups split there
        rng = np.random.default_rng(seed)
        clouds = [ragged_cloud(rng, n, dim if t < switch else dim % 4 + 1, lattice) for t, n in enumerate(sizes)]
        groups = list(_complex_groups(clouds, kind))
        members = [cx for group in groups for cx in group]
        lones = [build_complex(points, kind) for points in clouds]
        assert len(members) == len(clouds)
        for cx, lone in zip(members, lones):  # rows first: a reduction on wrong rows need not end
            assert (cx.n_vertices, cx.kind, cx.max_scale) == (lone.n_vertices, lone.kind, lone.max_scale)
            for name in ARRAYS:  # the triangles from the member's view of the padded D stack
                assert np.array_equal(getattr(cx, name), getattr(lone, name)), name
            got, want = cx._cofaces, lone._cofaces
            for field in ("oldest_values", "oldest_ids", "long", "apparent"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            m = len(lone.edge_values)
            sample = rng.choice(m, min(m, 12), replace=False).tolist()
            assert got.rows([got.offset + e for e in sample]) == want.rows(sample)
            assert compute_pd(cx, 0) == compute_pd(lone, 0)
            assert np.array_equal(_edge_classes(cx), _edge_classes(lone))
        diagrams = [diagram for group in groups for diagram in _dim1_diagrams(group)]
        assert diagrams == [compute_pd(lone, 1) for lone in lones] == [compute_pd(cx, 1) for cx in members]

    def test_grouping_rule(self):
        rng = np.random.default_rng(0)
        shapes = [(10, 2), (40, 2), (12, 2), (12, 3), (300, 3), (5, 3), (150, 3), (150, 3), (60, 3), (140, 3), (7, 1)]
        groups = list(_complex_groups((rng.random(shape) for shape in shapes), "vr"))
        # order is kept, and a group's members share one coface pass
        assert [cx.n_vertices for group in groups for cx in group] == [n for n, _ in shapes]
        assert all(len({cx._cofaces.rows for cx in group}) == 1 for group in groups)
        sizes = [[cx.n_vertices for cx in group] for group in groups]
        # the groups split where the dimension changes, each within the budget unless it is one cloud over it
        assert sizes == [[10, 40, 12], [12], [300], [5, 150], [150, 60], [140], [7]]
        assert all(len(s) * max(s) ** 2 <= _STACK or len(s) == 1 for s in sizes)
        assert 300**2 > _STACK and 3 * 150**2 > _STACK >= 2 * 150**2

    @pytest.mark.parametrize("n", [10, 37, 100, 256, 257])
    def test_equal_shapes_group_as_before(self, n):
        # consecutive equal shapes: groups of _STACK // n^2 clouds, and at least one
        clouds = np.random.default_rng(n).random((7, n, 2))
        per_group = max(1, _STACK // n**2)
        sizes = [len(group) for group in _complex_groups(clouds, "cech")]
        assert sizes == [per_group] * (7 // per_group) + ([7 % per_group] if 7 % per_group else [])

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_coincident_pair_in_the_kth_cloud(self, kind, k):
        rng = np.random.default_rng(k)
        clouds = [rng.random((n, 3)) for n in (9, 14, 6)]
        clouds[k][-1] = clouds[k][0]
        with pytest.raises(ValueError) as lone:
            build_complex(clouds[k], kind)
        with pytest.raises(ValueError, match=f"^{re.escape(str(lone.value))}$"):
            list(_complex_groups(clouds, kind))

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_overflow_in_a_ragged_group_names_the_cloud_s_edge(self, kind):
        # only the second cloud's (1, 2) overflows: padded to the first cloud's 7 points, whose padding edges such as
        # (0, 3) come first in key order, it names that edge, as its lone build does
        clouds = [np.random.default_rng(1).random((7, 2)), [[0.0, 0.0], [1e154, 0.0], [-1e154, 0.0]]]
        message = "^simplex value must be finite and nonnegative: \\(1, 2\\) at inf$"
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match=message):
            build_complex(clouds[1], kind)
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match=message):
            list(_complex_groups(clouds, kind))
