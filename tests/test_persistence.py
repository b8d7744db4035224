import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointpd.edges import EdgeClass, classify_all
from pointpd.filtration import FilteredComplex, build_complex, build_vr
from pointpd.geometry import PointCloud
from pointpd.persistence import (
    PersistenceDiagram,
    bottleneck_distance,
    compute_pd,
    diagram_equal,
    diagrams_from_csv,
    diagrams_to_csv,
    gap_stats,
    mst,
)

from oracles import (
    assert_diagram_matches,
    boundary_pd1,
    kuhn_bottleneck,
    oracle_bottleneck,
    scipy_bottleneck,
)
from test_filtration import grid

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
ROOT_HALF = math.sqrt(2.0) / 2.0


def random_cloud(seed: int, n: int, dim: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, dim)))


class TestPersistenceDiagram:
    def test_sorts_pairs(self):
        d = PersistenceDiagram(1, ((2.0, 3.0), (0.5, 1.0)))
        assert d.pairs == ((0.5, 1.0), (2.0, 3.0))

    def test_rejects_bad_dim_and_bad_pairs(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(2, ())
        with pytest.raises(ValueError):
            PersistenceDiagram(1, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            PersistenceDiagram(1, ((2.0, 1.0),))

    def test_finite_infinite_split(self):
        d = PersistenceDiagram(1, ((0.5, 1.0), (0.2, math.inf)))
        assert d.finite_pairs == ((0.5, 1.0),)
        assert d.infinite_pairs == ((0.2, math.inf),)
        assert d.persistences() == [0.5]
        assert len(d) == 2


class TestComputePdExamples:
    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_square_dim1(self, kind):
        d = compute_pd(build_complex(SQUARE, kind), 1)
        assert len(d.pairs) == 1
        birth, death = d.pairs[0]
        assert birth == pytest.approx(0.5)
        assert death == pytest.approx(ROOT_HALF)

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_square_dim0(self, kind):
        d = compute_pd(build_complex(SQUARE, kind), 0)
        assert [p for p in d.finite_pairs] == [(0.0, 0.5)] * 3
        assert len(d.infinite_pairs) == 1

    def test_rectangle_vr(self):
        rect = PointCloud([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        d = compute_pd(build_vr(rect), 1)
        assert d.pairs == ((1.0, pytest.approx(math.sqrt(5) / 2)),)

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_right_triangle_has_trivial_dim1(self, kind):
        tri = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        assert len(compute_pd(build_complex(tri, kind), 1)) == 0

    def test_single_point(self):
        cloud = PointCloud([[0.3, 0.7]])
        assert len(compute_pd(build_vr(cloud), 1)) == 0
        d0 = compute_pd(build_vr(cloud), 0)
        assert d0.pairs == ((0.0, math.inf),)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            compute_pd(build_vr(SQUARE), 2)

    def test_truncated_square_leaves_the_cycle_open(self):
        cx = build_vr(SQUARE, max_scale=0.6)
        d1 = compute_pd(cx, 1)
        assert d1.pairs == ((0.5, math.inf),)
        assert d1.truncation_scale == 0.6
        d0 = compute_pd(cx, 0)
        assert len(d0.infinite_pairs) == 1  # still connected by the sides

    def test_zero_persistence_pairs_dropped(self):
        # equilateral: the triangle kills the cycle the instant it is born
        tri = PointCloud([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert len(compute_pd(build_vr(tri), 1)) == 0


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind,dim_ambient", [
        ("vr", 2), ("vr", 3), ("cech", 2), ("cech", 3), ("delaunay", 2),
    ])
    @pytest.mark.parametrize("pd_dim", [0, 1])
    def test_matches_rank_oracle(self, seed, kind, dim_ambient, pd_dim):
        n = 4 + seed % 5
        cloud = random_cloud(seed * 29 + n, n, dim_ambient)
        cx = build_complex(cloud, kind)
        assert_diagram_matches(compute_pd(cx, pd_dim), cx, pd_dim)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rank_oracle_with_cap(self, seed):
        # truncated filtrations exercise the infinite-bar bookkeeping
        cloud = random_cloud(seed + 500, 7, 2)
        cx = build_vr(cloud, max_scale=0.3)
        for pd_dim in (0, 1):
            assert_diagram_matches(compute_pd(cx, pd_dim), cx, pd_dim)


# (n, ambient dim, kind) of the clouds behind one `pd`/`classify` call in
# perfbench's rips_query workload
RIPS_SHAPES = [
    (97, 2, "vr"), (68, 2, "cech"), (88, 2, "vr"), (72, 2, "cech"), (85, 3, "vr"),
    (101, 2, "vr"), (64, 3, "cech"), (60, 2, "cech"), (110, 2, "vr"),
]


class TestBoundaryReference:
    """Cohomology with clearing and apparent pairs gives the boundary reduction's pairs."""

    @staticmethod
    def assert_same_pairs(cx) -> None:
        assert compute_pd(cx, 1).pairs == tuple(boundary_pd1(cx))

    @pytest.mark.parametrize("n,dim_ambient,kind", RIPS_SHAPES)
    def test_benchmark_shapes(self, n, dim_ambient, kind):
        self.assert_same_pairs(build_complex(random_cloud(n, n, dim_ambient), kind))

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_grids_with_ties(self, angle, kind):
        self.assert_same_pairs(build_complex(grid(angle), kind))

    @pytest.mark.parametrize("cap,lone_edges", [(0.12, True), (0.2, False)])
    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_capped(self, cap, lone_edges, kind):
        cx = build_complex(random_cloud(77, 60, 2), kind, max_scale=cap)
        # classes alive at the cap, and at 0.12 edges with no coface at all
        assert math.inf in {death for _, death in compute_pd(cx, 1).pairs}
        assert (len(np.unique(cx.triangle_edges)) < len(cx.edge_values)) == lone_edges
        self.assert_same_pairs(cx)

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_regular_polygon(self, kind):
        # a few columns, but 96 (vr) and 189 (cech) column additions in all
        angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        self.assert_same_pairs(build_complex(np.stack([np.cos(angles), np.sin(angles)], axis=1), kind))

    def test_delaunay(self):
        self.assert_same_pairs(build_complex(random_cloud(150, 150, 2), "delaunay"))

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_collinear(self, kind):
        cloud = np.stack([np.arange(9.0) ** 1.5, 0.5 * np.arange(9.0) ** 1.5], axis=1)
        self.assert_same_pairs(build_complex(cloud, kind))


@st.composite
def grid_clouds(draw):
    """Three to twelve distinct points of a small integer grid, so distances tie often."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 12))
    coords = st.tuples(*[st.integers(0, 4)] * dim)
    return np.array(draw(st.lists(coords, min_size=n, max_size=n, unique=True)), dtype=np.float64)


def materialized(cx) -> FilteredComplex:
    """The same complex from its triangle arrays, so the reduction and the Long test read those."""
    return FilteredComplex.from_arrays(
        cx.n_vertices, cx.edge_vertices, cx.edge_values, cx.triangle_vertices, cx.triangle_values, cx.kind, cx.max_scale
    )


@st.composite
def implicit_cases(draw):
    """A VR or Cech complex on a random cloud or on a quarter-spaced grid (tied distances), 2D or 3D."""
    if draw(st.booleans()):
        cloud = draw(grid_clouds()) / 4.0  # exact scaling keeps every tie
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cloud = rng.random((draw(st.integers(3, 25)), draw(st.sampled_from([2, 3]))))
    kind, cap = draw(st.sampled_from(["vr", "cech"])), draw(st.sampled_from([None, 0.0, 0.2, 0.35]))
    return build_complex(cloud, kind, max_scale=cap)


class TestImplicitCofaces:
    """VR/Cech complexes read cofaces off D; the same complex from its triangle arrays must agree."""

    @given(cx=implicit_cases())
    def test_pairs_classes_and_count_match_the_triangle_arrays(self, cx):
        count = len(cx.triangles)
        assert "_triangles" not in cx.__dict__
        explicit = materialized(cx)
        assert count == len(explicit.triangle_values)
        # the first k of least value is the lex-smallest triple among tied oldest cofaces
        got, want = cx._cofaces, explicit._cofaces
        assert np.array_equal(got.oldest_values, want.oldest_values)
        n, has = cx.n_vertices, want.oldest_ids >= 0
        rows = explicit.triangle_vertices[want.oldest_ids[has]]
        assert np.array_equal(got.oldest_ids[has], (rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2])
        assert np.array_equal(got.long, want.long)
        assert compute_pd(cx, 1).pairs == tuple(boundary_pd1(explicit)) == compute_pd(explicit, 1).pairs
        assert classify_all(cx) == classify_all(explicit)

    def test_vr_200_stays_small(self):
        points = np.random.default_rng(0).random((200, 2))
        tracemalloc.start()
        try:
            cx = build_vr(points)
            compute_pd(cx, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the 1 313 400 triangle arrays alone would take 70 MiB
        assert len(cx.triangles) == 200 * 199 * 198 // 6


class TestTiedCloudProperties:
    @given(cloud=grid_clouds(), kind=st.sampled_from(["vr", "cech"]), cap=st.sampled_from([None, 1.0, 1.25]))
    def test_matches_rank_oracle(self, cloud, kind, cap):
        cx = build_complex(cloud, kind, max_scale=cap)
        for pd_dim in (0, 1):
            assert_diagram_matches(compute_pd(cx, pd_dim), cx, pd_dim, tol=0.0)

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @given(cloud=grid_clouds(), cap=st.sampled_from([None, 1.0, 1.25]), data=st.data())
    def test_dim1_invariant_under_permutation(self, kind, cloud, cap, data):
        order = data.draw(st.permutations(range(len(cloud))))
        want = compute_pd(build_complex(cloud, kind, max_scale=cap), 1)
        assert compute_pd(build_complex(cloud[list(order)], kind, max_scale=cap), 1) == want

    def test_cech_dim1_invariant_under_permutation(self):
        # the two labellings used to round the circumradius to ...797 and ...795
        cloud = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        want = compute_pd(build_complex(cloud, "cech"), 1)
        assert compute_pd(build_complex(cloud[[1, 0, 2]], "cech"), 1) == want

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_dim1_invariant_under_permutation(self, kind, seed):
        rng = np.random.default_rng(seed)
        cloud = rng.random((int(rng.integers(5, 41)), int(rng.integers(2, 4))))
        want = compute_pd(build_complex(cloud, kind), 1)
        assert compute_pd(build_complex(cloud[rng.permutation(len(cloud))], kind), 1) == want


class TestMst:
    def test_square_tie_break(self):
        assert mst(SQUARE) == [((0, 1), 1.0), ((0, 2), 1.0), ((1, 3), 1.0)]

    def test_collinear(self):
        cloud = PointCloud([[0.0], [1.0], [3.0]])
        assert mst(cloud) == [((0, 1), 1.0), ((1, 2), 2.0)]

    @pytest.mark.parametrize("seed", range(10))
    def test_total_weight_matches_scipy(self, seed):
        from scipy.sparse.csgraph import minimum_spanning_tree
        from scipy.spatial.distance import squareform, pdist

        cloud = random_cloud(seed + 70, 9, 3)
        want = minimum_spanning_tree(squareform(pdist(cloud.points))).sum()
        got = sum(d for _, d in mst(cloud))
        assert got == pytest.approx(float(want))

    def test_coincident_points_raise(self):
        with pytest.raises(ValueError, match="coincident"):
            mst(PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_dim0_deaths_are_half_mst_lengths(self, seed):
        cloud = random_cloud(seed + 90, 8, 2)
        d0 = compute_pd(build_vr(cloud), 0)
        deaths = sorted(d for _, d in d0.finite_pairs)
        want = sorted(length / 2.0 for _, length in mst(cloud))
        assert deaths == pytest.approx(want)


class TestBottleneck:
    def test_one_sided_diagram_matches_to_diagonal(self):
        d1 = PersistenceDiagram(1, ((0.5, ROOT_HALF),))
        d2 = PersistenceDiagram(1, ())
        want = (ROOT_HALF - 0.5) / 2.0
        assert bottleneck_distance(d1, d2) == pytest.approx(want)
        assert bottleneck_distance(d2, d1) == pytest.approx(want)

    def test_two_point_example(self):
        d1 = PersistenceDiagram(1, ((1.0, 2.0),))
        d2 = PersistenceDiagram(1, ((1.1, 2.05),))
        assert bottleneck_distance(d1, d2) == pytest.approx(0.1)

    def test_empty_diagrams(self):
        d = PersistenceDiagram(1, ())
        assert bottleneck_distance(d, d) == 0.0

    def test_identical_diagrams(self):
        d = PersistenceDiagram(1, ((0.1, 0.4), (0.2, 0.9)))
        assert bottleneck_distance(d, d) == 0.0

    def test_infinite_bar_count_mismatch(self):
        d1 = PersistenceDiagram(0, ((0.0, math.inf),))
        d2 = PersistenceDiagram(0, ())
        assert bottleneck_distance(d1, d2) == math.inf

    def test_infinite_bars_match_by_birth(self):
        d1 = PersistenceDiagram(1, ((0.3, math.inf), (1.0, math.inf)))
        d2 = PersistenceDiagram(1, ((0.5, math.inf), (1.1, math.inf)))
        assert bottleneck_distance(d1, d2) == pytest.approx(0.2)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            bottleneck_distance(PersistenceDiagram(0, ()), PersistenceDiagram(1, ()))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        def sample(k):
            births = rng.random(k)
            return tuple((b, b + rng.random() + 1e-3) for b in births)
        d1 = PersistenceDiagram(1, sample(rng.integers(0, 5)))
        d2 = PersistenceDiagram(1, sample(rng.integers(0, 5)))
        want = oracle_bottleneck(d1.finite_pairs, d2.finite_pairs)
        assert bottleneck_distance(d1, d2) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed + 1000)
        def sample(k):
            return tuple((b, b + rng.random() + 1e-3) for b in rng.random(k))
        d1 = PersistenceDiagram(1, sample(3))
        d2 = PersistenceDiagram(1, sample(4))
        assert bottleneck_distance(d1, d2) == pytest.approx(
            bottleneck_distance(d2, d1)
        )


def jittered_cloud(key, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit-square cloud and a copy with each point moved at most 0.002."""
    rng = np.random.default_rng(key)
    points = rng.random((n, 2))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    radius = 0.002 * np.sqrt(rng.random(n))
    return points, points + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def alpha_diagrams(points, moved) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    return compute_pd(build_complex(points, "delaunay"), 1), compute_pd(build_complex(moved, "delaunay"), 1)


@st.composite
def diagrams(draw, grid: bool):
    """Up to eight finite pairs and two infinite bars; on the 0.1 grid values tie often."""
    if grid:
        birth, length = st.integers(0, 10).map(lambda i: i / 10), st.integers(1, 5).map(lambda i: i / 10)
    else:
        birth, length = st.floats(0.0, 1.0), st.floats(1e-6, 1.0)
    finite = draw(st.lists(st.tuples(birth, length).map(lambda p: (p[0], p[0] + p[1])), max_size=8))
    infinite = draw(st.lists(birth.map(lambda b: (b, math.inf)), max_size=2))
    return PersistenceDiagram(1, tuple(finite + infinite))


class TestBottleneckExact:
    """bottleneck_distance returns the very float of the dense Kuhn reference."""

    def assert_exact(self, d1, d2):
        assert bottleneck_distance(d1, d2) == kuhn_bottleneck(d1, d2)
        assert bottleneck_distance(d2, d1) == kuhn_bottleneck(d2, d1)

    @pytest.mark.parametrize("seed", range(30))
    def test_random(self, seed):
        rng = np.random.default_rng(seed + 2000)
        def sample(k):
            return tuple((b, b + rng.random() + 1e-3) for b in rng.random(k))
        self.assert_exact(PersistenceDiagram(1, sample(rng.integers(0, 12))), PersistenceDiagram(1, sample(rng.integers(0, 12))))

    @pytest.mark.parametrize("seed", range(30))
    def test_ties_on_a_grid(self, seed):
        rng = np.random.default_rng(seed + 3000)
        def sample(k):
            return tuple((b / 10, b / 10 + d / 10) for b, d in zip(rng.integers(0, 10, k), rng.integers(1, 6, k)))
        self.assert_exact(PersistenceDiagram(1, sample(rng.integers(1, 12))), PersistenceDiagram(1, sample(rng.integers(1, 12))))

    @pytest.mark.parametrize(
        "pairs1, pairs2",
        [
            (((0.1, 0.5), (0.2, 0.3), (0.4, 0.9)), ((0.15, 0.45),)),
            (((0.1, 0.5), (0.2, 0.3)), ()),
            ((), ((0.0, 0.7),)),
            (((0.1, 0.5), (0.3, math.inf)), ((0.1, 0.6), (0.2, 0.3), (0.35, math.inf))),
            (((0.0, math.inf),), ((0.5, math.inf),)),
            (((0.2, 0.3), (0.0, math.inf)), ((0.0, math.inf),)),
            (((0.2, 0.3),), ((0.0, math.inf),)),
        ],
    )
    def test_unequal_counts_empty_sides_and_infinite_bars(self, pairs1, pairs2):
        self.assert_exact(PersistenceDiagram(1, pairs1), PersistenceDiagram(1, pairs2))

    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_alpha_jitter_pairs(self, n):
        self.assert_exact(*alpha_diagrams(*jittered_cloud([1, 3, 0, n], n)))

    @given(data=st.data(), grid=st.booleans())
    def test_property(self, data, grid):
        self.assert_exact(data.draw(diagrams(grid)), data.draw(diagrams(grid)))


class TestLargeDiagrams:
    def test_alpha_600(self):
        # the seed-independent n = 600 cloud of the alpha_stability benchmark workload
        points, moved = jittered_cloud([0, 3, 0, 5], 600)
        d1, d2 = alpha_diagrams(points, moved)
        assert min(len(d1), len(d2)) > 500
        got = bottleneck_distance(d1, d2)
        assert got <= float(np.max(np.linalg.norm(moved - points, axis=1)))
        assert got == scipy_bottleneck(d1.finite_pairs, d2.finite_pairs)

    def test_diagram_equal_long_augmenting_paths(self):
        # pair i lies within tol of shifted pairs i - 1 and i, so matching
        # in index order needs augmenting paths as long as the diagram
        m, step = 2000, 1e-9
        d = PersistenceDiagram(1, tuple((i * step, i * step + 1.0) for i in range(m)))
        shifted = PersistenceDiagram(1, tuple((b + 0.9 * step, e + 0.9 * step) for b, e in d.pairs))
        assert diagram_equal(d, shifted, tol=step)
        assert diagram_equal(shifted, d, tol=step)
        assert not diagram_equal(d, shifted, tol=0.5 * step)


class TestDiagramEqual:
    def test_exact_by_default(self):
        d1 = PersistenceDiagram(1, ((0.5, 1.0), (0.2, 0.4)))
        d2 = PersistenceDiagram(1, ((0.2, 0.4), (0.5, 1.0)))
        assert diagram_equal(d1, d2)
        d3 = PersistenceDiagram(1, ((0.2, 0.4), (0.5, 1.0 + 1e-12)))
        assert not diagram_equal(d1, d3)

    def test_tolerance_matching(self):
        d1 = PersistenceDiagram(1, ((0.5, 1.0), (0.2, 0.4)))
        d3 = PersistenceDiagram(1, ((0.2, 0.4), (0.5, 1.0 + 1e-12)))
        assert diagram_equal(d1, d3, tol=1e-9)

    def test_cardinality_mismatch(self):
        d1 = PersistenceDiagram(1, ((0.5, 1.0),))
        d2 = PersistenceDiagram(1, ())
        assert not diagram_equal(d1, d2, tol=10.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        # before the check, two empty diagrams compared equal and two equal
        # one-pair diagrams did not
        d = PersistenceDiagram(1, ((0.5, 1.0),))
        empty = PersistenceDiagram(1, ())
        for a, b in ((d, d), (empty, empty)):
            with pytest.raises(ValueError, match="tol must be a nonnegative number"):
                diagram_equal(a, b, tol)

    def test_infinite_bars_compared_by_birth(self):
        d1 = PersistenceDiagram(1, ((0.5, math.inf),))
        d2 = PersistenceDiagram(1, ((0.5 + 1e-12, math.inf),))
        assert diagram_equal(d1, d2, tol=1e-9)
        assert not diagram_equal(d1, d2)


class TestGapStats:
    def test_known_ratio(self):
        d = PersistenceDiagram(1, ((0.0, 6.0), (0.0, 3.0), (0.0, 2.0)))
        stats = gap_stats(d)
        assert stats.gap1 == 3.0
        assert stats.gap2 == 1.0
        assert stats.ratio == 3.0
        assert stats.persistences == (2.0, 3.0, 6.0)

    def test_tied_gaps_give_ratio_one(self):
        d = PersistenceDiagram(1, ((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)))
        assert gap_stats(d).ratio == 1.0

    def test_zero_second_gap_gives_inf(self):
        d = PersistenceDiagram(1, ((0.0, 2.0), (0.0, 2.0), (0.0, 4.0)))
        assert gap_stats(d).ratio == math.inf

    def test_undefined_cases(self):
        with pytest.raises(ValueError, match="gap ratio undefined"):
            gap_stats(PersistenceDiagram(1, ((0.0, 1.0),)))
        with pytest.raises(ValueError, match="second gap undefined"):
            gap_stats(PersistenceDiagram(1, ((0.0, 1.0), (0.0, 2.0))))
        with pytest.raises(ValueError, match="dimension-1"):
            gap_stats(PersistenceDiagram(0, ((0.0, 1.0), (0.0, 2.0), (0.0, 3.0))))

    def test_infinite_bars_ignored(self):
        d = PersistenceDiagram(
            1, ((0.0, 6.0), (0.0, 3.0), (0.0, 2.0), (0.1, math.inf))
        )
        assert gap_stats(d).ratio == 3.0


class TestSerialization:
    def test_round_trip_exact(self):
        d1 = compute_pd(build_vr(SQUARE), 1)
        d0 = compute_pd(build_vr(SQUARE), 0)
        text = diagrams_to_csv([d1, d0])
        back = diagrams_from_csv(text)
        assert [d.dim for d in back] == [0, 1]
        assert back[0].pairs == d0.pairs
        assert back[1].pairs == d1.pairs

    def test_infinity_round_trips(self):
        d = PersistenceDiagram(0, ((0.0, math.inf), (0.0, 0.25)))
        text = diagrams_to_csv([d])
        assert "0,0.0,inf" in text.splitlines()
        assert diagrams_from_csv(text)[0].pairs == d.pairs

    def test_header_line(self):
        assert diagrams_to_csv([]).splitlines()[0] == "dim,birth,death"
        assert diagrams_to_csv([PersistenceDiagram(1, ())]) == "dim,birth,death\n"

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            diagrams_from_csv("1,0.5,0.7\n")

    def test_rejects_malformed_row(self):
        with pytest.raises(ValueError):
            diagrams_from_csv("dim,birth,death\n1,0.5\n")
        with pytest.raises(ValueError):
            diagrams_from_csv("dim,birth,death\n1,x,0.7\n")

    def test_full_float_precision(self):
        d = PersistenceDiagram(1, ((0.5, ROOT_HALF),))
        assert diagrams_from_csv(diagrams_to_csv([d]))[0].pairs == d.pairs


class TestTaxonomyConnection:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_births_are_medium_edges(self, seed, kind):
        # only a non-bridge, non-triangle-tied edge can open a 1-cycle
        cloud = random_cloud(seed * 3 + 11, 8, 2)
        cx = build_complex(cloud, kind)
        classes = classify_all(cx)
        # classify_all lists the edges in array order
        medium_values = {x for x, c in zip(cx.edge_values.tolist(), classes.values()) if c is EdgeClass.MEDIUM}
        d = compute_pd(cx, 1)
        for birth, _ in d.pairs:
            assert birth in medium_values

    @pytest.mark.parametrize("seed", range(10))
    def test_deaths_are_triangle_values(self, seed):
        cloud = random_cloud(seed * 5 + 13, 8, 3)
        cx = build_complex(cloud, "cech")
        tri_values = {t.value for t in cx.triangles}
        for _, death in compute_pd(cx, 1).finite_pairs:
            assert death in tri_values

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_no_medium_edges_means_trivial_diagram(self, kind):
        tri = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        cx = build_complex(tri, kind)
        assert EdgeClass.MEDIUM not in classify_all(cx).values()
        assert len(compute_pd(cx, 1)) == 0
