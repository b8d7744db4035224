import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pointpd import filtration, persistence
from pointpd.constructions import TailSpec, generate_tail
from pointpd.edges import EdgeClass, _edge_classes, classify_all
from pointpd.filtration import FilteredComplex, build_complex, build_vr
from pointpd.geometry import COINCIDENT_TOL, PointCloud, Ray, _distance_matrix
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
    simplices,
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
        with pytest.raises(ValueError, match="birth must be finite"):
            PersistenceDiagram(1, ((-math.inf, 0.0),))

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
        d0 = compute_pd(cx, 0)
        assert len(d0.infinite_pairs) == 1  # still connected by the sides

    def test_a_cap_above_every_death_leaves_the_diagram_equal(self):
        # the diagonals close the cycle at sqrt(2)/2 < 0.9: the capped diagram is the uncapped one
        assert compute_pd(build_vr(SQUARE, max_scale=0.9), 1) == compute_pd(build_vr(SQUARE), 1)

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
        # a few columns, but 96 (vr) and 189 (cech) column additions in all, every one an apparent row
        angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        self.assert_same_pairs(build_complex(np.stack([np.cos(angles), np.sin(angles)], axis=1), kind))

    @pytest.mark.parametrize("n,dim,kind", [(37, 4, "cech"), (97, 2, "vr")])
    def test_columns_that_add_reduced_columns(self, n, dim, kind, monkeypatch):
        cx = build_complex(np.random.default_rng(0).random((n, dim)), kind)
        reduced = set(np.flatnonzero(~cx._components.merges & ~cx._cofaces.apparent).tolist())
        met, pivot = [], persistence._pivot

        def recorded(heap, rows):
            # a heap holds the rows of two such columns only once one column has added the other
            met.append(len({edge for _, _, edge, _ in heap} & reduced))
            return pivot(heap, rows)

        monkeypatch.setattr(persistence, "_pivot", recorded)
        self.assert_same_pairs(cx)
        assert max(met) >= 2

    def test_delaunay(self):
        self.assert_same_pairs(build_complex(random_cloud(150, 150, 2), "delaunay"))

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_collinear(self, kind):
        cloud = np.stack([np.arange(9.0) ** 1.5, 0.5 * np.arange(9.0) ** 1.5], axis=1)
        self.assert_same_pairs(build_complex(cloud, kind))


@st.composite
def grid_clouds(draw, dims=(2, 3)):
    """Three to twelve distinct points of a small integer grid, so distances tie often."""
    dim = draw(st.sampled_from(dims))
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


def assert_matches_triangle_arrays(cx, explicit) -> None:
    """A VR/Cech complex's implicit cofaces, pairs and classes are those of the complex from its triangle arrays."""
    # the first k of least value is the lex-smallest triple among tied oldest cofaces
    got, want = cx._cofaces, explicit._cofaces
    for field in ("oldest_values", "oldest_ids", "long", "apparent"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    edges = list(range(len(cx.edge_values)))
    assert got.rows([got.offset + e for e in edges]) == want.rows(edges)
    assert compute_pd(cx, 1).pairs == tuple(boundary_pd1(explicit)) == compute_pd(explicit, 1).pairs
    assert classify_all(cx) == classify_all(explicit)


@pytest.fixture
def coface_blocks(monkeypatch) -> list[tuple[int, int]]:
    """(first k, entries) of every block of triangle values read off D, in order."""
    blocks: list[tuple[int, int]] = []
    coface_values = filtration._coface_values

    def recorded(D, rule, cap, t, i, j, k0=0, k1=None):
        values, witness = coface_values(D, rule, cap, t, i, j, k0, k1)
        blocks.append((k0, values.size))
        return values, witness

    monkeypatch.setattr(filtration, "_coface_values", recorded)
    return blocks


def _lattice(side: int, dim: int) -> np.ndarray:
    return np.array(list(itertools.product(range(side), repeat=dim)), dtype=np.float64)


_TURN = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])

# (points, cap) on which the coface pass scans k in at least three rounds: a first
# round's width is max(8, 8192 // edges), so no 25-point cloud takes a second one
MULTI_ROUND_CLOUDS = {
    "uniform_2d": (np.random.default_rng(60).random((72, 2)), 0.35),
    "uniform_3d": (np.random.default_rng(61).random((64, 3)), 0.4),
    "grid_8x8": (_lattice(8, 2), 2.5),
    "quarter_grid_rotated": (_lattice(8, 2) / 4.0 @ _TURN.T, 0.6),
    "lattice_5x5x5": (_lattice(5, 3), 1.5),
}


class TestImplicitCofaces:
    """VR/Cech complexes read cofaces off D; the same complex from its triangle arrays must agree."""

    @given(cx=implicit_cases())
    def test_pairs_classes_and_count_match_the_triangle_arrays(self, cx):
        count = len(cx.triangles)
        if cx.max_scale == math.inf:  # a capped complex's count reads its triangle arrays
            assert "_triangles" not in cx.__dict__
        explicit = materialized(cx)
        assert count == len(explicit.triangle_values)
        assert_matches_triangle_arrays(cx, explicit)

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("kind", ["vr", "cech"])
    @pytest.mark.parametrize("name", MULTI_ROUND_CLOUDS)
    def test_multi_round_scans_match_the_triangle_arrays(self, name, kind, capped, coface_blocks):
        points, cap = MULTI_ROUND_CLOUDS[name]
        cx = build_complex(points, kind, max_scale=cap if capped else None)
        compute_pd(cx, 1)
        classify_all(cx)
        assert len({k0 for k0, _ in coface_blocks}) >= 3
        # neither the pass, the reduction nor the classifier counts the triangles
        assert "_triangles" not in cx.__dict__
        count = len(cx.triangles)
        explicit = materialized(cx)
        assert count == (len(explicit.triangle_values) if capped else math.comb(len(points), 3))
        assert_matches_triangle_arrays(cx, explicit)

    @pytest.mark.parametrize("kind,dim", [("vr", 2), ("cech", 3)])
    def test_uncapped_count_reads_no_distance(self, kind, dim, coface_blocks):
        # an uncapped complex holds every triple: C(n, 3), whether it stands alone or is a member of a group
        lone = build_complex(np.random.default_rng(dim).random((200, dim)), kind)
        stack = np.random.default_rng(dim + 1).random((5, 30, dim))
        for cx in [lone, *filtration._capped_complexes(stack, filtration.FiltrationKind(kind), None)]:
            count, text = len(cx.triangles), repr(cx)
            assert not coface_blocks and "_triangles" not in cx.__dict__
            assert count == math.comb(cx.n_vertices, 3) and f"triangles={count}," in text
            assert count == len(cx.triangle_values)

    @pytest.mark.parametrize("kind,dim", [("cech", 3), ("vr", 2)])
    def test_pass_reads_at_most_a_quarter_of_the_entries(self, kind, dim, coface_blocks):
        cx = build_complex(np.random.default_rng(0).random((200, dim)), kind)
        cx._cofaces
        # a dense pass reads every (edge, vertex) entry; an edge with a Long witness stops at it
        assert sum(size for _, size in coface_blocks) <= len(cx.edge_values) * cx.n_vertices / 4

    @pytest.mark.parametrize("n,dim", [(72, 2), (37, 4)])
    def test_reduction_fetches_rows_in_batches(self, n, dim, coface_blocks):
        # the shapes of a rips_query Cech op and of a sweep_trials cell
        cx = build_complex(np.random.default_rng(n).random((n, dim)), "cech")
        cx._cofaces
        coface_blocks.clear()
        compute_pd(cx, 1)
        rows = sum(size for _, size in coface_blocks) // n
        assert rows > 20 and len(coface_blocks) < rows / 2

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["vr", "cech"]), cap=st.sampled_from([None, 0.2, 0.35]))
    def test_off_ties_every_long_edge_is_apparent(self, seed, n, dim, kind, cap):
        # at ties this fails: a Long edge's oldest coface may have a younger facet tied with it
        cx = build_complex(np.random.default_rng(seed).random((n, dim)), kind, max_scale=cap)
        assert len(np.unique(cx.edge_values)) == len(cx.edge_values)
        cofaces = cx._cofaces
        assert not (cofaces.long & ~cofaces.apparent).any()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), dim=st.sampled_from([2, 3]),
           cap=st.sampled_from([None, 0.2, 0.35]))
    def test_off_ties_vr_reduces_exactly_the_medium_edges(self, seed, n, dim, cap):
        # the converse of the test above, for VR only: a VR triangle enters with its youngest facet, so an edge
        # that is the youngest facet of its oldest coface is Long. A Cech triangle can enter above its longest
        # side, which is then apparent but Medium, so under Cech the reduction visits only some Medium edges.
        cx = build_vr(np.random.default_rng(seed).random((n, dim)), max_scale=cap)
        assert len(np.unique(cx.edge_values)) == len(cx.edge_values)
        visited = ~cx._components.merges & ~cx._cofaces.apparent
        medium = [cls is EdgeClass.MEDIUM for cls in classify_all(cx).values()]
        assert visited.tolist() == medium

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


def grid_cell(seed: int, trials: int, n: int, dim: int) -> np.ndarray:
    """A stack of `trials` clouds, each n distinct points of the 5-per-side integer grid: distances tie often."""
    rng, cells = np.random.default_rng(seed), _lattice(5, dim)
    return np.stack([cells[rng.choice(len(cells), n, replace=False)] for _ in range(trials)])


# (stack of clouds, kind, cap): random cells, tied grids, tiny clouds. A group is uncapped, as experiment cells are;
# a cap (one that hits grid ties exactly) is where each cloud's own capped build cuts its member's edges.
GROUP_CASES = {
    "vr_2d": (np.random.default_rng(1).random((6, 20, 2)), "vr", None),
    "cech_3d": (np.random.default_rng(2).random((6, 17, 3)), "cech", None),
    "cech_4d": (np.random.default_rng(3).random((5, 37, 4)), "cech", None),
    "vr_capped": (np.random.default_rng(4).random((7, 40, 2)), "vr", 0.2),
    "cech_capped": (np.random.default_rng(5).random((7, 40, 2)), "cech", 0.35),
    "vr_grid_1": (grid_cell(6, 8, 12, 2), "vr", 1.0),
    "cech_grid_1.25": (grid_cell(7, 8, 12, 2), "cech", 1.25),
    "vr_grid_3d_1.25": (grid_cell(8, 6, 14, 3), "vr", 1.25),
    "cech_grid_3d_1": (grid_cell(9, 6, 14, 3), "cech", 1.0),
    "n1": (np.random.default_rng(10).random((4, 1, 2)), "vr", None),
    "n2": (np.random.default_rng(11).random((4, 2, 3)), "cech", None),
    "n3": (np.random.default_rng(12).random((4, 3, 2)), "vr", None),
}


def counted_rows(cofaces, calls: list[int]):
    """The complex's `rows` source, recording the length of each call."""
    def rows(edges):
        calls.append(len(edges))
        return cofaces.rows(edges)
    return rows


class TestGroupedCells:
    """A cell's clouds built as one group and reduced in lock step give what one build per cloud gives."""

    @pytest.mark.parametrize("name", sorted(GROUP_CASES))
    def test_group_equals_single_builds(self, name):
        stack, kind, cap = GROUP_CASES[name]
        group = filtration._capped_complexes(stack, filtration.FiltrationKind(kind), None)
        diagrams = persistence._dim1_diagrams(group)
        assert len({cx._cofaces.rows for cx in group}) == 1  # one coface pass and row source for the group
        for points, cx, diagram in zip(stack, group, diagrams):
            single = build_complex(points, kind)
            assert cx.max_scale == single.max_scale and cx.kind == single.kind
            assert np.array_equal(cx.edge_vertices, single.edge_vertices)
            assert np.array_equal(cx.edge_values, single.edge_values)
            for field in ("oldest_values", "oldest_ids", "long", "apparent"):
                assert np.array_equal(getattr(cx._cofaces, field), getattr(single._cofaces, field)), field
            for got, want in zip(cx._components, single._components):
                assert np.array_equal(got, want)
            assert diagram.pairs == compute_pd(single, 1).pairs == compute_pd(cx, 1).pairs
            assert len(cx.triangles) == len(single.triangles)
            if cap is not None:  # (value, key) order: the capped build keeps a prefix
                capped = build_complex(points, kind, max_scale=cap)
                kept = len(capped.edge_values)
                assert np.array_equal(capped.edge_vertices, cx.edge_vertices[:kept])
                assert np.array_equal(capped.edge_values, cx.edge_values[:kept])
                assert (cx.edge_values[kept:] > cap).all() and 0 < kept < len(cx.edge_values)

    def test_a_cap_takes_one_cloud(self):
        # members would take the first cloud's edges, dropping others' edges within their caps
        stack = np.random.default_rng(15).random((2, 10, 2))
        for kind in filtration.FiltrationKind.VR, filtration.FiltrationKind.CECH:
            with pytest.raises(ValueError, match="^a scale cap takes one cloud, got 2$"):
                filtration._capped_complexes(stack, kind, 0.3)
        assert len(filtration._capped_complexes(stack[:1], filtration.FiltrationKind.VR, 0.3)) == 1

    def test_lock_step_equals_compute_pd_on_a_mix(self):
        rng = np.random.default_rng(13)
        collinear = np.stack([np.arange(6.0), 2.0 * np.arange(6.0)], axis=1)
        # no column to reduce: no cycle-closing edge, or only apparent ones
        idle = [build_complex(collinear, "vr"), build_complex(collinear, "delaunay"),
                build_complex(rng.random((1, 2)), "vr"), build_complex(rng.random((3, 2)), "cech")]
        mix = [
            *filtration._capped_complexes(rng.random((3, 25, 2)), filtration.FiltrationKind.VR, None),
            idle[0],
            build_complex(rng.random((40, 2)), "delaunay"),
            *(build_complex(points, "cech", max_scale=0.4) for points in rng.random((3, 19, 3))),
            idle[1],
            build_complex(SQUARE, "cech", max_scale=0.5),  # a column with an empty row: a class alive at the cap
            *idle[2:],
            build_complex(rng.random((30, 2)), "delaunay"),
        ]
        want = [compute_pd(materialized(cx) if cx.kind != "delaunay" else cx, 1) for cx in mix]
        assert [d.pairs for d in persistence._dim1_diagrams(mix)] == [d.pairs for d in want]
        assert all((cx._components.merges | cx._cofaces.apparent).all() for cx in idle)
        assert compute_pd(mix[9], 1).pairs == ((0.5, math.inf),)

    def test_cell_fetches_rows_no_more_often_than_its_busiest_trial(self):
        # a sweep_trials cell shape: six 4D Cech clouds of 37 points
        stack, calls = np.random.default_rng(14).random((6, 37, 4)), []
        group = filtration._capped_complexes(stack, filtration.FiltrationKind.CECH, None)
        shared = counted_rows(group[0]._cofaces, calls)
        for cx in group:
            cx.__dict__["_cofaces"] = cx._cofaces._replace(rows=shared)
        persistence._dim1_diagrams(group)
        cell, single = len(calls), []
        for points in stack:
            cx, calls[:] = build_complex(points, "cech"), []
            cx.__dict__["_cofaces"] = cx._cofaces._replace(rows=counted_rows(cx._cofaces, calls))
            compute_pd(cx, 1)
            single.append(len(calls))
        assert cell <= max(single) < sum(single) / 2


def tails_from_the_origin(sizes: tuple[int, ...], seed: int) -> np.ndarray:
    """Tails of the given sizes from the origin at equal angles apart, cone 0.1: the shared origin, then each tail's
    other points (one tail alone, or a long wedge)."""
    angles = 0.3 + 2.0 * math.pi * np.arange(len(sizes)) / len(sizes)
    tails = [generate_tail(TailSpec(Ray(np.zeros(2), [math.cos(a), math.sin(a)]), m, 0.5, 1.5, 0.1, seed + k)).points
             for k, (a, m) in enumerate(zip(angles.tolist(), sizes))]
    return np.concatenate([tails[0]] + [t[1:] for t in tails[1:]])


class TestNothingToReduce:
    """A reduction whose cycle-closing edges are all apparent asks its complex for no row."""

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    @pytest.mark.parametrize("sizes", [(30,), (20, 20, 20)], ids=["tail", "wedge"])
    def test_tail_and_wedge_ask_for_nothing(self, kind, sizes):
        for seed in range(3):
            cx, calls = build_complex(tails_from_the_origin(sizes, 10 * seed), kind), []
            cx.__dict__["_cofaces"] = cx._cofaces._replace(rows=counted_rows(cx._cofaces, calls))
            assert list(compute_pd(cx, 1).pairs) == boundary_pd1(cx)
            assert calls == []

    def test_a_uniform_cloud_asks(self):
        cx, calls = build_complex(np.random.default_rng(0).random((40, 2)), "vr"), []
        cx.__dict__["_cofaces"] = cx._cofaces._replace(rows=counted_rows(cx._cofaces, calls))
        assert list(compute_pd(cx, 1).pairs) == boundary_pd1(cx)
        assert len(calls) >= 1


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


@st.composite
def scalable_clouds(draw, dims=(2, 3)):
    """A random or quarter-spaced grid cloud whose closest pair stays above COINCIDENT_TOL when scaled by 2**-20."""
    if draw(st.booleans()):
        cloud = draw(grid_clouds(dims)) / 4.0
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cloud = rng.random((draw(st.integers(3, 20)), draw(st.sampled_from(dims))))
    assume(2.0**-20 * _distance_matrix(cloud)[np.triu_indices(len(cloud), 1)].min() > COINCIDENT_TOL)
    return cloud


def scaled_pairs(diagram: PersistenceDiagram, scale: float) -> tuple:
    return tuple((scale * birth, scale * death) for birth, death in diagram.pairs)


class TestScalingByPowersOfTwo:
    """Scaling by 2**k is exact in floats, so values, pairs and distances of a scaled cloud are exactly scaled."""

    @given(cloud=scalable_clouds(), k=st.integers(-20, 40), kind=st.sampled_from(["vr", "cech"]),
           cap=st.sampled_from([None, 0.2, 0.35, 1.0]))
    def test_pairs_and_classes_scale_exactly(self, cloud, k, kind, cap):
        scale = 2.0**k
        cx = build_complex(cloud, kind, max_scale=cap)
        scaled = build_complex(scale * cloud, kind, max_scale=None if cap is None else scale * cap)
        assert np.array_equal(scaled.edge_vertices, cx.edge_vertices)
        for dim in (0, 1):
            assert compute_pd(scaled, dim).pairs == scaled_pairs(compute_pd(cx, dim), scale)
        assert np.array_equal(_edge_classes(scaled), _edge_classes(cx))

    @given(cloud=scalable_clouds(), k=st.integers(-20, 40))
    def test_bottleneck_scales_exactly(self, cloud, k):
        def distances(points):  # VR against Cech in dim 1, and against the cloud less a point in dim 0
            vr, cech, fewer = build_vr(points), build_complex(points, "cech"), build_vr(points[:-1])
            return [
                bottleneck_distance(compute_pd(vr, 1), compute_pd(cech, 1)),
                bottleneck_distance(compute_pd(vr, 0), compute_pd(fewer, 0)),
            ]

        scale = 2.0**k
        assert distances(scale * cloud) == [scale * d for d in distances(cloud)]

    @given(cloud=scalable_clouds(dims=(2,)), k=st.integers(-10, 40))
    def test_delaunay_pairs_and_classes_scale_exactly(self, cloud, k):
        scale = 2.0**k
        cx, scaled = build_complex(cloud, "delaunay"), build_complex(scale * cloud, "delaunay")
        assert np.array_equal(scaled.edge_vertices, cx.edge_vertices)
        for dim in (0, 1):
            assert compute_pd(scaled, dim).pairs == scaled_pairs(compute_pd(cx, dim), scale)
        assert np.array_equal(_edge_classes(scaled), _edge_classes(cx))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
    def test_delaunay_pairs_scale_exactly(self):
        # the cocircular tolerance has an absolute floor below radius 1, so at 2**-20 this cloud gains a pair
        cloud, scale = np.random.default_rng(2).random((40, 2)), 2.0**-20
        want = scaled_pairs(compute_pd(build_complex(cloud, "delaunay"), 1), scale)
        assert compute_pd(build_complex(scale * cloud, "delaunay"), 1).pairs == want


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


@pytest.fixture
def matchings(monkeypatch) -> list[bool]:
    """The outcome of every feasibility test (one `_saturates` call each), in order."""
    outcomes: list[bool] = []
    saturates = persistence._saturates

    def recorded(*args):
        outcomes.append(saturates(*args))
        return outcomes[-1]

    monkeypatch.setattr(persistence, "_saturates", recorded)
    return outcomes


class TestBottleneckExact:
    """bottleneck_distance returns the very float of the dense Kuhn reference."""

    def assert_exact(self, d1, d2):
        assert bottleneck_distance(d1, d2) == kuhn_bottleneck(d1, d2)
        assert bottleneck_distance(d2, d1) == kuhn_bottleneck(d2, d1)

    @pytest.mark.parametrize(
        "pairs1, pairs2, lower, want",
        [
            # every point keeps its jittered partner: the lower bound is the answer
            (((0.1, 0.5), (0.2, 0.9)), ((0.11, 0.52), (0.19, 0.88)), 0.02, 0.02),
            # two tied points and one partner, 0.1 away or equal: one tied point goes to the diagonal
            (((0.0, 1.0), (0.0, 1.0)), ((0.1, 1.1),), 0.1, 0.5),
            (((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0),), 0.0, 0.5),
            # on the 0.1 grid: the bound fails and the bisection takes several steps
            (((0.0, 0.3), (0.1, 0.4), (0.2, 0.5)), ((0.1, 0.3), (0.1, 0.4)), 0.1, 0.15),
        ],
    )
    def test_lower_bound_then_bisection(self, pairs1, pairs2, lower, want, matchings):
        d1, d2 = PersistenceDiagram(1, pairs1), PersistenceDiagram(1, pairs2)
        assert bottleneck_distance(d1, d2) == kuhn_bottleneck(d1, d2) == pytest.approx(want)
        # the bound is tested first, one matching per side; the bisection runs only after one fails
        if lower == want:
            assert matchings == [True, True]
        else:
            assert False in matchings[:2]
        self.assert_exact(d1, d2)

    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_alpha_jitter_pairs_pass_the_lower_bound(self, n, matchings):
        d1, d2 = alpha_diagrams(*jittered_cloud([1, 3, 0, n], n))
        bottleneck_distance(d1, d2)
        assert len(matchings) <= 2

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

    def test_window_boundary(self):
        # births 0.8 and 0.3 are 0.5 apart in floats, yet 0.8 - 0.5 rounds to 0.30000000000000004: a birth
        # window [b - 0.5, b + 0.5] computed in floats leaves out the partner that L-inf <= 0.5 keeps
        assert 0.8 - 0.3 == 2.8 - 2.3 == 0.5
        assert np.searchsorted([0.3], 0.8 - 0.5) == 1
        d1, d2 = PersistenceDiagram(1, ((0.8, 2.8),)), PersistenceDiagram(1, ((0.3, 2.3),))
        for a, b in ((d1, d2), (d2, d1)):
            assert bottleneck_distance(a, b) == kuhn_bottleneck(a, b) == 0.5
            assert diagram_equal(a, b, 0.5)
            assert not diagram_equal(a, b, math.nextafter(0.5, 0.0))
        self.assert_exact(PersistenceDiagram(1, ((0.8, 2.8), (0.75, 0.9))), PersistenceDiagram(1, ((0.3, 2.3), (0.3, 0.35))))

    @given(data=st.data(), grid=st.booleans())
    def test_windows_find_every_near_pair(self, data, grid):
        # each point's partners nearer than its radius, against the dense comparison; on the 0.1 grid
        # the birth gaps and the radii tie often
        d1, d2 = data.draw(diagrams(grid)), data.draw(diagrams(grid))
        pts, m, _, _ = persistence._stack(d1, d2)
        radius = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5]) if grid else st.floats(0.0, 1.0),
                                             min_size=len(pts), max_size=len(pts))))
        for side, (a, b, r) in zip(persistence._near(pts, m, radius), ((pts[:m], pts[m:], radius[:m]), (pts[m:], pts[:m], radius[m:]))):
            cost = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))
            rows, cols = np.nonzero(cost < r[:, None])
            assert sorted(zip(side.rows.tolist(), side.cols.tolist())) == list(zip(rows.tolist(), cols.tolist()))
            assert side.cost.tolist() == cost[side.rows, side.cols].tolist()


class TestLargeDiagrams:
    def test_alpha_600(self):
        # the seed-independent n = 600 cloud of the alpha_stability benchmark workload
        points, moved = jittered_cloud([0, 3, 0, 5], 600)
        d1, d2 = alpha_diagrams(points, moved)
        assert min(len(d1), len(d2)) > 500
        got = bottleneck_distance(d1, d2)
        assert got <= float(np.max(np.linalg.norm(moved - points, axis=1)))
        assert got == scipy_bottleneck(d1.finite_pairs, d2.finite_pairs)

    def test_jittered_2400_exact_within_20_mib(self):
        # the lower bound fails on this cloud (the dense matrix took 42 cover tests), so the bracket and the
        # bisection run; a 2 312 x 2 271 L-inf matrix alone would take 40 MiB
        d1, d2 = alpha_diagrams(*jittered_cloud(3, 2400))
        tracemalloc.start()
        try:
            got = bottleneck_distance(d1, d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert got == bottleneck_distance(d2, d1) == scipy_bottleneck(d1.finite_pairs, d2.finite_pairs)

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

    @pytest.mark.parametrize("seed", range(5))
    def test_tolerance_boundary(self, seed):
        # births 1e-3 apart moved by up to 5e-3: each pair has several partners
        # within tol, in no particular order, and its own is seldom the nearest.
        # Half-persistences near 0.5 keep the diagonal out of the optimum, so
        # the bottleneck distance is the largest matched L-inf distance.
        rng = np.random.default_rng(seed + 4000)
        pairs = [(b, b + 1.0 + 0.01 * rng.random()) for b in rng.permutation(60) * 1e-3]
        moved = [(b + rng.uniform(-5e-3, 5e-3), d + rng.uniform(-5e-3, 5e-3)) for b, d in pairs]
        d1 = PersistenceDiagram(1, tuple(pairs))
        d2 = PersistenceDiagram(1, tuple(moved[i] for i in rng.permutation(len(moved))))
        tol = kuhn_bottleneck(d1, d2)
        assert 0.0 < tol < 0.5
        for a, b in ((d1, d2), (d2, d1)):
            assert diagram_equal(a, b, tol)
            assert not diagram_equal(a, b, math.nextafter(tol, 0.0))

    def test_infinite_bars_compared_by_birth(self):
        d1 = PersistenceDiagram(1, ((0.5, math.inf),))
        d2 = PersistenceDiagram(1, ((0.5 + 1e-12, math.inf),))
        assert diagram_equal(d1, d2, tol=1e-9)
        assert not diagram_equal(d1, d2)

    @given(st.data())
    def test_exact_comparison_is_eq(self, data):
        # equal diagrams hash equal, and by Cohen-Steiner, Edelsbrunner & Harer (DCG 2007) two diagrams of
        # equal size hold the same multiset exactly when their bottleneck distance is 0
        grid = data.draw(st.booleans())
        a = data.draw(diagrams(grid))
        b = data.draw(st.one_of(diagrams(grid), st.permutations(a.pairs).map(lambda p: PersistenceDiagram(1, p))))
        assert diagram_equal(a, b, 0.0) == diagram_equal(b, a, 0.0) == (a == b)
        assert (a == b) == (len(a) == len(b) and kuhn_bottleneck(a, b) == 0.0)
        if a == b:
            assert hash(a) == hash(b)


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

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_round_trip_is_eq(self, kind):
        cx = build_complex(random_cloud(7, 20, 2), kind)
        pds = [compute_pd(cx, 0), compute_pd(cx, 1)]
        assert all(len(d) > 0 for d in pds)
        assert diagrams_from_csv(diagrams_to_csv(pds)) == pds

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

    def test_rejects_non_finite_birth(self):
        with pytest.raises(ValueError, match="birth must be finite"):
            diagrams_from_csv("dim,birth,death\n1,-inf,0\n1,0.5,1\n")

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
        tri_values = {t.value for t in simplices(cx, 2)}
        for _, death in compute_pd(cx, 1).finite_pairs:
            assert death in tri_values

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_no_medium_edges_means_trivial_diagram(self, kind):
        tri = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        cx = build_complex(tri, kind)
        assert EdgeClass.MEDIUM not in classify_all(cx).values()
        assert len(compute_pd(cx, 1)) == 0
