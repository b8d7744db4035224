import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointpd import filtration
from pointpd.edges import (
    ConsistencyError,
    EdgeClass,
    classify_all,
    classify_edge,
    long_by_cech,
    long_by_delaunay,
    long_by_vr,
)
from pointpd.filtration import build_complex
from pointpd.geometry import PointCloud
from pointpd.persistence import compute_pd, mst

from oracles import short_by_definition, simplices
from test_filtration import grid
from test_persistence import grid_clouds

S, M, L = EdgeClass.SHORT, EdgeClass.MEDIUM, EdgeClass.LONG

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
T345 = PointCloud([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
KINDS = ["vr", "cech", "delaunay"]


def lattice(dim: int, seed: int) -> np.ndarray:
    """The distinct points among 12 drawn from {0, 1, 2}^dim: distances tie often."""
    return np.unique(np.random.default_rng([dim, seed]).integers(0, 3, (12, dim)).astype(float), axis=0)


LATTICE_8D = PointCloud(lattice(8, 4))
# right isosceles: in floats the hypotenuse (0, 1) squared is 17.999999999999996, so the Cech rule reads it as acute
RIGHT3 = PointCloud([[0.0, 0.0], [3.0, 3.0], [3.0, 0.0]])


def classes(cloud, kind):
    return classify_all(build_complex(cloud, kind))


class TestWorkedExamples:
    @pytest.mark.parametrize("kind", KINDS)
    def test_3_4_5_triangle(self, kind):
        got = classes(T345, kind)
        assert got == {(0, 1): S, (0, 2): S, (1, 2): L}

    def test_unit_square_vr(self):
        got = classes(SQUARE, "vr")
        assert got == {
            (0, 1): M, (0, 2): M, (1, 3): M, (2, 3): M,
            (0, 3): L, (1, 2): L,
        }

    def test_unit_square_cech(self):
        assert classes(SQUARE, "cech") == classes(SQUARE, "vr")

    def test_unit_square_delaunay(self):
        # canonical triangulation keeps only the (1, 2) diagonal
        got = classes(SQUARE, "delaunay")
        assert got == {(0, 1): M, (0, 2): M, (1, 3): M, (2, 3): M, (1, 2): L}

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_points(self, kind):
        got = classes(PointCloud([[0.0, 0.0], [1.0, 0.0]]), kind)
        assert got == {(0, 1): S}

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_equilateral_is_all_medium(self, kind):
        # simplex corners give an exact three-way tie (no planar float
        # equilateral does): none of the edges is a bridge or triangle-tied
        tri = PointCloud([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert set(classes(tri, kind).values()) == {M}

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_rounded_equilateral_degrades_gracefully(self, kind):
        # planar "equilateral" coordinates round to an isoceles tie:
        # two bridges plus a triangle-tied base, never an error
        tri = PointCloud([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        got = classes(tri, kind)
        assert sorted(c.value for c in got.values()) in (
            ["Long", "Short", "Short"],    # vr: base ties with the triangle
            ["Medium", "Short", "Short"],  # cech: triangle waits for the circumradius
            ["Medium", "Medium", "Medium"],
        )

    def test_tall_isoceles_vr(self):
        # obtuse apex: base enters with the triangle, legs are bridges
        iso = PointCloud([[0.0, 0.0], [2.0, 0.0], [1.0, 0.3]])
        assert classes(iso, "vr") == {(0, 2): S, (1, 2): S, (0, 1): L}

    def test_rectangle_vr(self):
        rect = PointCloud([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        assert classes(rect, "vr") == {
            (0, 2): S, (1, 3): S,          # heights
            (0, 1): M, (2, 3): M,          # widths
            (0, 3): L, (1, 2): L,          # diagonals
        }

    def test_collinear_four_points_vr(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        got = classes(cloud, "vr")
        # consecutive gaps are bridges; spans are witnessed by flat triangles
        assert got[(0, 1)] is S and got[(1, 2)] is S and got[(2, 3)] is S
        assert got[(0, 2)] is L and got[(1, 3)] is L and got[(0, 3)] is L

    def test_hexagon_diameters(self):
        angles = [k * math.pi / 3 for k in range(6)]
        hexagon = PointCloud([[math.cos(a), math.sin(a)] for a in angles])
        # VR triangle values are exact max-edge halves: diameters are Long
        vr = classes(hexagon, "vr")
        assert vr[(0, 3)] is L and vr[(1, 4)] is L and vr[(2, 5)] is L
        # exactly cocircular input: the right-angle witness sits on the
        # knife edge, so Cech may resolve a diameter as Medium or Long
        cech = classes(hexagon, "cech")
        assert cech[(0, 3)] in (M, L)
        delaunay = classes(hexagon, "delaunay")
        assert all(cls in (S, M, L) for cls in delaunay.values())


class TestTieHandling:
    def test_tie_group_sees_its_peers(self):
        # an equilateral pair of bridges: ties must not make each other Short
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        got = classes(cloud, "vr")
        # three unit edges enter together but connect disjoint pairs
        assert got[(0, 1)] is S and got[(1, 2)] is S and got[(2, 3)] is S

    def test_cycle_of_ties_is_medium(self):
        assert set(classes(SQUARE, "vr")[e] for e in [(0, 1), (0, 2), (1, 3), (2, 3)]) == {M}

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_short_matches_definition_on_grid(self, kind, angle):
        cx = build_complex(grid(angle), kind)
        assert [c is S for c in classify_all(cx).values()] == short_by_definition(cx)

    @given(cloud=grid_clouds(), kind=st.sampled_from(["vr", "cech"]), cap=st.sampled_from([None, 1.0, 1.25]))
    def test_short_matches_definition_on_tied_clouds(self, cloud, kind, cap):
        cx = build_complex(cloud, kind, max_scale=cap)
        assert [c is S for c in classify_all(cx).values()] == short_by_definition(cx)


class TestClassifyEdge:
    def test_matches_classify_all(self):
        cx = build_complex(SQUARE, "vr")
        all_classes = classify_all(cx)
        for idx, e in enumerate(simplices(cx, 1)):
            assert classify_edge(cx, idx) is all_classes[e.vertices]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_classify_all_on_grid(self, kind):
        # the 5x5 grid ties dozens of edges at each length
        cx = build_complex(grid(), kind)
        all_classes = classify_all(cx)
        for idx, (p, q) in enumerate(cx.edge_vertices.tolist()):
            assert classify_edge(cx, idx) is all_classes[(p, q)]

    @given(cloud=grid_clouds(), kind=st.sampled_from(["vr", "cech"]), cap=st.sampled_from([None, 1.0, 1.25]))
    def test_matches_classify_all_on_tied_clouds(self, cloud, kind, cap):
        cx = build_complex(cloud, kind, max_scale=cap)
        all_classes = classify_all(cx)
        for idx, (p, q) in enumerate(cx.edge_vertices.tolist()):
            assert classify_edge(cx, idx) is all_classes[(p, q)]

    def test_index_bounds(self):
        cx = build_complex(SQUARE, "vr")
        with pytest.raises(IndexError):
            classify_edge(cx, len(cx.edges))
        with pytest.raises(IndexError):
            classify_edge(cx, -1)


class TestSharedUnionFind:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_union_find_per_complex(self, kind, monkeypatch):
        built, union = [], filtration._union_components

        def counting_union(cx):
            built.append(cx.n_vertices)
            return union(cx)

        monkeypatch.setattr(filtration, "_union_components", counting_union)
        cx = build_complex(grid(), kind)
        compute_pd(cx, 0)
        compute_pd(cx, 1)
        classify_all(cx)
        for idx in range(len(cx.edge_values)):
            classify_edge(cx, idx)
        assert built == [25]
        mst(grid())
        assert built == [25, 25]

    @pytest.mark.parametrize("kind", KINDS)
    def test_classify_edge_loop_is_cheap(self, kind):
        # the 5x5 grid's 300 edges (VR, Cech) each read the cached passes
        cx = build_complex(grid(), kind)
        classify_all(cx)
        start = time.perf_counter()
        for idx in range(len(cx.edge_values)):
            classify_edge(cx, idx)
        assert time.perf_counter() - start < 0.05

    def test_classify_edge_reads_only_its_edge(self):
        # 4 950 edges of a 100-point VR cloud: one per-edge loop must not rescan all classes per call
        cx = build_complex(np.random.default_rng(100).random((100, 2)), "vr")
        all_classes = classify_all(cx)
        start = time.perf_counter()
        got = [classify_edge(cx, idx) for idx in range(len(cx.edge_values))]
        assert time.perf_counter() - start < 0.1
        assert got == list(all_classes.values())

    def test_lattice_ties_stay_linear(self):
        # a 30x30 lattice ties its 1 740 unit edges in one group; a copy of the union-find per
        # tied edge took about 2 s here, one bridge search over the group takes milliseconds
        lattice = np.array([[x, y] for x in range(30) for y in range(30)], dtype=np.float64)
        cx = build_complex(lattice, "delaunay")
        start = time.perf_counter()
        compute_pd(cx, 0)
        got = classify_all(cx)
        assert time.perf_counter() - start < 0.5
        assert sum(c is S for c in got.values()) == 0  # every unit edge lies on a unit square


class TestConsistencyCheck:
    def test_first_edge_in_both_classes_is_reported(self, monkeypatch):
        # no valid complex has a Short Long edge, so force every edge Long
        import pointpd.edges as edges

        monkeypatch.setattr(edges, "_long_mask", lambda cx: np.ones(len(cx.edge_values), dtype=bool))
        cx = build_complex(T345, "vr")
        with pytest.raises(ConsistencyError, match=r"^edge \(0, 1\) tested both short and long at value 1\.5$"):
            classify_all(cx)
        with pytest.raises(ConsistencyError, match="tested both short and long"):
            classify_edge(cx, 1)


class TestLemmaOracles:
    def test_vr_witness_on_345(self):
        # the right-angle vertex is strictly closer to both hypotenuse ends
        assert long_by_vr(T345, 1, 2)
        assert not long_by_vr(T345, 0, 1)
        assert not long_by_vr(T345, 0, 2)

    def test_cech_needs_covering_too(self):
        tall = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
        # apex farther than the base length from both ends: no witness
        assert not long_by_vr(tall, 0, 1)
        # acute apex within base length: VR witness, but the half-base
        # ball cannot cover the triple, so the Cech test stays false
        acute = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, 0.6]])
        assert long_by_vr(acute, 0, 1)
        assert not long_by_cech(acute, 0, 1)

    def test_delaunay_right_angle_witness(self):
        assert long_by_delaunay(T345, 1, 2)
        assert not long_by_delaunay(T345, 0, 1)

    def test_delaunay_requires_plane(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="planar"):
            long_by_delaunay(cloud, 0, 1)

    @pytest.mark.parametrize("fn", [long_by_vr, long_by_cech, long_by_delaunay])
    def test_input_validation(self, fn):
        with pytest.raises(IndexError):
            fn(SQUARE, 0, 9)
        with pytest.raises(ValueError):
            fn(SQUARE, 1, 1)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n,dim", [(6, 2), (8, 2), (6, 3), (12, 1), (12, 4), (12, 8), (12, 12), (12, 16)])
    def test_vr_lemma_implies_long(self, seed, n, dim):
        rng = np.random.default_rng(seed * 101 + n + dim)
        cloud = PointCloud(rng.random((n, dim)))
        got = classes(cloud, "vr")
        for (p, q), cls in got.items():
            if long_by_vr(cloud, p, q):
                assert cls is L, (p, q)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 12, 16])
    def test_vr_lemma_implies_long_on_lattices(self, dim):
        # integer lattices of up to 12 points: distances tie often, in every dimension
        for seed in range(20):
            cloud = PointCloud(lattice(dim, seed))
            got = classes(cloud, "vr")
            assert [edge for edge, cls in got.items() if long_by_vr(cloud, *edge) and cls is not L] == [], seed

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n,dim", [(6, 2), (8, 3)])
    def test_cech_lemma_implies_long(self, seed, n, dim):
        rng = np.random.default_rng(seed * 103 + n + dim)
        cloud = PointCloud(rng.random((n, dim)))
        got = classes(cloud, "cech")
        for (p, q), cls in got.items():
            if long_by_cech(cloud, p, q):
                assert cls is L, (p, q)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
    def test_cech_lemma_implies_long_on_a_lattice(self):
        # the lemma finds a witness for edge (1, 11), yet the classifier says Medium
        if long_by_cech(LATTICE_8D, 1, 11):
            assert classes(LATTICE_8D, "cech")[(1, 11)] is L

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
    def test_cech_right_triangle_has_no_bar(self):
        # exactly, the triangle enters with its hypotenuse; today it enters 3 ulps later and leaves a bar
        assert compute_pd(build_complex(RIGHT3, "cech"), 1).pairs == ()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
    def test_cech_lemma_implies_long_on_a_right_triangle(self):
        # vertex 2 is a witness for the hypotenuse, yet the classifier says Medium
        if long_by_cech(RIGHT3, 0, 1):
            assert classes(RIGHT3, "cech")[(0, 1)] is L

    @pytest.mark.parametrize("kind", ["vr", "delaunay"])
    def test_right_triangle_has_no_bar_and_a_long_hypotenuse(self, kind):
        long_by = long_by_vr if kind == "vr" else long_by_delaunay
        assert compute_pd(build_complex(RIGHT3, kind), 1).pairs == ()
        assert long_by(RIGHT3, 0, 1) and classes(RIGHT3, kind)[(0, 1)] is L

    def test_vr_lemma_implies_long_on_a_lattice(self):
        got = classes(LATTICE_8D, "vr")
        assert got[(1, 11)] is L
        assert [edge for edge, cls in got.items() if long_by_vr(LATTICE_8D, *edge) and cls is not L] == []

    @pytest.mark.parametrize("seed", range(20))
    def test_delaunay_lemma_is_exact_on_generic_clouds(self, seed):
        # both directions hold away from cocircular degeneracies
        rng = np.random.default_rng(seed * 107)
        cloud = PointCloud(rng.random((8, 2)))
        got = classes(cloud, "delaunay")
        for (p, q), cls in got.items():
            assert (cls is L) == long_by_delaunay(cloud, p, q), (p, q)


class TestStructuralProperties:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_short_edge_merges(self, kind):
        # a Short edge is a bridge at its value: the union-find pass merges it, also inside a tie group
        dims = [2] if kind == "delaunay" else [1, 2, 3, 4, 8, 16]
        clouds = [grid(), *(np.random.default_rng([dim, seed]).random((12, dim)) for dim in dims for seed in range(5))]
        clouds += [lattice(dim, seed) for dim in dims if dim > 1 for seed in range(5)]
        shorts = 0
        for cloud in clouds:
            cx = build_complex(cloud, kind)
            short = np.array([cls is S for cls in classify_all(cx).values()], dtype=bool)
            assert not (short & ~cx._components.merges).any()
            shorts += int(short.sum())
        assert shorts > 0

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("kind", KINDS)
    def test_partition_is_total(self, seed, kind):
        rng = np.random.default_rng(seed * 11 + len(kind))
        cloud = PointCloud(rng.random((7, 2)))
        cx = build_complex(cloud, kind)
        got = classify_all(cx)  # ConsistencyError would fail the test
        assert set(got) == {e.vertices for e in simplices(cx, 1)}
        assert all(isinstance(c, EdgeClass) for c in got.values())

    @pytest.mark.parametrize("seed", range(15))
    def test_short_edges_are_mst_edges(self, seed):
        from scipy.sparse.csgraph import minimum_spanning_tree
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(seed * 17)
        cloud = PointCloud(rng.random((8, 2)))
        got = classes(cloud, "vr")
        # random clouds have no tied lengths, so the tree is unique
        coo = minimum_spanning_tree(squareform(pdist(cloud.points))).tocoo()
        tree = {(min(p, q), max(p, q)) for p, q in zip(coo.row.tolist(), coo.col.tolist())}
        for (p, q), cls in got.items():
            if cls is S:
                assert (p, q) in tree

    @pytest.mark.parametrize("kind", KINDS)
    def test_short_count_bounded_by_spanning_tree(self, kind):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.random((9, 2)))
        got = classes(cloud, kind)
        n_short = sum(1 for c in got.values() if c is S)
        assert n_short <= cloud.n_points - 1
