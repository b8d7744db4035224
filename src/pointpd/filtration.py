"""Filtered complexes on point clouds: Vietoris-Rips, Cech, planar alpha.

Only simplices of dimension <= 2 are built; that is all degree-0/1
persistence needs. A `FilteredComplex` stores its simplices as numpy
arrays, one group per dimension, each sorted by (value, lexicographic
vertices):

- `edge_vertices` (m, 2) int and `edge_values` (m,) float;
- `triangle_vertices` (t, 3) int and `triangle_values` (t,) float;
- `triangle_edges` (t, 3) int: the row in the edge arrays of each
  triangle's boundary edges (a, b), (a, c), (b, c).

Vertices 0..n-1 are implicit, all at value 0. Merging the groups by
(value, dimension, vertices) gives the filtration order, in which faces
always precede cofaces. These arrays are the complex's only representation,
and `FilteredComplex.from_arrays` its only constructor. The `edges` and
`triangles` views read one dimension's arrays as `FilteredSimplex` tuples;
the builders, the reduction and the classifier never read them.

VR and Cech complexes keep the distance matrix D in place of triangles: the
dim-1 reduction, the Long test and `len(cx.triangles)` read cofaces off D in
one blocked pass cached on the complex. Reading a triangle array, calling
`critical_scales` or iterating a tuple view builds all three arrays. For 200
points in the plane, uncapped VR build + dim-1 pairs went from 1.2 s and a
211 MiB tracemalloc peak to 0.065 s and 9 MiB (2-core VM, median of 5).
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Callable, Sequence
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import numpy.typing as npt

from .geometry import COINCIDENT_TOL, PointCloud, _as_cloud
from .unionfind import UnionFind

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Relative tolerance for deciding that a point sits on a triangle's
# circumcircle (cocircular degeneracy detection).
COCIRCULAR_TOL = 1e-9

# Vertex columns of a triangle's boundary edges, in `triangle_edges` order.
_FACE_COLUMNS = ((0, 1), (0, 2), (1, 2))

# Largest vertex count whose triangle keys (base-n digits) fit in int64.
_MAX_VERTICES = 2**21 - 1


class FiltrationKind(str, Enum):
    VR = "vr"
    CECH = "cech"
    DELAUNAY = "delaunay"


class FilteredSimplex(NamedTuple):
    """A simplex (sorted vertex tuple) with its filtration entry value."""

    vertices: tuple[int, ...]
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def _codes(values: npt.NDArray[np.float64], ids: npt.NDArray[np.int64]) -> list[int]:
    """Each triangle's (value, id) packed in one int that sorts the same way (a
    nonnegative float's bits sort like it), so columns hold no tuples for the GC."""
    return [(bits << 63) | t for bits, t in zip(values.view(np.int64).tolist(), ids.tolist())]


def _decode(code: int) -> tuple[float, int]:
    return struct.unpack("<d", struct.pack("<q", code >> 63))[0], code & (2**63 - 1)


class _Cofaces(NamedTuple):
    """One pass over a complex's edges, shared by the dim-1 reduction and the Long test. A triangle's id is
    its row in the triangle arrays, or for VR/Cech its base-n vertex key: (value, id) sorts in filtration order."""

    oldest_values: npt.NDArray[np.float64]  # per edge, its oldest coface; inf where it has none
    oldest_ids: npt.NDArray[np.int64]  # -1 where it has none
    long: npt.NDArray[np.bool_]
    count: int  # triangles in the complex
    column: Callable[[int], set[int]]  # the `_codes` of every coface of an edge


class _Components(NamedTuple):
    """One union-find pass over a complex's edges, shared by dim 0, the dim-1 clearing, the Short test and `mst`."""

    merges: npt.NDArray[np.bool_]  # the edge joins two components
    short: npt.NDArray[np.bool_]  # the edge is a bridge at its value, with every edge tied at that value present
    components: int  # left at the cap


class _SimplexView(Sequence):
    """Read-only `FilteredSimplex` sequence over one dimension's arrays, fetched at the first item."""

    def __init__(self, length: int, arrays: Callable[[], tuple[npt.NDArray[np.intp], npt.NDArray[np.float64]]]):
        self._length, self._arrays = length, arrays

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, idx):
        vertices, values = self._arrays()
        return FilteredSimplex(tuple(vertices[idx].tolist()), float(values[idx]))

    def __iter__(self):
        vertices, values = self._arrays()
        for v, x in zip(vertices.tolist(), values.tolist()):
            yield FilteredSimplex(tuple(v), x)


def _row(vertices: npt.NDArray[np.intp], idx: int) -> tuple[int, ...]:
    return tuple(vertices[idx].tolist())


def _sorted_group(
    n: int,
    vertices: npt.ArrayLike,
    values: npt.ArrayLike,
    width: int,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64], npt.NDArray[np.int64]]:
    """Check one dimension's simplices and sort them by (value, vertices).

    Returns the sorted vertices and values, and each simplex's key: its
    vertex tuple read as digits in base n, which orders keys like tuples.
    """
    vertices = np.asarray(vertices, dtype=np.intp).reshape(-1, width)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(values) != len(vertices):
        raise ValueError(f"{len(vertices)} simplices of {width} vertices but {len(values)} values")
    bad = np.flatnonzero(((vertices < 0) | (vertices >= n)).any(axis=1))
    if bad.size:
        raise ValueError(f"vertex index out of range in {_row(vertices, bad[0])}")
    bad = np.flatnonzero((np.diff(vertices, axis=1) <= 0).any(axis=1))
    if bad.size:
        raise ValueError(f"simplex vertices must be strictly increasing: {_row(vertices, bad[0])}")
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        raise ValueError(
            f"simplex value must be finite and nonnegative: {_row(vertices, bad[0])} at {values[bad[0]]}"
        )
    keys = np.zeros(len(values), dtype=np.int64)
    for col in vertices.T:
        keys = keys * n + col
    order = np.argsort(keys, kind="stable")
    dup = np.flatnonzero(keys[order][1:] == keys[order][:-1])
    if dup.size:
        raise ValueError(f"duplicate simplex {_row(vertices, order[dup[0]])}")
    order = order[np.argsort(values[order], kind="stable")]
    return vertices[order], values[order], keys[order]


def _edge_rows(
    edge_keys: npt.NDArray[np.int64],
    n: int,
    face_keys: npt.NDArray[np.int64],
) -> npt.NDArray[np.intp]:
    """Row of the edge with each face key, or -1 where there is none."""
    m = len(edge_keys)
    if n * n <= 4 * (m + face_keys.size):
        # a table over all n*n keys is no larger than the arrays at hand
        table = np.full(n * n, -1, dtype=np.intp)
        table[edge_keys] = np.arange(m)
        return table[face_keys]
    if m == 0:
        return np.full(face_keys.shape, -1, dtype=np.intp)
    order = np.argsort(edge_keys)
    pos = np.minimum(np.searchsorted(edge_keys[order], face_keys), m - 1)
    return np.where(edge_keys[order][pos] == face_keys, order[pos], -1)


class FilteredComplex:
    """A filtered simplicial complex of dimension <= 2.

    Invariants (checked at construction): at least one vertex, all at
    value 0; vertex tuples strictly increasing; no simplex twice; values
    finite and nonnegative; faces of every simplex present with a value no
    larger than the simplex's own (so the (value, dim, lex) order is a
    valid filtration order).

    `max_scale` records the cap the builder used; simplices above the cap
    were omitted at build time.

    `from_arrays` is the one constructor: it takes the per-dimension
    arrays in any order, and sorts and checks them. Instances are
    immutable and compare by identity.
    """

    n_vertices: int
    kind: FiltrationKind
    max_scale: float
    edge_vertices: npt.NDArray[np.intp]
    edge_values: npt.NDArray[np.float64]

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("build a FilteredComplex with FilteredComplex.from_arrays or a builder such as build_complex")

    @classmethod
    def from_arrays(
        cls,
        n_vertices: int,
        edge_vertices: npt.ArrayLike,
        edge_values: npt.ArrayLike,
        triangle_vertices: npt.ArrayLike,
        triangle_values: npt.ArrayLike,
        kind: FiltrationKind | str,
        max_scale: float,
    ) -> FilteredComplex:
        """Complex on vertices 0..n-1 from edge and triangle arrays in any order."""
        self = cls.__new__(cls)
        self._store(n_vertices, edge_vertices, edge_values, kind, max_scale)
        self._store_triangles(triangle_vertices, triangle_values)
        return self

    def _store(self, n, edge_vertices, edge_values, kind, max_scale, distances=None, triangle_value=None) -> None:
        """Keep the edges; a VR/Cech builder passes D and its triangle rule in place of triangles."""
        if n < 1:
            raise ValueError("complex needs at least one vertex")
        if n > _MAX_VERTICES:
            raise ValueError(f"at most {_MAX_VERTICES} vertices are supported")
        ev, ex, _ = _sorted_group(n, edge_vertices, edge_values, 2)
        for arr in (ev, ex):
            arr.flags.writeable = False
        self.__dict__.update(n_vertices=int(n), kind=FiltrationKind(kind), max_scale=float(max_scale))
        self.__dict__.update(edge_vertices=ev, edge_values=ex, _distances=distances, _triangle_value=triangle_value)

    def _store_triangles(self, triangle_vertices, triangle_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort and check the triangles against the edges, and keep them."""
        n, ev, ex = self.n_vertices, self.edge_vertices, self.edge_values
        tv, tx, _ = _sorted_group(n, triangle_vertices, triangle_values, 3)
        triangle_edges = _edge_rows(ev[:, 0] * n + ev[:, 1], n, tv[:, [0, 0, 1]] * n + tv[:, [1, 2, 2]])
        missing = triangle_edges < 0
        bad = np.flatnonzero(missing.any(axis=1))
        if bad.size:
            t = int(bad[0])
            a, b = _FACE_COLUMNS[int(np.argmax(missing[t]))]
            raise ValueError(
                f"face {(int(tv[t, a]), int(tv[t, b]))} of {_row(tv, t)} missing: complex not face-closed"
            )
        late = ex[triangle_edges] > tx[:, None]
        bad = np.flatnonzero(late.any(axis=1))
        if bad.size:
            t = int(bad[0])
            col = int(np.argmax(late[t]))
            a, b = _FACE_COLUMNS[col]
            raise ValueError(
                f"face {(int(tv[t, a]), int(tv[t, b]))} enters at {ex[triangle_edges[t, col]]} "
                f"after coface {_row(tv, t)} at {tx[t]}"
            )
        for arr in (tv, tx, triangle_edges):
            arr.flags.writeable = False
        self.__dict__["_triangles"] = (tv, tx, triangle_edges)
        return tv, tx, triangle_edges

    @cached_property
    def _triangles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A VR/Cech complex's triangle arrays: every triple i < j < k at
        triangle_value(D_ij, D_ik, D_jk) where that is at most the cap."""
        D, n, (i, j) = self._distances, self.n_vertices, self.edge_vertices.T
        later = np.zeros((n, n), dtype=bool)  # later[a, b]: edge (a, b) kept, a < b
        later[i, j] = True
        rows, k = np.nonzero(later[i] & later[j])
        i3, j3 = i[rows], j[rows]
        values = self._triangle_value(D[i3, j3], D[i3, k], D[j3, k])
        keep = values <= self.max_scale
        return self._store_triangles(np.stack([i3[keep], j3[keep], k[keep]], axis=1), values[keep])

    triangle_vertices = cached_property(lambda self: self._triangles[0])
    triangle_values = cached_property(lambda self: self._triangles[1])
    triangle_edges = cached_property(lambda self: self._triangles[2])

    @cached_property
    def _cofaces(self) -> _Cofaces:
        return _implicit_cofaces(self) if self._distances is not None else _explicit_cofaces(self)

    @cached_property
    def _components(self) -> _Components:
        return _union_components(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FilteredComplex is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"FilteredComplex(n_vertices={self.n_vertices}, edges={len(self.edge_values)}, "
            f"triangles={len(self.triangles)}, kind={self.kind.value!r}, max_scale={self.max_scale!r})"
        )

    @cached_property
    def edges(self) -> Sequence[FilteredSimplex]:
        """Edges in filtration order."""
        arrays = self.edge_vertices, self.edge_values  # not self: a cached view never points back at the complex
        return _SimplexView(len(self.edge_values), lambda: arrays)

    @property
    def triangles(self) -> Sequence[FilteredSimplex]:
        """Triangles in filtration order; counting them leaves implicit triangle arrays unbuilt."""
        built = self.__dict__.get("_triangles")
        count = len(built[1]) if built is not None else self._cofaces.count
        return _SimplexView(count, lambda: (self.triangle_vertices, self.triangle_values))


def _norms(diff: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Euclidean lengths along the last axis; every builder measures distances this way."""
    return np.sqrt((diff * diff).sum(axis=-1))


def _distance_matrix(points: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    D = _norms(points[:, None, :] - points[None, :, :])
    n = points.shape[0]
    # the edge taxonomy assumes distinct points; a zero-length edge would
    # classify meaninglessly, so reject up front in every builder
    if n >= 2 and D[np.triu_indices(n, k=1)].min() < COINCIDENT_TOL:
        raise ValueError("coincident points are not allowed")
    return D


def _capped_complex(
    points: npt.NDArray[np.float64],
    kind: FiltrationKind,
    max_scale: float | None,
    default_divisor: float,
    triangle_value,
) -> FilteredComplex:
    """VR/Cech complex: edges (i < j) at D/2, and every triple i < j < k
    whose three edges are kept at triangle_value(D_ij, D_ik, D_jk); both
    only where the value is at most the cap, max(D) / default_divisor
    unless max_scale is given. A NaN or negative cap would keep only the
    vertices, so it is rejected. The complex keeps D and the rule in place
    of triangle arrays."""
    D = _distance_matrix(points)
    cap = float(D.max()) / default_divisor if max_scale is None else float(max_scale)
    if not cap >= 0.0:
        raise ValueError(f"max_scale must be a nonnegative number, got {cap}")
    n = D.shape[0]
    i, j = np.triu_indices(n, k=1)
    edge_values = D[i, j] / 2.0
    kept = edge_values <= cap
    D.flags.writeable = False
    cx = FilteredComplex.__new__(FilteredComplex)
    cx._store(n, np.stack([i[kept], j[kept]], axis=1), edge_values[kept], kind, cap, D, triangle_value)
    return cx


# Entries (edges x vertices) per block of the coface pass. Larger blocks measured
# slower: their temporaries pass glibc's 128 KiB mmap threshold and fault in afresh.
_BLOCK = 2**13


def _triple_keys(i, j, k, n: int):
    """Base-n keys of the sorted triples {i, j, k}, given i < j."""
    return (np.minimum(i, k) * n + np.maximum(i, np.minimum(j, k))) * n + np.maximum(j, k)


def _coface_values(D, rule, cap: float, i, j) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.bool_]]:
    """Values of the triangles {i, j, k} over every k, inf where k is i or j or
    above the cap; and whether edge (i, j) is Long: some triangle enters at
    its value over two strictly shorter sides. The rule takes the sides (ij, ik, jk)
    in this order; its value does not depend on it."""
    e, x, y = D[i, j][:, None], D[i], D[j]
    if rule is _max_side_over_two:  # the general path gives equal bits, but rips_query VR ops ran up to 1.7x slower
        values = np.maximum(x, y)  # the rule's max(max(e, x), y) / 2: max is exact in any order
        long = (values < e).any(axis=1)
        np.maximum(values, e, out=values)
        values /= 2.0
    else:
        values = rule(e, x, y)
        long = ((values == e / 2.0) & (x < e) & (y < e)).any(axis=1)
    np.putmask(values, values > cap, np.inf)
    values[np.arange(len(i)), i] = values[np.arange(len(i)), j] = np.inf
    return values, long


def _implicit_cofaces(cx: FilteredComplex) -> _Cofaces:
    """Bauer's implicit coboundary (Ripser): a blocked pass over D, no triangle arrays.

    Edge (i, j)'s oldest coface is the first k of least value, as the triples {i, j, k} sort like k.
    A column recomputes its edge's row. The column closure holds D and the rule, not the complex,
    so no reference cycle keeps it alive.
    """
    n, (i, j), source = cx.n_vertices, cx.edge_vertices.T, (cx._distances, cx._triangle_value, cx.max_scale)
    m, step = len(i), max(1, _BLOCK // n)
    oldest, k, long, count = np.empty(m), np.empty(m, dtype=np.intp), np.empty(m, dtype=bool), 0
    for s in range(0, m, step):
        block, long[s : s + step] = _coface_values(*source, i[s : s + step], j[s : s + step])
        k[s : s + step] = block.argmin(axis=1)
        oldest[s : s + step] = block[np.arange(len(block)), k[s : s + step]]
        count += np.count_nonzero(block < np.inf)

    def column(e: int) -> set[int]:
        row = _coface_values(*source, i[e : e + 1], j[e : e + 1])[0][0]
        k = np.flatnonzero(row < np.inf)
        return set(_codes(row[k], _triple_keys(i[e], j[e], k, n)))

    ids = np.where(oldest < np.inf, _triple_keys(i, j, k, n), -1)
    return _Cofaces(oldest, ids, long, count // 3, column)


def _explicit_cofaces(cx: FilteredComplex) -> _Cofaces:
    """Cofaces from the triangle arrays, by a CSR coboundary index built at the first column asked for."""
    edges, values, m = cx.triangle_edges, cx.triangle_values, len(cx.edge_values)
    first = np.full(m, len(values), dtype=np.intp)
    np.minimum.at(first, edges.ravel(), np.repeat(np.arange(len(values)), 3))
    # faces never enter after their triangle: a boundary edge entered strictly earlier or at its value
    earlier = cx.edge_values[edges] < values[:, None]
    long = np.bincount(edges[~earlier & (earlier.sum(axis=1) == 2)[:, None]], minlength=m) > 0

    @cache
    def index() -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
        order = np.argsort(edges.ravel(), kind="stable")
        return order // 3, np.searchsorted(edges.ravel()[order], np.arange(m + 1))

    def column(e: int) -> set[int]:
        rows, starts = index()
        rows = rows[starts[e] : starts[e + 1]]
        return set(_codes(values[rows], rows))

    oldest, ids = np.append(values, np.inf)[first], np.where(first < len(values), first, -1)
    return _Cofaces(oldest, ids, long, len(values), column)


def _bridges(links: list[tuple[int, int]]) -> list[int]:
    """Indices of the bridges of the multigraph with these edges: Tarjan's low-link
    test by an iterative depth-first search. A loop or a parallel edge is never one."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e, (u, v) in enumerate(links):
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    order, low, bridges = {}, {}, []  # per vertex its discovery index and the least one its subtree reaches
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, -1, iter(adj[root]))]  # (vertex, the edge it was reached by, its untried edges)
        while stack:
            u, via, untried = stack[-1]
            for v, e in untried:
                if v not in order:
                    order[v] = low[v] = len(order)
                    stack.append((v, e, iter(adj[v])))
                    break
                if e != via:
                    low[u] = min(low[u], order[v])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > order[parent]:
                        bridges.append(via)
    return bridges


def _union_components(cx: FilteredComplex) -> _Components:
    """Union the edges in filtration order until they connect the vertices.

    Off ties an edge is Short exactly when it merges. Before a group of edges tied at one
    value merges, each edge is read as a link between its endpoints' components; the Short
    edges are the bridges of that multigraph, which the group's other edges cannot replace.
    The group merges in edge order, so the merges are the lexicographic Kruskal tree's.
    """
    edges, values = cx.edge_vertices.tolist(), cx.edge_values
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    sizes = np.diff(starts, append=len(values))
    tied = sizes > 1  # selected in numpy: most groups are single edges
    ties = dict(zip(starts[tied].tolist(), sizes[tied].tolist()))
    merges, short = np.zeros(len(values), dtype=bool), np.zeros(len(values), dtype=bool)
    uf, components = UnionFind(cx.n_vertices), cx.n_vertices
    for edge, (i, j) in enumerate(edges):
        if components == 1:
            break  # no later edge merges
        if edge in ties:
            links = [(uf.find(p), uf.find(q)) for p, q in edges[edge : edge + ties[edge]]]
            short[[edge + e for e in _bridges(links)]] = True
        if uf.union(i, j):
            merges[edge], components = True, components - 1
    short |= merges & np.repeat(~tied, sizes)
    return _Components(merges, short, components)


def _max_side_over_two(a: npt.ArrayLike, b: npt.ArrayLike, c: npt.ArrayLike) -> npt.NDArray[np.float64]:
    return np.maximum(np.maximum(a, b), c) / 2.0


def build_vr(
    cloud: PointCloud | npt.NDArray[np.float64],
    max_scale: float | None = None,
) -> FilteredComplex:
    """Vietoris-Rips filtration up to dimension 2.

    Edge value is half the endpoint distance; triangle value is the max
    of its edge values. With no explicit cap, the cap is half the cloud
    diameter, which keeps every edge and triangle.

    Args:
        cloud: input points.
        max_scale: optional cap; simplices with value above it are omitted.

    Returns:
        The filtered complex, max_scale field set to the cap used.

    Raises:
        ValueError: coincident points, or a NaN or negative cap.
    """
    return _capped_complex(_as_cloud(cloud).points, FiltrationKind.VR, max_scale, 2.0, _max_side_over_two)


def _meb_radius_from_sides(a: npt.ArrayLike, b: npt.ArrayLike, c: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Minimum enclosing ball radius of triples given their side lengths, in any order.

    Same geometry as `geometry.enclosing_radius_3`, but fed the builder's own
    distance floats so that a triangle entering with its longest edge carries
    exactly that edge's value (the edge taxonomy compares the two for equality).
    The sides are sorted first, by exact minima and maxima, so no value depends
    on the order of a triangle's vertices. Then, elementwise: half the longest
    side when the triangle is non-acute or Heron's area underflows to zero, else
    the circumradius (never below half the longest side).
    """
    shorter, longer = np.minimum(a, b), np.maximum(a, b)
    a, b, c = np.minimum(shorter, c), np.maximum(shorter, np.minimum(longer, c)), np.maximum(longer, c)
    longest = c
    half = longest / 2.0
    # not c*c < a*a + b*b: of the corpus lattices' 576 exact right triangles that reads 142 as acute, this 73
    rest_sq = a * a + b * b + c * c - longest * longest
    s = (a + b + c) / 2.0
    area_sq = s * (s - a) * (s - b) * (s - c)
    acute = ~(longest * longest >= rest_sq) & (area_sq > 0.0)
    radius = a * b * c / (4.0 * np.sqrt(np.where(acute, area_sq, 1.0)))
    return np.where(acute, np.maximum(radius, half), half)


def build_cech(
    cloud: PointCloud | npt.NDArray[np.float64],
    max_scale: float | None = None,
) -> FilteredComplex:
    """Cech filtration up to dimension 2.

    Edge value is half the endpoint distance; triangle value is the
    radius of the triple's minimum enclosing ball, which is at least the
    largest edge value (so faces precede cofaces). The default cap is
    diam/sqrt(3): the circumradius of any triple is bounded by that (its
    largest angle is at least 60 degrees), so the default keeps every
    triangle and the complex tops out as a full 2-skeleton.

    Raises:
        ValueError: coincident points, or a NaN or negative cap.
    """
    return _capped_complex(_as_cloud(cloud).points, FiltrationKind.CECH, max_scale, math.sqrt(3.0), _meb_radius_from_sides)


def _lex_smallest_triangulation(cycle: list[int]) -> list[tuple[int, int, int]]:
    """Lexicographically smallest triangulation of a convex polygon.

    `cycle` lists vertex ids in convex (cyclic) order. The smallest
    realizable triangle in a convex polygon is always the one on the
    three smallest ids; picking it splits the polygon into arcs, and
    doing the same on each arc keeps the sorted triangle list minimal.
    """
    out = []
    arcs = [cycle]
    while arcs:
        arc = arcs.pop()
        if len(arc) < 3:
            continue
        chosen = sorted(arc)[:3]
        out.append(tuple(chosen))
        a, b, c = sorted(arc.index(v) for v in chosen)
        arcs += [arc[a : b + 1], arc[b : c + 1], arc[c:] + arc[: a + 1]]
    return sorted(out)


def _collinear_path_complex(points: npt.NDArray[np.float64]) -> FilteredComplex:
    """Path complex for collinear points: consecutive edges at half-length."""
    # order along the line spanned by the farthest pair
    D = _distance_matrix(points)
    i0, j0 = np.unravel_index(int(D.argmax()), D.shape)
    axis = points[j0] - points[i0]
    order = np.array(sorted(range(len(points)), key=lambda k: float(np.dot(points[k] - points[i0], axis))))
    edges = np.sort(np.stack([order[:-1], order[1:]], axis=1), axis=1)
    values = D[edges[:, 0], edges[:, 1]] / 2.0
    cap = float(values.max(initial=0.0))
    return FilteredComplex.from_arrays(len(points), edges, values, [], [], FiltrationKind.DELAUNAY, cap)


def _circumcircles(
    points: npt.NDArray[np.float64], tris: npt.NDArray[np.intp]
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Circumcentres (t, 2) and circumradii (t,) of planar triangles (t, 3)."""
    a = points[tris[:, 0]]
    u = points[tris[:, 1]] - a
    v = points[tris[:, 2]] - a
    den = 2.0 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if (den == 0.0).any():
        raise ValueError("degenerate (collinear) triangle has no circumcircle")
    uu = u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]
    vv = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    ux = (v[:, 1] * uu - u[:, 1] * vv) / den
    uy = (u[:, 0] * vv - v[:, 0] * uu) / den
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    radii = np.fromiter(map(math.hypot, ux.tolist(), uy.tolist()), dtype=np.float64, count=len(ux))
    return a + np.stack([ux, uy], axis=1), radii


def _ball_candidates(
    tree: cKDTree, centers: npt.NDArray[np.float64], radii: npt.NDArray[np.float64]
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp], npt.NDArray[np.float64]]:
    """(ball row, point, distance to centre) for the points in each widened ball, rows ascending."""
    # widened so that the KD-tree's rounding never drops a point the float tests flag
    hits = tree.query_ball_point(centers, radii * (1.0 + 1e-6), return_sorted=False)
    rows = np.repeat(np.arange(len(hits)), np.fromiter(map(len, hits), dtype=np.intp, count=len(hits)))
    cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=len(rows))
    return rows, cols, _norms(tree.data[cols] - centers[rows])


def build_delaunay_2d(cloud: PointCloud | npt.NDArray[np.float64]) -> FilteredComplex:
    """Planar alpha filtration on the Delaunay triangulation.

    Triangle value = circumradius. Edge value = half-length if the edge's
    open diametral disk contains no cloud point (Gabriel edge), else the
    minimum of its incident triangles' values. Cocircular groups of 4+
    points are re-triangulated deterministically (lexicographically
    smallest triangulation of the convex polygon). All-collinear input
    degrades to the path complex with edges at half-length.

    The cocircular, Gabriel and coincidence tests run only on the hits of
    `scipy.spatial.cKDTree` queries (balls at circumcentres and edge
    midpoints, pairs within 2 * COINCIDENT_TOL): O(n log n + t) time, and
    no n x n array off the collinear path.

    Raises:
        ValueError: ambient dimension != 2, coincident points, or a point inside
            a circumcircle by more than the cocircular tolerance plus coordinate rounding.
    """
    # imported here so that the VR and Cech paths never load scipy.spatial
    from scipy.spatial import Delaunay, QhullError, cKDTree

    points = _as_cloud(cloud).points
    n = points.shape[0]
    if points.shape[1] != 2:
        raise ValueError("Delaunay implemented for the plane only")
    tree = cKDTree(points)
    close = tree.query_pairs(2.0 * COINCIDENT_TOL, output_type="ndarray")
    if (_norms(points[close[:, 0]] - points[close[:, 1]]) < COINCIDENT_TOL).any():
        raise ValueError("coincident points are not allowed")

    if n <= 2 or _all_collinear(points):
        return _collinear_path_complex(points)

    try:
        # Qhull lifts its input onto a paraboloid, so far from the origin the
        # lift loses the bits that decide the triangulation; it sees the
        # centred cloud, and every value below comes from the original points.
        tess = Delaunay(points - points.mean(axis=0))
    except QhullError:
        if _all_collinear(points, tol=1e-8):
            return _collinear_path_complex(points)
        raise

    tris = np.sort(tess.simplices.astype(np.intp), axis=1)
    centers, radii = _circumcircles(points, tris)
    tol = COCIRCULAR_TOL * np.maximum(1.0, radii)
    rows, cols, dist = _ball_candidates(tree, centers, radii + tol)
    # centres round at the size of the coordinates; the certificate allows for that too
    slack = tol + 8.0 * np.finfo(np.float64).eps * float(np.abs(points).max())
    inside = (radii[rows] - dist > slack[rows]) & (cols[:, None] != tris[rows]).all(axis=1)
    if inside.any():
        k = int(np.argmax(inside))
        raise ValueError(f"not Delaunay: point {cols[k]} is inside the circumcircle of {_row(tris, rows[k])}")
    on_circle = np.abs(dist - radii[rows]) <= tol[rows]
    if (np.bincount(rows[on_circle], minlength=len(tris)) >= 4).any():
        tris = _canonicalize_cocircular(points, tris, rows[on_circle], cols[on_circle])
        _, radii = _circumcircles(points, tris)

    faces = tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    _, first, inverse = np.unique(faces[:, 0] * n + faces[:, 1], return_index=True, return_inverse=True)
    edges = faces[first]
    half = _norms(points[edges[:, 0]] - points[edges[:, 1]]) / 2.0
    tri_values = np.maximum(radii, half[inverse].reshape(-1, 3).max(axis=1))
    incident_min = np.full(len(edges), np.inf)
    np.minimum.at(incident_min, inverse, np.repeat(tri_values, 3))
    rows, cols, dist = _ball_candidates(tree, (points[edges[:, 0]] + points[edges[:, 1]]) / 2.0, half)
    blocked = (dist < half[rows]) & (cols != edges[rows, 0]) & (cols != edges[rows, 1])
    edge_values = np.where(np.bincount(rows[blocked], minlength=len(edges)) > 0, incident_min, half)
    cap = max(0.0, float(edge_values.max()), float(tri_values.max()))
    return FilteredComplex.from_arrays(n, edges, edge_values, tris, tri_values, FiltrationKind.DELAUNAY, cap)


def _all_collinear(points: npt.NDArray[np.float64], tol: float = 1e-12) -> bool:
    if points.shape[0] <= 2:
        return True
    centered = points - points.mean(axis=0)
    scale = float(np.abs(centered).max())
    if scale == 0.0:
        return True
    sv = np.linalg.svd(centered / scale, compute_uv=False)
    return bool(sv[1] <= tol * max(1.0, sv[0]))


def _canonicalize_cocircular(
    points: npt.NDArray[np.float64], tris: npt.NDArray[np.intp], rows: npt.NDArray[np.intp], cols: npt.NDArray[np.intp]
) -> npt.NDArray[np.intp]:
    """Replace each cocircular group's triangles with the canonical choice; cols[k] is on the circle of rows[k]."""
    keys = list(map(tuple, tris.tolist()))
    starts = np.searchsorted(rows, np.arange(len(keys) + 1))
    circle = {keys[r]: frozenset(cols[starts[r] : starts[r + 1]].tolist()) for r in np.flatnonzero(np.diff(starts) >= 4)}
    out = set(keys)
    # groups apply in set-of-triangles order, which matters only where near-cocircular groups share 3+ points
    for group in dict.fromkeys(circle[t] for t in set(keys) if t in circle):
        members = sorted(group)
        out = {t for t in out if not set(t) <= group}
        center = points[members].mean(axis=0)
        cycle = sorted(members, key=lambda v: math.atan2(points[v][1] - center[1], points[v][0] - center[0]))
        out.update(_lex_smallest_triangulation(cycle))
    return np.array(sorted(out), dtype=np.intp)


def build_complex(
    cloud: PointCloud | npt.NDArray[np.float64],
    kind: FiltrationKind | str,
    max_scale: float | None = None,
) -> FilteredComplex:
    """Build the filtration of the requested kind.

    Delaunay ignores `max_scale` (the full triangulation is always
    finite) and rejects a non-None value to avoid silent surprises.
    """
    kind = FiltrationKind(kind)
    if kind is FiltrationKind.DELAUNAY:
        if max_scale is not None:
            raise ValueError("the Delaunay filtration does not take a scale cap")
        return build_delaunay_2d(cloud)
    return (build_vr if kind is FiltrationKind.VR else build_cech)(cloud, max_scale)


def critical_scales(complex: FilteredComplex) -> list[float]:
    """Strictly increasing list of all distinct simplex values."""
    return sorted({0.0, *complex.edge_values.tolist(), *complex.triangle_values.tolist()})
