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
always precede cofaces. These arrays are the complex's only representation.
`FilteredComplex.from_arrays` takes them in any order, sorts them and checks
them; the builders hand over their own arrays, sorted once, and every check
of `from_arrays` runs on them through the same code. `edges` and
`triangles` are `range`s over the rows of each dimension's arrays.

VR and Cech complexes keep D in place of triangles, and their builder emits the edges in filtration order;
a group of T clouds of one ambient dimension and any sizes (a lone cloud is a group of one) shares one D
stack, padded with inf to its largest cloud, and one (T, m) edge array, each cloud's own edges first. The
dim-1 reduction and the Long test share one cached pass over D, read as one flat (T n, n) stack of rows, in
which an edge reads its own cloud's vertices only up to its first Long witness.
Uncapped, such a complex holds all C(n, 3) triples, and `len(cx.triangles)` is that count, read off no
distance. Reading a triangle array or counting a capped complex's triangles builds all three arrays.
Uncapped VR build + dim-1 pairs on 200 planar points (`default_rng(0)`) on a 2-core Xeon VM: 0.018 s, the
median of 21, and a 6.0 MiB tracemalloc peak.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .geometry import COINCIDENT_TOL, PointCloud, _as_cloud, _distance_matrix, _norms

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


class _Cofaces(NamedTuple):
    """One pass over a complex's edges, shared by the dim-1 reduction and the Long test. A triangle's id is
    its row in the triangle arrays, or for VR/Cech its base-n vertex key: (value, id) sorts in filtration order."""

    oldest_values: npt.NDArray[np.float64]  # per edge, its oldest coface; inf where it has none
    oldest_ids: npt.NDArray[np.int64]  # -1 where it has none
    long: npt.NDArray[np.bool_]
    apparent: npt.NDArray[np.bool_]  # the edge is the youngest facet of its oldest coface
    rows: Callable[[list[int]], list[tuple[list[float], list[int]]]]  # per edge, its cofaces' values and ids in order
    offset: int  # `rows` numbers a group's edges, member by member: this complex's edge e is offset + e


class _Components(NamedTuple):
    """One union-find pass over a complex's edges, shared by dim 0, the dim-1 clearing, the Short test and `mst`."""

    merges: npt.NDArray[np.bool_]  # the edge joins two components
    short: npt.NDArray[np.bool_]  # the edge is a bridge at its value, with every edge tied at that value present
    components: int  # left at the cap


def _row(vertices: npt.NDArray[np.intp], idx: int) -> tuple[int, ...]:
    return tuple(vertices[idx].tolist())


def _group_keys(
    n: int, vertices: npt.NDArray[np.intp], values: npt.NDArray[np.float64], cap: float
) -> npt.NDArray[np.int64]:
    """Check one dimension's simplices against n vertices and the cap, and return their keys: the vertex tuples read
    as digits in base n, which order like the tuples."""
    if len(values) != len(vertices):
        raise ValueError(f"{len(vertices)} simplices of {vertices.shape[1]} vertices but {len(values)} values")
    # each check reads whole arrays, and finds the first bad row only when one fails
    if vertices.size and (vertices.min() < 0 or vertices.max() >= n):
        bad = np.flatnonzero(((vertices < 0) | (vertices >= n)).any(axis=1))
        raise ValueError(f"vertex index out of range in {_row(vertices, bad[0])}")
    rising = vertices[:, 1:] > vertices[:, :-1]
    if not rising.all():
        bad = np.flatnonzero(~rising.all(axis=1))
        raise ValueError(f"simplex vertices must be strictly increasing: {_row(vertices, bad[0])}")
    low, top = values.min(initial=0.0), values.max(initial=0.0)  # NaN in, NaN out
    if not (low >= 0.0 and top < math.inf):
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
        raise ValueError(
            f"simplex value must be finite and nonnegative: {_row(vertices, bad[0])} at {values[bad[0]]}"
        )
    if top > cap:
        bad = np.flatnonzero(values > cap)
        raise ValueError(f"simplex {_row(vertices, bad[0])} at {values[bad[0]]} is above max_scale {cap}")
    keys = vertices[:, 0].astype(np.int64)
    for col in vertices.T[1:]:
        keys *= n
        keys += col
    return keys


def _value_sort(values: npt.NDArray[np.float64]) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64]]:
    """Stable argsort along the last axis, and the sorted values. A default argsort (timsort is 3-5x slower), then
    ties sort by their positions: one sort of run * m + position, unique keys, where a run is a group of tied values."""
    order = np.argsort(values, axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    tied = values[..., 1:] == values[..., :-1]
    if tied.any():
        runs = np.zeros(order.shape, dtype=np.intp)
        np.cumsum(~tied, axis=-1, out=runs[..., 1:])
        order = np.sort(runs * order.shape[-1] + order, axis=-1) % order.shape[-1]
    return order, values


def _value_order(
    vertices: npt.NDArray[np.intp],
    values: npt.NDArray[np.float64],
    keys: npt.NDArray[np.int64],
    order: npt.NDArray[np.intp],
) -> npt.NDArray[np.intp]:
    """Refine `order`, which lists the simplices by key, to their (value, key) order, rejecting a duplicate simplex."""
    by_key = keys[order]
    dup = np.flatnonzero(by_key[1:] == by_key[:-1])
    if dup.size:
        raise ValueError(f"duplicate simplex {_row(vertices, order[dup[0]])}")
    return order[_value_sort(values[order])[0]]


def _sorted_group(
    n: int, vertices: npt.ArrayLike, values: npt.ArrayLike, width: int, cap: float
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64]]:
    """Check one dimension's simplices against n vertices and the cap, and sort them by (value, vertices)."""
    vertices = np.asarray(vertices, dtype=np.intp).reshape(-1, width)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    keys = _group_keys(n, vertices, values, cap)
    order = _value_order(vertices, values, keys, np.argsort(keys))
    return vertices[order], values[order]


def _checked_cap(n_vertices: int, max_scale: float) -> float:
    """The cap of a complex on n_vertices vertices, as a float, once both are checked."""
    if n_vertices < 1:
        raise ValueError("complex needs at least one vertex")
    if n_vertices > _MAX_VERTICES:
        raise ValueError(f"at most {_MAX_VERTICES} vertices are supported")
    cap = float(max_scale)
    if not cap >= 0.0:
        raise ValueError(f"max_scale must be a nonnegative number, got {cap}")
    return cap


def _edge_rows(edge_keys: npt.NDArray[np.int64], face_keys: npt.NDArray[np.int64]) -> npt.NDArray[np.intp]:
    """Row of the edge with each face key, or -1 where there is none: one search in the sorted edge keys."""
    order = np.argsort(edge_keys)
    keys, rows = np.append(edge_keys[order], -1), np.append(order, -1)  # a sentinel past the end: no key is -1
    pos = np.searchsorted(keys[:-1], face_keys)
    return np.where(keys[pos] == face_keys, rows[pos], -1)


class FilteredComplex:
    """A filtered simplicial complex of dimension <= 2.

    Invariants (checked at construction): at least one vertex, all at
    value 0; vertex tuples strictly increasing; no simplex twice; values
    finite and nonnegative; faces of every simplex present with a value no
    larger than the simplex's own (so the (value, dim, lex) order is a
    valid filtration order).

    `max_scale` is the cap the complex was built under: no simplex has a
    value above it, and inf means nothing was left out.

    `from_arrays` is the public constructor: it takes the per-dimension
    arrays in any order, and sorts and checks them. The builders store
    arrays they sort once themselves, after the same checks. Instances are
    immutable, their arrays read-only, and compare by identity.
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
        """Complex on vertices 0..n-1 from edge and triangle arrays in any order, none above max_scale (inf: no cap)."""
        cap = _checked_cap(n_vertices, max_scale)
        self = cls.__new__(cls)
        self._store(n_vertices, *_sorted_group(n_vertices, edge_vertices, edge_values, 2, cap), kind, cap)
        self._store_triangles(triangle_vertices, triangle_values)
        return self

    def _store(self, n, edge_vertices, edge_values, kind, max_scale, distances=None, group=None) -> None:
        """Keep the edges, in filtration order; a VR/Cech builder passes D for the kind's triangles, and its group."""
        for arr in (edge_vertices, edge_values):
            arr.flags.writeable = False
        self.__dict__.update(n_vertices=int(n), kind=FiltrationKind(kind), max_scale=float(max_scale))
        self.__dict__.update(edge_vertices=edge_vertices, edge_values=edge_values, _distances=distances, _group=group)

    def _store_triangles(self, triangle_vertices, triangle_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort the triangles, find their boundary edges' rows, and keep them."""
        n, ev = self.n_vertices, self.edge_vertices
        tv, tx = _sorted_group(n, triangle_vertices, triangle_values, 3, self.max_scale)
        triangle_edges = _edge_rows(ev[:, 0] * n + ev[:, 1], tv[:, [0, 0, 1]] * n + tv[:, [1, 2, 2]])
        return self._keep_triangles(tv, tx, triangle_edges)

    def _keep_triangles(self, tv, tx, triangle_edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check triangles in filtration order against the edges, their boundary edges' rows (-1: missing) given,
        and keep them."""
        ex = self.edge_values
        missing = triangle_edges < 0
        if missing.any():
            t = int(np.flatnonzero(missing.any(axis=1))[0])
            a, b = _FACE_COLUMNS[int(np.argmax(missing[t]))]
            raise ValueError(
                f"face {(int(tv[t, a]), int(tv[t, b]))} of {_row(tv, t)} missing: complex not face-closed"
            )
        late = ex[triangle_edges] > tx[:, None]
        if late.any():
            t = int(np.flatnonzero(late.any(axis=1))[0])
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
        the kind's value of (D_ij, D_ik, D_jk) where that is at most the cap."""
        D, n, (i, j) = self._distances, self.n_vertices, self.edge_vertices.T
        later = np.zeros((n, n), dtype=bool)  # later[a, b]: edge (a, b) kept, a < b
        later[i, j] = True
        rows, k = np.nonzero(later[i] & later[j])
        i3, j3 = i[rows], j[rows]
        values = _triangle_values(self.kind, D[i3, j3], D[i3, k], D[j3, k])
        keep = values <= self.max_scale
        return self._store_triangles(np.stack([i3[keep], j3[keep], k[keep]], axis=1), values[keep])

    triangle_vertices = cached_property(lambda self: self._triangles[0])
    triangle_values = cached_property(lambda self: self._triangles[1])
    triangle_edges = cached_property(lambda self: self._triangles[2])

    @cached_property
    def _cofaces(self) -> _Cofaces:
        return _explicit_cofaces(self) if self._distances is None else self._group[0]()[self._group[1]]

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

    @property
    def edges(self) -> range:
        """The rows of the edge arrays."""
        return range(len(self.edge_values))

    @property
    def triangles(self) -> range:
        """The rows of the triangle arrays. An uncapped VR/Cech complex holds every triple, so its count is C(n, 3) and
        builds nothing; any other count reads `triangle_values`, which a capped complex builds at its first read."""
        every = self._distances is not None and self.max_scale == math.inf
        return range(math.comb(self.n_vertices, 3) if every else len(self.triangle_values))


def _capped_complexes(
    clouds: Sequence[npt.NDArray[np.float64]],
    kind: FiltrationKind,
    max_scale: float | None,
) -> list[FilteredComplex]:
    """VR/Cech complexes of clouds (n_t, d) of one ambient dimension: edges (i < j) at D/2, and every triple i < j < k
    whose three edges are kept at the kind's value of (D_ij, D_ik, D_jk); both only where the value is at most the
    cap, one cloud's max_scale, or inf when none is given. A NaN or negative cap would keep only the vertices, so it
    is rejected; clouds are checked in order. The clouds share one D stack (T, n, n), padded with inf past each
    cloud, and the edges leave in filtration order as views of one (T, n(n - 1)/2, 2) array, each cloud's own first.
    Each complex keeps its D in place of triangle arrays, and the stack shares one coface pass, run at the first
    read. D's diagonal is inf, so the coface rule gives inf at k = i and k = j."""
    if max_scale is not None and len(clouds) > 1:
        raise ValueError(f"a scale cap takes one cloud, got {len(clouds)}")
    cap = math.inf if max_scale is None else float(max_scale)
    sizes = [len(points) for points in clouds]
    T, n = len(sizes), max(sizes)
    # a smaller cloud repeats its last point: a difference it already has, so no new overflow
    D = _distance_matrix(np.stack([p if len(p) == n else p[np.minimum(np.arange(n), len(p) - 1)] for p in clouds]))
    keys = np.flatnonzero(np.arange(n)[:, None] < np.arange(n))  # a n + b of the pairs a < b, in key order
    values = np.take(D.reshape(T, n * n), keys, axis=1)
    if min(sizes) < n:  # padding: inf in D, and NaN edges, which sort last and tie with nothing
        pad = np.arange(n) >= np.array(sizes)[:, None]  # (T, n): the vertices past each cloud's size
        D[pad], D.transpose(0, 2, 1)[pad], values[pad[:, keys % n]] = np.inf, np.inf, np.nan
    # the edge taxonomy assumes distinct points (a zero-length edge classifies meaninglessly): every builder checks
    close = (values < COINCIDENT_TOL).any(axis=1).tolist()
    values /= 2.0
    if cap < math.inf:  # select before sorting: a sparse cap keeps few of the n(n-1)/2 edges
        kept = values[0] <= cap
        keys, values = keys[kept], values.compress(kept, axis=1)  # [:, kept] is 10x slower
    order, values = _value_sort(values)  # ties in key order
    vertices = np.stack(np.divmod(keys[order], n), axis=-1)
    D.reshape(T, n * n)[:, :: n + 1] = np.inf
    D.flags.writeable = False
    group_pass = cache(partial(_implicit_cofaces, D, kind, vertices, cap, sizes))  # holds no complex: no cycle
    complexes = []
    for t, size in enumerate(sizes):
        if close[t]:
            raise ValueError("coincident points are not allowed")
        if not cap >= 0.0:
            raise ValueError(f"max_scale must be a nonnegative number, got {cap}")
        m = min(len(keys), size * (size - 1) // 2)
        if m and values[t, m - 1] == np.inf:  # a distance that overflowed; ties at inf stay in key order
            bad = np.flatnonzero(values[t] == np.inf)
            raise ValueError(f"simplex value must be finite and nonnegative: {_row(vertices[t], bad[0])} at inf")
        complexes.append(FilteredComplex.__new__(FilteredComplex))
        complexes[-1]._store(size, vertices[t, :m], values[t, :m], kind, cap, D[t, :size, :size], (group_pass, t))
    return complexes


# Entries (edges x vertices) per block of the coface pass. Larger blocks measured
# slower: their temporaries pass glibc's 128 KiB mmap threshold and fault in afresh.
_BLOCK = 2**13


def _triple_keys(i, j, k, n: int):
    """Base-n keys of the sorted triples {i, j, k}, given i < j."""
    return (np.minimum(i, k) * n + np.maximum(i, np.minimum(j, k))) * n + np.maximum(j, k)


def _triangle_values(kind: FiltrationKind, e, x, y):
    """The kind's values of the triangles with sides e, x, y: no value depends on their order."""
    if kind is FiltrationKind.VR:  # the Cech path's form gives equal bits, but rips_query VR ops ran up to 1.7x slower
        values = np.maximum(x, y)  # max(max(e, x), y) / 2: max is exact in any order
        np.maximum(values, e, out=values)
        values /= 2.0
        return values
    return _meb_radius_from_sides(e, x, y)


def _long_witness(kind: FiltrationKind, values, e, x, y):
    """Per triangle of these values and sides whether it witnesses that side e is Long: it enters at e / 2 over two
    strictly shorter sides. A VR triangle over two shorter sides always enters at e / 2."""
    witness = np.maximum(x, y) < e
    if kind is not FiltrationKind.VR:
        witness &= values == e / 2.0
    return witness


def _coface_values(D, kind: FiltrationKind, cap: float, e, ri, rj, k0: int = 0, k1: int | None = None):
    """Values of the triangles over edges of lengths e, whose endpoints are rows ri and rj of the flat stack D (T n, n),
    with the vertices k in [k0, k1) of their cloud: inf where k is an endpoint (D's diagonal is inf), past the cloud
    (padding) or above the cap; and the sides (e, x, y) they were read from, for `_long_witness`."""
    e, x, y = e[:, None], D[ri, k0:k1], D[rj, k0:k1]
    values = _triangle_values(kind, e, x, y)
    if cap < math.inf:
        np.putmask(values, values > cap, np.inf)
    return values, (e, x, y)


def _implicit_cofaces(D, kind: FiltrationKind, vertices: npt.NDArray[np.intp], cap: float, sizes) -> list[_Cofaces]:
    """Bauer's implicit coboundary (Ripser), read lazily off D: no triangle arrays.

    One pass serves a group of T complexes on clouds of `sizes` points: D (T, n, n), padded with inf, their edges
    (T, m, 2) in filtration order, each cloud's own first, and their one cap; the group's edge e is member e // m's
    edge e % m. D is read as one flat (T n, n) stack, where vertex a of cloud t is row t n + a, and each edge keeps
    its endpoints' rows, its length and its cloud's size: it reads k up to that size, and keys triangles in that
    base. Edge (i, j)'s oldest coface is the first k of least value, as the triples {i, j, k} sort like k. A Long
    witness has the edge's own value, the least a coface can have, so k is read in rounds of doubling width and an
    edge leaves at its first witness. A block keeps its first least k; a later block wins only on a strictly smaller
    value. The edge is apparent, the youngest facet of that coface, when its (D, key) comes after both (D_ik, key of
    (i, k)) and (D_jk, key of (j, k)): the builder's edge order, read off three entries of D. `rows` recomputes rows
    in blocks, for edges numbered as above; its closure holds D, the kind, the cap and the edges, not the complexes,
    so no reference cycle keeps it alive.
    """
    T, n, m = len(sizes), D.shape[1], vertices.shape[1]
    D, (i, j) = D.reshape(T * n, n), vertices.reshape(-1, 2).T
    ri, rj = (vertices + (np.arange(T) * n)[:, None, None]).reshape(-1, 2).T
    E, base = D[ri, j], np.repeat(sizes, m)  # per edge its length and its cloud's size
    oldest, k, long = np.full(len(i), np.inf), np.zeros_like(i), np.zeros(len(i), dtype=bool)
    active = np.flatnonzero(j < base)
    k0, width = 0, max(8, _BLOCK // max(1, len(active)))
    while active.size:
        k1 = min(k0 + width, n)
        step = _BLOCK // (k1 - k0)  # at least 1: the width never passes _BLOCK
        for s in range(0, len(active), step):
            batch = active[s : s + step]
            block, sides = _coface_values(D, kind, cap, E[batch], ri[batch], rj[batch], k0, k1)
            first = block.argmin(axis=1)
            least = block[np.arange(len(batch)), first]
            better = least < oldest[batch]
            oldest[batch[better]], k[batch[better]] = least[better], first[better] + k0
            long[batch] = _long_witness(kind, block, *sides).any(axis=1)
        keep = ~long[active] & (base[active] > k1)  # a cloud's columns end at its size
        active, k0, width = active[keep], k1, min(2 * width, _BLOCK)

    def rows(edges: list[int]) -> list[tuple[list[float], list[int]]]:
        out, step = [], max(1, _BLOCK // n)
        for s in range(0, len(edges), step):
            e = np.array(edges[s : s + step], dtype=np.intp)
            block = _coface_values(D, kind, cap, E[e], ri[e], rj[e])[0]
            order = block.argsort(axis=1, kind="stable")  # (value, k) order is (value, id) order
            values = block[np.arange(len(e))[:, None], order]
            ids = _triple_keys(i[e, None], j[e, None], order, base[e, None])
            ends = np.count_nonzero(values < np.inf, axis=1).tolist()
            out.extend((values[r, :end].tolist(), ids[r, :end].tolist()) for r, end in enumerate(ends))
        return out

    # edges sort by (D, key a n + b): at a tie in D, side (i, k) precedes (i, j) iff k < j, and (j, k) iff k < i
    x, y = D[ri, k], D[rj, k]
    apparent = (oldest < np.inf) & ((x < E) | ((x == E) & (k < j))) & ((y < E) | ((y == E) & (k < i)))
    ids = np.where(oldest < np.inf, _triple_keys(i, j, k, base), -1)
    oldest, ids, long, apparent = (a.reshape(T, m) for a in (oldest, ids, long, apparent))
    ends = [min(m, size * (size - 1) // 2) for size in sizes]  # each cloud's own edges
    return [_Cofaces(oldest[t, :c], ids[t, :c], long[t, :c], apparent[t, :c], rows, t * m) for t, c in enumerate(ends)]


def _explicit_cofaces(cx: FilteredComplex) -> _Cofaces:
    """Cofaces from the triangle arrays, by a CSR coboundary index: one sort of the (edge row, face) pairs lists each
    edge's cofaces in row order, which is (value, row) order, so the first of a run is the oldest."""
    edges, values, m = cx.triangle_edges, cx.triangle_values, len(cx.edge_values)
    faces = len(values) * 3
    pairs = np.sort(edges.ravel() * faces + np.arange(faces))  # (edge row, face) as unique keys: a stable order
    cofaces, starts = pairs % faces // 3, np.searchsorted(pairs // faces, np.arange(m + 1))
    first = np.where(starts[:-1] < starts[1:], np.append(cofaces, -1)[starts[:-1]], -1)
    # faces never enter after their triangle: a boundary edge entered strictly earlier or at its value
    earlier = cx.edge_values[edges] < values[:, None]
    long = np.bincount(edges[~earlier & (earlier.sum(axis=1) == 2)[:, None]], minlength=m) > 0
    apparent = np.append(edges.max(axis=1), -1)[first] == np.arange(m)  # the youngest facet of the oldest coface

    def rows(wanted: list[int]) -> list[tuple[list[float], list[int]]]:
        return [(values[t].tolist(), t.tolist()) for t in (cofaces[starts[e] : starts[e + 1]] for e in wanted)]

    return _Cofaces(np.append(values, np.inf)[first], first, long, apparent, rows, 0)


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
    The group merges in edge order, so the merges are the lexicographic Kruskal tree's. The
    last merge comes early, so the edges are listed in chunks: 4n edges, then doubling, each
    extended to the end of the tie group at its last edge. The forest links the smaller root
    under the larger and halves paths as `find` walks them, which keeps the pass near-linear.
    """
    values = cx.edge_values
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    sizes = np.diff(starts, append=len(values))
    tied = sizes > 1  # selected in numpy: most groups are single edges
    ties = dict(zip(starts[tied].tolist(), sizes[tied].tolist()))
    merges, short = np.zeros(len(values), dtype=bool), np.zeros(len(values), dtype=bool)
    parent, size = list(range(cx.n_vertices)), [1] * cx.n_vertices

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    components, start, stop = cx.n_vertices, 0, 4 * cx.n_vertices
    while components > 1 and start < len(values):
        stop = int(np.searchsorted(values, values[min(stop, len(values)) - 1], side="right"))
        edges = cx.edge_vertices[start:stop].tolist()
        for edge, (i, j) in enumerate(edges, start):
            if components == 1:
                break  # no later edge merges
            if edge in ties:
                links = [(find(p), find(q)) for p, q in edges[edge - start : edge - start + ties[edge]]]
                short[[edge + e for e in _bridges(links)]] = True
            i, j = find(i), find(j)
            if i != j:
                if size[i] < size[j]:
                    i, j = j, i
                parent[j], size[i] = i, size[i] + size[j]
                merges[edge], components = True, components - 1
        start, stop = stop, 2 * stop
    short |= merges & np.repeat(~tied, sizes)
    return _Components(merges, short, components)


def build_vr(
    cloud: PointCloud | npt.NDArray[np.float64],
    max_scale: float | None = None,
) -> FilteredComplex:
    """Vietoris-Rips filtration up to dimension 2.

    Edge value is half the endpoint distance; triangle value is the max
    of its edge values. With no cap every edge and triangle is kept.

    Args:
        cloud: input points.
        max_scale: optional cap; simplices with value above it are omitted.

    Returns:
        The filtered complex, its max_scale the cap given, or inf without one.

    Raises:
        ValueError: coincident points, or a NaN or negative cap.
    """
    return _capped_complexes([_as_cloud(cloud).points], FiltrationKind.VR, max_scale)[0]


def _meb_radius_from_sides(a: npt.ArrayLike, b: npt.ArrayLike, c: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Minimum enclosing ball radius of triples given their side lengths, in any order.

    Same geometry as `geometry.enclosing_radius_3`, but fed the builder's own
    distance floats so that a triangle entering with its longest edge carries
    exactly that edge's value (the edge taxonomy compares the two for equality).
    The sides are sorted first, by exact minima and maxima, so no value depends
    on the order of a triangle's vertices. Then, elementwise: half the longest
    side when the triangle is non-acute or Heron's area underflows to zero, else
    the circumradius (never below half the longest side). Heron's product
    overflows once sides pass about 2**255, so a triangle whose middle side (at
    least half the longest, and finite) passes 2**250 has its sides scaled by an
    exact power of two of its own, and its radius scaled back; every other
    triangle is computed unscaled. An inf side, as on the coface rule's inf
    diagonal of D, gives inf.
    """
    with np.errstate(invalid="ignore"):  # an inf side makes inf - inf
        shorter, longer = np.minimum(a, b), np.maximum(a, b)
        a, b, c = np.minimum(shorter, c), np.maximum(shorter, np.minimum(longer, c)), np.maximum(longer, c)
        huge = b > 2.0**250
        exponent = np.where(huge, np.frexp(b)[1], 0) if huge.any() else None
        if exponent is not None:
            a, b, c = np.ldexp(a, -exponent), np.ldexp(b, -exponent), np.ldexp(c, -exponent)
        longest = c
        half = longest / 2.0
        # not c*c < a*a + b*b: of the corpus lattices' 576 exact right triangles that reads 142 as acute, this 73
        rest_sq = a * a + b * b + c * c - longest * longest
        s = (a + b + c) / 2.0
        area_sq = s * (s - a) * (s - b) * (s - c)
        acute = ~(longest * longest >= rest_sq) & (area_sq > 0.0)
        radius = a * b * c / (4.0 * np.sqrt(np.where(acute, area_sq, 1.0)))
        radius = np.where(acute, np.maximum(radius, half), half)
        return radius if exponent is None else np.ldexp(radius, exponent)


def build_cech(
    cloud: PointCloud | npt.NDArray[np.float64],
    max_scale: float | None = None,
) -> FilteredComplex:
    """Cech filtration up to dimension 2.

    Edge value is half the endpoint distance; triangle value is the
    radius of the triple's minimum enclosing ball, which is at least the
    largest edge value (so faces precede cofaces). Without a cap the
    complex is the full 2-skeleton and its max_scale is inf; with one,
    simplices above it are omitted, as in `build_vr`.

    Raises:
        ValueError: coincident points, or a NaN or negative cap.
    """
    return _capped_complexes([_as_cloud(cloud).points], FiltrationKind.CECH, max_scale)[0]


def _lex_smallest_triangulation(cycle: list[int]) -> list[tuple[int, int, int]]:
    """Lexicographically smallest triangulation of a convex polygon.

    `cycle` lists vertex ids in convex (cyclic) order. The smallest realizable triangle is
    the one on the three smallest ids, and picking it splits the polygon into arcs done the
    same way. So the largest id is picked last, as an ear with its two cycle neighbours, and
    clipping that ear changes no other pick: ears are clipped from the largest id down.
    """
    before, after = dict(zip(cycle, cycle[-1:] + cycle[:-1])), dict(zip(cycle, cycle[1:] + cycle[:1]))
    ranked = sorted(cycle)
    out = [tuple(ranked[:3])] if len(ranked) >= 3 else []
    for v in ranked[:2:-1]:
        a, b = before[v], after[v]
        after[a], before[b] = b, a
        out.append(tuple(sorted((a, v, b))))
    return sorted(out)


def _collinear_path_complex(points: npt.NDArray[np.float64]) -> FilteredComplex:
    """Path complex for collinear points: consecutive edges at half-length."""
    # order along the line spanned by the farthest pair
    D = _distance_matrix(points)
    if D[np.triu_indices(len(D), k=1)].min(initial=np.inf) < COINCIDENT_TOL:
        raise ValueError("coincident points are not allowed")
    i0, j0 = np.unravel_index(int(D.argmax()), D.shape)
    axis = points[j0] - points[i0]
    order = np.array(sorted(range(len(points)), key=lambda k: float(np.dot(points[k] - points[i0], axis))))
    edges = np.sort(np.stack([order[:-1], order[1:]], axis=1), axis=1)
    values = D[edges[:, 0], edges[:, 1]] / 2.0
    return FilteredComplex.from_arrays(len(points), edges, values, [], [], FiltrationKind.DELAUNAY, math.inf)


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


def _triangulation(
    points: npt.NDArray[np.float64], tris: npt.NDArray[np.intp]
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64], npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Edge adjacency of planar triangles (t, 3), read from the triangles alone.

    Returns the edges (E, 2) in key order, their half-lengths, the edge row of
    each face (3t, `_FACE_COLUMNS` order per triangle; face 3i + j is opposite
    vertex tris[i, 2 - j]) and the (m, 2) pairs of faces that share an edge, in
    either order (every use reads both), all from one sort of the face keys
    a n + b. Raises ValueError unless each edge lies in one or two triangles and
    n - E + t = 1, as in a triangulation of the hull of all n points.
    """
    n = len(points)
    faces = tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    keys = faces[:, 0] * n + faces[:, 1]
    order = np.argsort(keys)  # each edge's faces in a run
    runs = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(runs[1:], runs[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    edges, count = faces[order[starts]], np.diff(np.append(starts, len(keys)))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    euler, most = n - len(edges) + len(tris), count.max(initial=0)
    if most > 2 or euler != 1:
        raise ValueError(f"not a triangulation: n - E + t = {euler}, and an edge lies in {most} triangles")
    shared = order[np.repeat(count == 2, count)].reshape(-1, 2)
    half = _norms(points[edges[:, 0]] - points[edges[:, 1]]) / 2.0
    return edges, half, inverse, shared


def build_delaunay_2d(cloud: PointCloud | npt.NDArray[np.float64]) -> FilteredComplex:
    """Planar alpha filtration on the Delaunay triangulation.

    Triangle value = circumradius. Edge value = half-length if the edge's
    open diametral disk contains no cloud point (Gabriel edge), else the
    minimum of its incident triangles' values. Cocircular groups of 4+
    points are re-triangulated deterministically (lexicographically
    smallest triangulation of the convex polygon). All-collinear input
    degrades to the path complex with edges at half-length. Nothing is
    capped: max_scale is inf.

    After Qhull, every test reads the triangles' own edge adjacency. Flat
    simplices (|u x v| <= 8 eps max|points| max(|u|, |v|): Qhull's slivers on
    collinear hull points) are dropped; the rest must be a triangulation (each
    edge in one or two triangles, n - E + t = 1). Each circumcircle is tested
    against its neighbours' opposite vertices, by Delaunay's lemma a
    certificate for the whole; neighbours with the opposite vertex on the
    circle form cocircular groups; an edge is non-Gabriel iff an incident triangle's
    opposite vertex, or for a group's longest side another member, is inside its
    diametral disk. One sort of the 3t faces, then O(n + t) work besides sorting
    each group's k members; no n x n array off the collinear path. The edges
    leave that sort in key order, so one value sort puts them in filtration
    order; the triangles take one key sort and one value sort, and each face's
    edge row is read off the first sort. Every check of `from_arrays` runs.

    Raises:
        ValueError: ambient dimension != 2, coincident points, a Qhull failure (its first
            line), Qhull output that is not a triangulation, or a point inside a neighbour's
            circumcircle by more than the cocircular tolerance plus coordinate rounding.
    """
    # imported here so that the VR and Cech paths never load scipy.spatial
    from scipy.spatial import Delaunay, QhullError

    points = _as_cloud(cloud).points
    n = points.shape[0]
    if points.shape[1] != 2:
        raise ValueError("Delaunay implemented for the plane only")
    if n <= 2 or _all_collinear(points):
        return _collinear_path_complex(points)

    try:
        # Qhull lifts its input onto a paraboloid, so far from the origin the
        # lift loses the bits that decide the triangulation; it sees the
        # centred cloud, and every value below comes from the original points.
        tess = Delaunay(points - points.mean(axis=0))
    except QhullError as exc:
        if _all_collinear(points, tol=1e-8):
            return _collinear_path_complex(points)
        raise ValueError(str(exc).splitlines()[0]) from exc
    if len(getattr(tess, "coplanar", ())):  # a point Qhull set aside as a duplicate of another
        raise ValueError("coincident points are not allowed")

    # coordinates, and so circumcentres, round at the size of the coordinates
    rounding = 8.0 * np.finfo(np.float64).eps * float(np.abs(points).max())
    tris = np.sort(tess.simplices.astype(np.intp), axis=1)
    u, v = points[tris[:, 1]] - points[tris[:, 0]], points[tris[:, 2]] - points[tris[:, 0]]
    tris = tris[np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) > rounding * np.maximum(_norms(u), _norms(v))]
    edges, half, inverse, shared = _triangulation(points, tris)
    if 2.0 * half.min() < COINCIDENT_TOL:
        raise ValueError("coincident points are not allowed")

    centers, radii = _circumcircles(points, tris)
    tol = COCIRCULAR_TOL * np.maximum(1.0, radii)
    # each shared edge read from both sides: the triangle of one face against the opposite vertex of the other
    rows, others = shared.T.reshape(-1) // 3, shared[:, ::-1].T.reshape(-1)
    cols = tris[:, ::-1].reshape(-1)[others]
    dist = _norms(points[cols] - centers[rows])
    inside = np.flatnonzero(radii[rows] - dist > tol[rows] + rounding)
    if len(inside):
        k = min(inside.tolist(), key=lambda i: (rows[i], cols[i]))
        raise ValueError(f"not Delaunay: point {cols[k]} is inside the circumcircle of {_row(tris, rows[k])}")
    on_circle, diameters = np.abs(dist - radii[rows]) <= tol[rows], ()
    if on_circle.any():
        tris, diameters = _canonicalize_cocircular(points, tris, rows[on_circle], others[on_circle] // 3)
        edges, half, inverse, _ = _triangulation(points, tris)
        _, radii = _circumcircles(points, tris)

    tri_values = np.maximum(radii, half[inverse].reshape(-1, 3).max(axis=1))
    incident_min = np.full(len(edges), np.inf)
    np.minimum.at(incident_min, inverse, np.repeat(tri_values, 3))
    mid = (points[edges[:, 0]] + points[edges[:, 1]]) / 2.0
    blocked = _norms(points[tris[:, ::-1].reshape(-1)] - mid[inverse]) < half[inverse]
    blocked = (np.bincount(inverse[blocked], minlength=len(edges)) > 0) | np.isin(edges[:, 0] * n + edges[:, 1], diameters)
    edge_values = np.where(blocked, incident_min, half)
    cap = _checked_cap(n, math.inf)
    edge_order = _value_order(edges, edge_values, _group_keys(n, edges, edge_values, cap), np.arange(len(edges)))
    tri_keys = _group_keys(n, tris, tri_values, cap)
    tri_order = _value_order(tris, tri_values, tri_keys, np.argsort(tri_keys))
    place = np.empty_like(edge_order)
    place[edge_order] = np.arange(len(edge_order))
    cx = FilteredComplex.__new__(FilteredComplex)
    cx._store(n, edges[edge_order], edge_values[edge_order], FiltrationKind.DELAUNAY, cap)
    cx._keep_triangles(tris[tri_order], tri_values[tri_order], place[inverse.reshape(-1, 3)[tri_order]])
    return cx


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
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Replace each group of linked triangles (tris[rows[k]] with tris[cols[k]]) with its canonical triangulation.

    Neighbours are linked when one's opposite vertex is on the other's circle,
    so a connected group covers the convex polygon of one cocircular point set.
    Also returns the keys a n + b of the longest sides (a, b) with another member inside their diametral disk: a
    group's diameter, if it has one, is its longest side, and every member lies on its circle, where rounding decides.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(len(tris), len(tris)))
    _, labels = connected_components(graph, directed=False)
    linked = np.bincount(labels)[labels] >= 2
    # each group's members once, by (group, vertex), then in cycle order: by angle about the group's centroid
    keys = np.unique(labels[linked].repeat(3) * len(points) + tris[linked].ravel())
    _, group, k = np.unique(keys // len(points), return_inverse=True, return_counts=True)
    m = keys % len(points)
    rel = points[m] - np.stack([np.bincount(group, weights=points[m, c]) for c in (0, 1)], axis=1)[group] / k[group, None]
    m = m[np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), group))]
    cycles, ends = m.tolist(), np.cumsum(k).tolist()
    new = np.array([t for s, e in zip([0, *ends], ends) for t in _lex_smallest_triangulation(cycles[s:e])], dtype=np.intp)
    # per group its longest side (a, b), once per member m: k members give 3 (k - 2) sides, sorted by length
    sides = new.reshape(-1, 3)[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    by_length = np.lexsort((_norms(points[sides[:, 0]] - points[sides[:, 1]]), np.repeat(np.arange(len(k)), 3 * (k - 2))))
    a, b = sides[by_length[np.cumsum(3 * (k - 2)) - 1]].repeat(k, axis=0).T
    mid, half = (points[a] + points[b]) / 2.0, _norms(points[a] - points[b]) / 2.0  # the builder's Gabriel recipe
    inside = (m != a) & (m != b) & (_norms(points[m] - mid) < half)
    return np.concatenate([tris[~linked], new.reshape(-1, 3)]), a[inside] * len(points) + b[inside]


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


# Most stacked D entries (8 bytes each) in one group of `_complex_groups`.
_STACK = 2**16


def _complex_groups(clouds: Iterable[PointCloud | npt.ArrayLike], kind: FiltrationKind | str) -> Iterator[list[FilteredComplex]]:
    """`build_complex(cloud, kind)` of each cloud, in order and in groups of consecutive clouds of one ambient
    dimension and any sizes. A VR/Cech group shares one D stack, padded to its largest cloud, of at most _STACK
    entries (T n^2: a larger cloud is a group of one), and one coface pass. A group leaves when the next cloud cannot
    join it, or the clouds end."""
    kind, group, widest = FiltrationKind(kind), [], 0
    for cloud in map(_as_cloud, clouds):
        if group and (cloud.dim != group[0].dim or (len(group) + 1) * max(widest, len(cloud)) ** 2 > _STACK):
            yield _group(group, kind)
            group, widest = [], 0
        group.append(cloud)
        widest = max(widest, len(cloud))
    if group:
        yield _group(group, kind)


def _group(clouds: list[PointCloud], kind: FiltrationKind) -> list[FilteredComplex]:
    """One group of `_complex_groups`: lone Delaunay builds, or one VR/Cech group build."""
    if kind is FiltrationKind.DELAUNAY:
        return [build_delaunay_2d(cloud) for cloud in clouds]
    return _capped_complexes([cloud.points for cloud in clouds], kind, None)
