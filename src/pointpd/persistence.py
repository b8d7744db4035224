"""Persistence diagrams by union-find and cohomology over GF(2), plus metrics.

Dim 1 reduces the coboundary matrix, which has the boundary matrix's pairs
(de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011), with two shortcuts from Bauer,
"Ripser" (J. Appl. Comput. Topol. 2021): clearing and apparent pairs. The
coface pass marks the apparent pairs in numpy, and the other columns are
heaps of row heads, read only up to their pivots. When a column waits for a
row, every waiting column moves on with the rows at hand, and one call
computes all the rows they lack.

The bottleneck distance is the smallest candidate threshold (0, an L-inf
distance between two points or a half-persistence) with a perfect matching
of the diagonal-augmented graph. The exact lower bound is a candidate and is
tested first; only when it fails are the candidates sorted and bisected.
The diagonal blocks are complete, so by Mendelsohn-Dulmage each test splits
into two matchings of the sparse point-to-point graph, each covering the
points of one diagram that are too far from the diagonal. One O(mk)
comparison gives a test's neighbour lists, with no row sort, and an
iterative Hopcroft-Karp matcher, with no recursion limit, checks them in
O(E sqrt V). diagram_equal with a tolerance uses the same test.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Generator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np
import numpy.typing as npt

from .filtration import FilteredComplex, build_vr
from .geometry import PointCloud

Pair = tuple[float, float]


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs in one homology dimension.

    Zero-persistence pairs are never stored. `truncation_scale` echoes the
    cap of the complex the diagram came from (None when unknown, e.g.
    after deserialization); death = inf marks classes alive at that cap.
    """

    dim: int
    pairs: tuple[Pair, ...]
    truncation_scale: float | None = None

    def __post_init__(self) -> None:
        if self.dim not in (0, 1):
            raise ValueError("only dimensions 0 and 1 are supported")
        cleaned = []
        for birth, death in self.pairs:
            birth = float(birth)
            death = float(death)
            if not death > birth:
                raise ValueError(f"death must exceed birth, got ({birth}, {death})")
            cleaned.append((birth, death))
        cleaned.sort()
        object.__setattr__(self, "pairs", tuple(cleaned))

    @property
    def finite_pairs(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if math.isfinite(p[1]))

    @property
    def infinite_pairs(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if math.isinf(p[1]))

    def persistences(self) -> list[float]:
        """Sorted death - birth over the finite pairs."""
        return sorted(d - b for b, d in self.finite_pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GapStats:
    """Widest and second-widest consecutive gap of sorted persistences."""

    gap1: float
    gap2: float
    ratio: float
    persistences: tuple[float, ...]


def compute_pd(complex: FilteredComplex, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the complex in dimension 0 or 1.

    Both dimensions read the merges of the complex's union-find pass.
    Dim 0: an edge that joins two components is a death, and each
    component left at the cap is an infinite bar. Dim 1: cohomology over
    the cycle-closing edges, youngest first, with the merge edges cleared.
    An edge that is the youngest facet of its oldest coface pairs with it
    unbuilt (an apparent pair, marked by the coface pass; off ties, every
    Long edge does so at zero persistence). The other columns are reduced;
    one that reduces to zero is a class alive at the cap (death = inf).
    Zero-persistence pairs are dropped.
    """
    if dim not in (0, 1):
        raise ValueError("only dimensions 0 and 1 are supported")
    if dim == 1:
        return _dim1_diagrams([complex])[0]
    merges, _, components = complex._components
    deaths = complex.edge_values[merges].tolist()
    pairs = [(0.0, value) for value in deaths if value > 0.0]
    pairs.extend((0.0, math.inf) for _ in range(components))
    return PersistenceDiagram(0, tuple(pairs), complex.max_scale)


def _dim1(complex: FilteredComplex) -> Generator[list[int] | PersistenceDiagram, list[tuple], None]:
    """`compute_pd(complex, 1)`, yielding the edges whose rows it lacks, sent their rows, and the diagram last."""
    merges, cofaces = complex._components.merges, complex._cofaces
    born = np.flatnonzero(~merges)[::-1]  # the cycle-closing edges, youngest first
    apparent, deaths = cofaces.apparent[born], cofaces.oldest_values[born]
    # pivot triangle id -> its column: an apparent edge, whose column is its row, or a reduced column's heap
    columns: dict[int, int | list[tuple]] = dict(zip(cofaces.oldest_ids[born[apparent]].tolist(), born[apparent].tolist()))
    others = np.flatnonzero(~apparent).tolist()  # the other columns, by position in born
    heaps: dict[int, list[tuple]] = {at: [] for at in others}
    need: dict[int, int | list[tuple]] = {at: int(born[at]) for at in others}  # column -> what it adds next
    # a column's first pivot is its oldest coface, so the first call also brings the apparent rows there
    first = [columns[t] for t in cofaces.oldest_ids[born[others]].tolist() if t in columns]
    first = list(dict.fromkeys([*need.values(), *first]))
    rows = dict(zip(first, (yield first)))

    def settle(at: int) -> None:
        """Add to a column what its pivot meets while the rows are at hand; a missing row stays in `need`."""
        heap, other = heaps[at], need.pop(at)
        while not (isinstance(other, int) and other not in rows):
            if isinstance(other, int):  # a row from its first entry
                values, ids = rows[other]
                other = [(values[0], ids[0], other, 0)] if values else []
            for entry in other:
                heapq.heappush(heap, entry)
            head = _pivot(heap, rows)
            if not head or head[1] not in columns:
                return
            other = columns[head[1]]
        need[at] = other

    for at in others:  # youngest first, so a column's pivot is final once no registered column has it
        heap = heaps[at]
        if heap and heap[0][1] in columns:
            need[at] = columns[heap[0][1]]
        while at in need:  # let every waiting column move on, then ask for the rows they wait for at once
            for waiting in list(need):
                settle(waiting)
            missing = [edge for edge in dict.fromkeys(need.values()) if edge not in rows]
            rows.update(zip(missing, (yield missing)))
        if heap:
            columns[heap[0][1]] = heap
        deaths[at] = heap[0][0] if heap else math.inf
    births = complex.edge_values[born]
    pairs = zip(births[deaths > births].tolist(), deaths[deaths > births].tolist())
    yield PersistenceDiagram(1, tuple(pairs), complex.max_scale)


def _dim1_diagrams(complexes: Sequence[FilteredComplex]) -> list[PersistenceDiagram]:
    """`compute_pd(cx, 1)` of each complex. The reductions on one `rows` source (complexes built as one group share
    theirs) run in lock step: each round sends every waiting one the rows it asked for, fetched in one call."""
    reductions, diagrams, sources = [_dim1(cx) for cx in complexes], [None] * len(complexes), {}
    for k, cx in enumerate(complexes):
        sources.setdefault(cx._cofaces.rows, []).append((k, cx._cofaces.offset, None))  # (reduction, offset, rows sent)
    for rows, waiting in sources.items():
        while waiting:
            asks, edges = [], []
            for k, offset, got in waiting:  # a reduction's last yield is its diagram, the others ask for rows
                diagrams[k] = reductions[k].send(got)
                if isinstance(diagrams[k], list):
                    asks.append((k, offset))
                    edges += map(offset.__add__, diagrams[k])
            got = iter(rows(edges) if asks else ())
            waiting = [(k, offset, list(islice(got, len(diagrams[k])))) for k, offset in asks]
    return diagrams


def _pivot(heap: list[tuple], rows: dict[int, tuple[list[float], list[int]]]) -> tuple | None:
    """The least head of a column, or None when it is zero. A column is a heap of heads (value, id, edge,
    position in the edge's row) and the sum of its heads' rows, each from its head on. Equal least heads
    cancel in pairs over GF(2), each moving to its row's next entry, so a row is read only up to the pivot."""
    while len(heap) > 1:
        top, second = heap[0], heap[1] if len(heap) == 2 or heap[1] < heap[2] else heap[2]
        if top[1] != second[1]:  # a triangle's id fixes its value
            return top
        for _ in range(2):
            _, _, edge, pos = heap[0]
            values, ids = rows[edge]
            if pos + 1 < len(values):
                heapq.heapreplace(heap, (values[pos + 1], ids[pos + 1], edge, pos + 1))
            else:
                heapq.heappop(heap)
    return heap[0] if heap else None


def mst(cloud: PointCloud | npt.NDArray[np.float64]) -> list[tuple[tuple[int, int], float]]:
    """Euclidean minimum spanning tree: the merge edges of the uncapped VR complex.

    Ties are broken by lexicographic edge order, so the result is
    deterministic. Returns ((i, j), length) in acceptance order; a length
    is twice the edge's value, the distance by the builders' recipe, so
    the dim-0 deaths are exactly half the lengths.

    Raises:
        ValueError: coincident points, as in every builder.
    """
    cx = build_vr(cloud)
    merges = cx._components.merges
    return list(zip(map(tuple, cx.edge_vertices[merges].tolist()), (2.0 * cx.edge_values[merges]).tolist()))


def _saturates(adj: list[list[int]], n_right: int) -> bool:
    """True iff some matching covers every left vertex; adj[u] lists u's right neighbours.

    Hopcroft-Karp (SIAM J. Comput. 1973) seeded by a greedy pass that takes
    each vertex's first free neighbour. The depth-first search keeps its own
    stack, so no recursion limit applies at any diagram size.
    """
    mate_left = [-1] * len(adj)
    mate_right = [-1] * n_right
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if mate_right[v] < 0:
                mate_left[u], mate_right[v] = v, u
                break
    free = [u for u, v in enumerate(mate_left) if v < 0]
    while free:
        # layers of the alternating paths from the free left vertices
        layer = [-1] * len(adj)
        for u in free:
            layer[u] = 0
        queue, found = list(free), False
        for u in queue:
            for v in adj[u]:
                w = mate_right[v]
                if w < 0:
                    found = True
                elif layer[w] < 0:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if not found:
            return False
        # augment along layer-increasing paths; nxt[u] is u's next untried neighbour
        nxt = [0] * len(adj)
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                if nxt[u] == len(adj[u]):
                    layer[u] = -1  # no augmenting path through u in this phase
                    stack.pop()
                    continue
                v = adj[u][nxt[u]]
                nxt[u] += 1
                w = mate_right[v]
                if w < 0:
                    for x in stack:
                        y = adj[x][nxt[x] - 1]
                        mate_left[x], mate_right[y] = y, x
                    break
                if layer[w] == layer[u] + 1:
                    stack.append(w)
        free = [u for u in free if mate_left[u] < 0]
    return True


def _linf_matrix(a: npt.NDArray[np.float64], b: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """L-inf distances between the (birth, death) rows of a and those of b."""
    return np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))


def _finite_array(diagram: PersistenceDiagram) -> npt.NDArray[np.float64]:
    return np.array(diagram.finite_pairs, dtype=np.float64).reshape(-1, 2)


def _cover_test(cost: npt.NDArray[np.float64], half: npt.NDArray[np.float64], delta: float) -> bool:
    """Can every row with half > delta be matched to a distinct column within delta?

    The neighbour lists come from one comparison of the forced rows against
    delta, in column order; whether a full matching exists does not depend
    on the order its neighbours are tried in.
    """
    forced = half > delta
    rows, cols = np.nonzero(cost[forced] <= delta)
    flat, ends = cols.tolist(), np.cumsum(np.bincount(rows, minlength=int(forced.sum()))).tolist()
    return _saturates([flat[s:e] for s, e in zip([0, *ends], ends)], cost.shape[1])


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance between two diagrams of the same dimension.

    Finite points may match each other or their diagonal projection;
    infinite bars must match each other (count mismatch gives +inf, and
    matched infinite bars contribute their birth difference).

    The answer is the smallest candidate (0, an L-inf distance between two
    points, or a point's half-persistence) at which a perfect matching of
    the diagonal-augmented graph exists. The diagonal blocks are complete,
    so by Mendelsohn-Dulmage a threshold is feasible iff a matching of the
    point-to-point graph covers every point of d1 farther than it from the
    diagonal, and another covers every such point of d2. Feasibility is
    monotone and fails below the largest point-wise lower bound, itself a
    candidate; that bound is tested first, as pruning by geometry before
    matching (Efrat, Itai & Katz, Algorithmica 2001; Kerber, Morozov &
    Nigmetov, ACM JEA 2017) makes it the answer on nearby diagrams. Only
    when it fails are the candidates sorted and bisected above it.
    """
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    inf1 = sorted(b for b, _ in d1.infinite_pairs)
    inf2 = sorted(b for b, _ in d2.infinite_pairs)
    if len(inf1) != len(inf2):
        return math.inf
    floor = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)

    pts1, pts2 = _finite_array(d1), _finite_array(d2)
    if len(pts1) == 0 and len(pts2) == 0:
        return floor
    cost = _linf_matrix(pts1, pts2)
    half1 = (pts1[:, 1] - pts1[:, 0]) / 2.0
    half2 = (pts2[:, 1] - pts2[:, 0]) / 2.0
    # each point goes to the diagonal or to its nearest partner at best
    lower = float(max(
        np.minimum(half1, cost.min(axis=1, initial=math.inf)).max(initial=0.0),
        np.minimum(half2, cost.min(axis=0, initial=math.inf)).max(initial=0.0),
    ))

    def feasible(delta: float) -> bool:
        return _cover_test(cost, half1, delta) and _cover_test(cost.T, half2, delta)

    if feasible(lower):
        return max(floor, lower)
    candidates = np.unique(np.concatenate([[0.0], cost.ravel(), half1, half2]))
    lo, hi = int(np.searchsorted(candidates, lower)) + 1, len(candidates) - 1  # the largest is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return max(floor, float(candidates[lo]))


def diagram_equal(d1: PersistenceDiagram, d2: PersistenceDiagram, tol: float = 0.0) -> bool:
    """True iff the multisets match under a perfect pairing within L-inf tol.

    No diagonal matching: cardinalities must agree exactly. tol = 0 is
    exact multiset equality; a negative or NaN tol raises ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    if len(d1.pairs) != len(d2.pairs):
        return False
    inf1 = sorted(b for b, _ in d1.infinite_pairs)
    inf2 = sorted(b for b, _ in d2.infinite_pairs)
    if len(inf1) != len(inf2):
        return False
    if any(abs(a - b) > tol for a, b in zip(inf1, inf2)):
        return False
    if tol == 0.0:
        return sorted(d1.finite_pairs) == sorted(d2.finite_pairs)
    # the bottleneck feasibility test with every point forced, as no pair may go to the diagonal
    cost = _linf_matrix(_finite_array(d1), _finite_array(d2))
    return _cover_test(cost, np.full(len(cost), math.inf), tol)


def gap_stats(diagram: PersistenceDiagram) -> GapStats:
    """Widest-gap statistics of a dimension-1 diagram's finite persistences.

    Raises:
        ValueError: diagram not 1-dimensional, fewer than 2 finite pairs
            ("gap ratio undefined"), or exactly 2 ("second gap undefined").
    """
    if diagram.dim != 1:
        raise ValueError("gap statistics are defined for dimension-1 diagrams")
    pers = diagram.persistences()
    if len(pers) < 2:
        raise ValueError("gap ratio undefined: need at least 2 finite pairs")
    gaps = sorted((b - a for a, b in zip(pers, pers[1:])), reverse=True)
    if len(gaps) < 2:
        raise ValueError("second gap undefined: need at least 3 finite pairs")
    gap1, gap2 = gaps[0], gaps[1]
    ratio = math.inf if gap2 == 0.0 else gap1 / gap2
    return GapStats(gap1, gap2, ratio, tuple(pers))


def _fmt(x: float) -> str:
    """A CSV float: repr, or `inf` / `nan`."""
    if math.isnan(x):
        return "nan"
    return "inf" if math.isinf(x) else repr(x)


def diagrams_to_csv(diagrams: list[PersistenceDiagram]) -> str:
    """Serialize diagrams as CSV: header dim,birth,death, rows sorted."""
    lines = ["dim,birth,death"]
    for d in sorted(diagrams, key=lambda d: d.dim):
        for birth, death in d.pairs:
            lines.append(f"{d.dim},{_fmt(birth)},{_fmt(death)}")
    return "\n".join(lines) + "\n"


def diagrams_from_csv(text: str) -> list[PersistenceDiagram]:
    """Parse the CSV produced by diagrams_to_csv (truncation unknown)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "dim,birth,death":
        raise ValueError("missing dim,birth,death header")
    by_dim: dict[int, list[Pair]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed diagram row: {ln!r}")
        dim = int(parts[0])
        by_dim.setdefault(dim, []).append((float(parts[1]), float(parts[2])))
    return [
        PersistenceDiagram(dim, tuple(pairs), None)
        for dim, pairs in sorted(by_dim.items())
    ]
