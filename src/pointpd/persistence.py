"""Persistence diagrams by union-find and cohomology over GF(2), plus metrics.

Dim 1 reduces the coboundary matrix, which has the boundary matrix's pairs
(de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011), with two shortcuts from Bauer,
"Ripser" (J. Appl. Comput. Topol. 2021): clearing and apparent pairs. The
coface pass marks the apparent pairs in numpy, and the other columns are
heaps of row heads, read only up to their pivots. When a column waits for a
row, every waiting column moves on with the rows at hand, and one call
computes all the rows they lack. When every column is apparent, as in a tail
or a long wedge, no pivot table is built and no row is fetched.

The bottleneck distance is the smallest candidate threshold (0, an L-inf
distance between two points or a half-persistence) with a perfect matching
of the diagonal-augmented graph. The diagonal blocks are complete, so by
Mendelsohn-Dulmage each test splits into two matchings of the sparse
point-to-point graph, each covering the points of one diagram that are too
far from the diagonal. A point is forced only below its half-persistence,
so a test uses only pairs nearer than that: birth windows over the
diagrams' sorted points find them once, with no m x k matrix. The exact
lower bound is a candidate and is tested first. When it fails, thresholds
doubling away from it bracket the answer, and only the candidates inside
the bracket are sorted and bisected. Each test is one maximum matching by
scipy's Hopcroft-Karp, in O(E sqrt V), which loads scipy.sparse.csgraph at
the first test. diagram_equal is `==` at tol 0, and above it uses the same
test on unequal diagrams.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Generator, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .filtration import FilteredComplex, build_vr
from .geometry import PointCloud

Pair = tuple[float, float]


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs in one homology dimension.

    Zero-persistence pairs are never stored, and death = inf marks a class
    alive at the cap of the complex. The pairs are kept sorted, so `==` and
    `hash` mean the same multiset in the same dimension.
    """

    dim: int
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if self.dim not in (0, 1):
            raise ValueError("only dimensions 0 and 1 are supported")
        cleaned = []
        for birth, death in self.pairs:
            birth = float(birth)
            death = float(death)
            if not math.isfinite(birth):
                raise ValueError(f"birth must be finite, got ({birth}, {death})")
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
    return PersistenceDiagram(0, tuple(pairs))


def _dim1(complex: FilteredComplex) -> Generator[list[int] | PersistenceDiagram, list[tuple], None]:
    """`compute_pd(complex, 1)`, yielding the edges whose rows it lacks, sent their rows, and the diagram last. The
    pivot table is built, and rows are asked for, only when some column is not apparent."""
    merges, cofaces = complex._components.merges, complex._cofaces
    born = np.flatnonzero(~merges)[::-1]  # the cycle-closing edges, youngest first
    apparent, deaths = cofaces.apparent[born], cofaces.oldest_values[born]
    others = np.flatnonzero(~apparent).tolist()  # the other columns, by position in born
    # pivot triangle id -> its column: an apparent edge, whose column is its row, or a reduced column's heap
    pivots = born[apparent] if others else born[:0]
    columns: dict[int, int | list[tuple]] = dict(zip(cofaces.oldest_ids[pivots].tolist(), pivots.tolist()))
    heaps: dict[int, list[tuple]] = {at: [] for at in others}
    need: dict[int, int | list[tuple]] = {at: int(born[at]) for at in others}  # column -> what it adds next
    # a column's first pivot is its oldest coface, so the first call also brings the apparent rows there
    first = [columns[t] for t in cofaces.oldest_ids[born[others]].tolist() if t in columns]
    first = list(dict.fromkeys([*need.values(), *first]))
    rows = dict(zip(first, (yield first))) if first else {}

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
    yield PersistenceDiagram(1, tuple(pairs))


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


def _saturates(starts: npt.NDArray[np.intp], cols: npt.NDArray[np.intp], n_right: int) -> bool:
    """True iff some matching covers every row; row u's columns are cols[starts[u]:starts[u + 1]].

    scipy's Hopcroft-Karp (SIAM J. Comput. 1973), imported here because a
    module-level scipy.sparse import would add to every `import pointpd`.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    graph = csr_array((np.ones(len(cols), dtype=bool), cols, starts), shape=(len(starts) - 1, n_right))
    return bool((maximum_bipartite_matching(graph, perm_type="column") >= 0).all())


def _stack(d1: PersistenceDiagram, d2: PersistenceDiagram) -> tuple[npt.NDArray[np.float64], int, list[float], list[float]]:
    """Both diagrams' finite points as one (m + k, 2) array with d1's m first, m, and each diagram's infinite bars'
    births. A diagram keeps its pairs sorted, so each part of the array is sorted by birth, and so are the births."""
    n1, pairs = len(d1.pairs), chain(d1.pairs, d2.pairs)
    pts = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * (n1 + len(d2.pairs))).reshape(-1, 2)
    infinite = np.isinf(pts[:, 1])
    inf1, inf2 = pts[:n1][infinite[:n1], 0].tolist(), pts[n1:][infinite[n1:], 0].tolist()
    return pts[~infinite], n1 - len(inf1), inf1, inf2


# Birth-window entries scanned at once by _near, which bounds its temporaries.
_WINDOW_BLOCK = 1 << 16
# The bracket's first step above the lower bound covers 1 / _BRACKET_STEPS of the way to the largest half-persistence.
_BRACKET_STEPS = 256


class _Near(NamedTuple):
    """Pairs of points of two diagrams, by row: rows index one diagram, cols the other, cost is their L-inf distance."""

    rows: npt.NDArray[np.intp]
    cols: npt.NDArray[np.intp]
    cost: npt.NDArray[np.float64]


def _near(pts: npt.NDArray[np.float64], m: int, radius: npt.NDArray[np.float64]) -> tuple[_Near, _Near]:
    """Each point's partners in the other diagram nearer than its radius in L-inf.

    pts stacks two diagrams' points, the first m one's, each part sorted by
    birth. Returns the pairs (i, j) with the second's point j within
    radius[i] of the first's point i, by i, and the pairs (j, i) with i
    within radius[m + j] of j, by j. The distance is `max(|db|, |dd|)`, the
    same float in either order. A partner's birth gap is below the radius
    too, and rounding is monotone, so the partner lies in the window
    [b - r, b + r] of the other diagram's births as computed in floats: no
    margin is needed. Both sides' windows are scanned together, about
    _WINDOW_BLOCK entries at a time.
    """
    b, d = pts.T
    lo, hi = b - radius, b + radius
    # the first diagram's points look among pts[m:], the second's among pts[:m]
    start = np.concatenate([b[m:].searchsorted(lo[:m]) + m, b[:m].searchsorted(lo[m:])])
    stop = np.concatenate([b[m:].searchsorted(hi[:m], "right") + m, b[:m].searchsorted(hi[m:], "right")])
    ends = np.zeros(len(pts) + 1, dtype=np.intp)  # point u's window is entries ends[u]:ends[u + 1] of the scan
    np.cumsum(stop - start, out=ends[1:])
    shift = start - ends[:-1]
    cuts = [0, len(pts)]
    if ends[-1] > _WINDOW_BLOCK:
        cuts[1:1] = ends.searchsorted(np.arange(_WINDOW_BLOCK, ends[-1], _WINDOW_BLOCK)).tolist()
    parts = []
    for r0, r1 in zip(cuts, cuts[1:]):
        n = stop[r0:r1] - start[r0:r1]
        pos = shift[r0:r1].repeat(n)
        pos += np.arange(ends[r0], ends[r1])
        cost = np.maximum(np.abs(b[r0:r1].repeat(n) - b[pos]), np.abs(d[r0:r1].repeat(n) - d[pos]))
        at = np.flatnonzero(cost < radius[r0:r1].repeat(n))
        parts.append((ends.searchsorted(at + ends[r0], "right") - 1, pos[at], cost[at]))
    rows, cols, cost = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    cut = int(rows.searchsorted(m))
    return _Near(rows[:cut], cols[:cut] - m, cost[:cut]), _Near(rows[cut:] - m, cols[cut:], cost[cut:])


def _cover_test(near: _Near, forced: npt.NDArray[np.bool_], delta: float, n_right: int) -> bool:
    """Can every forced row be matched to a distinct column within delta?

    `near` must hold every pair within delta of a forced row, by row.
    """
    use = forced[near.rows] & (near.cost <= delta)
    starts = np.zeros(np.count_nonzero(forced) + 1, dtype=np.intp)
    np.cumsum(np.bincount(near.rows[use], minlength=len(forced))[forced], out=starts[1:])
    return _saturates(starts, near.cols[use], n_right)


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
    diagonal, and another covers every such point of d2. A point is forced
    only below its half-persistence, so every edge a test can use is one
    of the pairs nearer than the forced point's half-persistence: those
    are found once, by birth windows (Kerber, Morozov & Nigmetov, ACM JEA
    2017), and each test filters them. Feasibility changes only at those
    pairs' distances and at half-persistences, so the answer is one of
    them: the same float as over all candidates. Feasibility is monotone
    and fails below the largest point-wise lower bound, itself a
    candidate; that bound is tested first and is the answer on nearby
    diagrams. When it fails, thresholds doubling away from it bracket the
    answer, and only the candidates inside the bracket are sorted and
    bisected. Each test is one maximum matching by scipy's Hopcroft-Karp.
    """
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    pts, m, inf1, inf2 = _stack(d1, d2)
    if len(inf1) != len(inf2):
        return math.inf
    floor = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)
    if len(pts) == 0:
        return floor
    k, half = len(pts) - m, (pts[:, 1] - pts[:, 0]) / 2.0
    near1, near2 = _near(pts, m, half)
    sides = [(near1, half[:m], k), (near2, half[m:], m)]
    # each point goes to the diagonal or to its nearest partner at best
    best = half.copy()
    np.minimum.at(best, near1.rows, near1.cost)
    np.minimum.at(best, near2.rows + m, near2.cost)
    lower = float(best.max())

    def feasible(delta: float) -> bool:
        return all(_cover_test(near, part > delta, delta, n_right) for near, part, n_right in sides)

    if feasible(lower):
        return max(floor, lower)
    top = float(half.max())  # nothing is forced at top: feasible
    lo, step = lower, (top - lower) / _BRACKET_STEPS
    hi = min(lower + step, top)
    while hi < top and not feasible(hi):
        lo, step = hi, 2.0 * step
        hi = min(lower + step, top)
    # the tests left lie in (lo, hi]: they use only the pairs within hi of a row forced above lo
    for at, (near, part, n_right) in enumerate(sides):
        use = np.flatnonzero((part[near.rows] > lo) & (near.cost <= hi))
        sides[at] = _Near(near.rows[use], near.cols[use], near.cost[use]), part, n_right
    values = np.concatenate([sides[0][0].cost, sides[1][0].cost, half])
    candidates = np.unique(values[(values > lo) & (values <= hi)])  # the largest is feasible as hi is
    i, j = 0, len(candidates) - 1
    while i < j:
        mid = (i + j) // 2
        if feasible(float(candidates[mid])):
            j = mid
        else:
            i = mid + 1
    return max(floor, float(candidates[i]))


def diagram_equal(d1: PersistenceDiagram, d2: PersistenceDiagram, tol: float = 0.0) -> bool:
    """True iff the multisets match under a perfect pairing within L-inf tol.

    No diagonal matching: cardinalities must agree exactly. tol = 0 is
    `d1 == d2`; a negative or NaN tol raises ValueError. Equal diagrams
    match at any tol, so only unequal ones at tol > 0 build arrays, and only
    those whose finite parts differ run a matching.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    if d1.dim != d2.dim:
        raise ValueError("diagrams of different dimensions are not comparable")
    if d1 == d2:
        return True
    if tol == 0.0 or len(d1.pairs) != len(d2.pairs):
        return False
    pts, m, inf1, inf2 = _stack(d1, d2)
    if len(inf1) != len(inf2) or any(abs(a - b) > tol for a, b in zip(inf1, inf2)):
        return False
    if np.array_equal(pts[:m], pts[m:]):  # the finite parts are equal, sorted alike: only the infinite bars differed
        return True
    # the bottleneck feasibility test with every point forced, as no pair may go to the diagonal;
    # the pairs within tol are those nearer than the next float above it
    radius = np.repeat([math.nextafter(tol, math.inf), 0.0], [m, len(pts) - m])
    near, _ = _near(pts, m, radius)
    return _cover_test(near, np.ones(m, dtype=bool), tol, m)


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


def diagrams_to_csv(diagrams: list[PersistenceDiagram]) -> str:
    """Serialize diagrams as CSV: header dim,birth,death, rows sorted."""
    lines = ["dim,birth,death"]
    for d in sorted(diagrams, key=lambda d: d.dim):
        for birth, death in d.pairs:
            lines.append(f"{d.dim},{birth!r},{death!r}")
    return "\n".join(lines) + "\n"


def diagrams_from_csv(text: str) -> list[PersistenceDiagram]:
    """Parse the CSV produced by diagrams_to_csv."""
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
    return [PersistenceDiagram(dim, tuple(pairs)) for dim, pairs in sorted(by_dim.items())]
