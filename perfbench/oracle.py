"""Rank oracle: exact degree-0/1 diagrams from persistent Betti numbers.

The same method as the rank oracle of the test suite, restated on this
benchmark's own complex so the benchmark does not break when the package's
complex type changes. The complex is rebuilt here from the coordinates and
the diagram comes from GF(2) ranks of boundary submatrices, not from column
reduction, so it shares no algorithm with the package. Cost grows fast with
n; the harness runs it untimed on clouds of at most 25 points.
"""

from __future__ import annotations

import math

import numpy as np

from checks import distances, meb_radius, triples


def _rank_profile(cols: list[int], groups: list[int], row_mask: int) -> list[int]:
    """Rank of the first groups[g] columns, restricted to row_mask, for each g."""
    basis: dict[int, int] = {}
    out = []
    rank = 0
    start = 0
    for end in groups:
        for col in cols[start:end]:
            col &= row_mask
            while col:
                low = col.bit_length() - 1
                if low not in basis:
                    basis[low] = col
                    rank += 1
                    break
                col ^= basis[low]
        out.append(rank)
        start = end
    return out


def _components_after(n: int, edges: list[tuple[int, int]]) -> list[int]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    out = []
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
        out.append(count)
    return out


def oracle_diagrams(points: np.ndarray, kind: str) -> dict[int, tuple[list[tuple[float, float]], list[float]]]:
    """{dim: (finite pairs, births of infinite bars)} of the full complex.

    `kind` is vr or cech. beta(b, t) = dim Z1(K_b) - dim(Z1(K_b) & B1(T_t))
    with K_b the edges up to value b and T_t the triangles up to value t; the
    second term is rank(D2 on T_t) minus its rank on rows entering after b.
    Bar multiplicities follow by inclusion-exclusion over consecutive values.
    """
    n = len(points)
    D = distances(points)
    iu, ju = np.triu_indices(n, k=1)
    evals = D[iu, ju] / 2.0
    eorder = np.lexsort((ju, iu, evals))
    edges = [(int(iu[e]), int(ju[e])) for e in eorder]
    evals = [float(evals[e]) for e in eorder]
    row = {edge: r for r, edge in enumerate(edges)}

    ti, tj, tk = triples(n)
    if kind == "vr":
        tvals = np.maximum(np.maximum(D[ti, tj], D[ti, tk]), D[tj, tk]) / 2.0
    else:
        tvals = meb_radius(D[tj, tk], D[ti, tk], D[ti, tj])
    torder = np.lexsort((tk, tj, ti, tvals))
    cols = []
    tv = []
    for t in torder:
        a, b, c = int(ti[t]), int(tj[t]), int(tk[t])
        cols.append((1 << row[(a, b)]) | (1 << row[(a, c)]) | (1 << row[(b, c)]))
        tv.append(float(tvals[t]))

    comps = _components_after(n, edges)
    dim0 = ([(0.0, v) for v, before, after in zip(evals, [n] + comps, comps) if after < before], [0.0] * comps[-1])

    # distinct edge values: index g covers edges[:e_end[g]]
    e_vals, e_end = _groups(evals)
    t_vals, t_end = _groups(tv)
    full_rows = (1 << len(edges)) - 1
    full = _rank_profile(cols, t_end, full_rows)
    # restricted[g][h]: rank of the first t_end[h] columns on rows after e_end[g]
    restricted = [_rank_profile(cols, t_end, full_rows & ~((1 << end) - 1)) for end in e_end]
    cycles = [end - (n - comps[end - 1]) for end in e_end]

    def beta(g: int, h: int) -> int:
        if g < 0:
            return 0
        bound = 0 if h < 0 else full[h] - restricted[g][h]
        return cycles[g] - bound

    finite = []
    for g, b in enumerate(e_vals):
        for h, d in enumerate(t_vals):
            if d <= b:
                continue
            mu = beta(g, h - 1) - beta(g, h) - beta(g - 1, h - 1) + beta(g - 1, h)
            finite.extend([(b, d)] * mu)
    last = len(t_vals) - 1
    infinite = []
    for g, b in enumerate(e_vals):
        infinite.extend([b] * (beta(g, last) - beta(g - 1, last)))
    return {0: dim0, 1: (finite, infinite)}


def _groups(values: list[float]) -> tuple[list[float], list[int]]:
    distinct: list[float] = []
    ends: list[int] = []
    for idx, v in enumerate(values):
        if distinct and v == distinct[-1]:
            ends[-1] = idx + 1
        else:
            distinct.append(v)
            ends.append(idx + 1)
    return distinct, ends


def matches(pairs: list[tuple[float, float]], want: tuple[list[tuple[float, float]], list[float]], tol: float = 1e-9) -> bool:
    """The program's pairs equal the oracle's multiset within tol."""
    want_fin, want_inf = want
    got_fin = sorted((b, d) for b, d in pairs if math.isfinite(d))
    got_inf = sorted(b for b, d in pairs if not math.isfinite(d))
    want_fin = sorted(want_fin)
    want_inf = sorted(want_inf)
    if len(got_fin) != len(want_fin) or len(got_inf) != len(want_inf):
        return False
    fin_ok = all(abs(gb - wb) <= tol and abs(gd - wd) <= tol for (gb, gd), (wb, wd) in zip(got_fin, want_fin))
    return fin_ok and all(abs(g - w) <= tol for g, w in zip(got_inf, want_inf))
