"""Uniform-cube sampling experiments: persistence histograms, gap ratios.

Reproducibility contract: every trial draws from
Philox(SeedSequence(entropy=master_seed, spawn_key=(n, N, trial))).
Philox is counter-based and platform-stable, and the spawn key makes each
(n, N, trial) cell independently reproducible, so growing a sweep never
changes values already emitted for other cells.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .filtration import FiltrationKind, build_complex
from .geometry import PointCloud
from .persistence import _fmt, compute_pd, gap_stats

CloudSource = Callable[[int, int, int], PointCloud]


def _require_plane_for_delaunay(kind: FiltrationKind, dims: Sequence[int]) -> None:
    if kind is FiltrationKind.DELAUNAY and any(dim != 2 for dim in dims):
        raise ValueError("the Delaunay filtration requires dim = 2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a histogram run.

    bins counts histogram bins spread over [0, max observed persistence].
    """

    n_points: int
    dim: int
    trials: int
    seed: int
    kind: FiltrationKind = FiltrationKind.VR
    bins: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FiltrationKind(self.kind))
        if self.n_points < 3:
            raise ValueError("need at least 3 points per cloud")
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.bins < 1:
            raise ValueError("need at least one histogram bin")
        _require_plane_for_delaunay(self.kind, [self.dim])


class RawRecord(NamedTuple):
    """One finite dimension-1 pair observed in one trial."""

    trial: int
    birth: float
    death: float


@dataclass(frozen=True)
class HistogramResult:
    config: ExperimentConfig
    bin_edges: tuple[float, ...]  # bins+1 edges; empty when no pairs at all
    percentages: tuple[float, ...]  # per-bin percentage of all pairs
    records: tuple[RawRecord, ...]

    def persistences(self) -> list[float]:
        return [r.death - r.birth for r in self.records]


class SweepRow(NamedTuple):
    n: int
    N: int
    median_gap_ratio: float  # nan when no trial had a defined ratio
    trials_used: int
    trials_skipped: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    provenance: dict[str, object] = field(default_factory=dict)


def derive_rng(seed: int, n: int, dim: int, trial: int) -> np.random.Generator:
    """The documented per-cell RNG: Philox keyed by (seed; n, dim, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, dim, trial))
    return np.random.Generator(np.random.Philox(ss))


def sample_uniform_cube(n: int, dim: int, rng: np.random.Generator) -> PointCloud:
    """n points with i.i.d. coordinates uniform on [0, 1]."""
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 points and dimension >= 1")
    return PointCloud(rng.random((n, dim)))


def _default_source(seed: int) -> CloudSource:
    def source(n: int, dim: int, trial: int) -> PointCloud:
        return sample_uniform_cube(n, dim, derive_rng(seed, n, dim, trial))

    return source


def persistence_histogram(
    cfg: ExperimentConfig,
    cloud_source: CloudSource | None = None,
) -> HistogramResult:
    """Aggregate dimension-1 persistences over the configured trials.

    Trials with an empty diagram contribute nothing; if no trial produces
    a pair the histogram is empty. `cloud_source` overrides the sampler
    (for injected test clouds); the default draws uniform cubes.
    """
    source = cloud_source or _default_source(cfg.seed)
    records: list[RawRecord] = []
    for trial in range(cfg.trials):
        diagram = compute_pd(build_complex(source(cfg.n_points, cfg.dim, trial), cfg.kind), 1)
        records.extend(RawRecord(trial, birth, death) for birth, death in diagram.finite_pairs)
    if not records:
        return HistogramResult(cfg, (), (), ())
    pers = [r.death - r.birth for r in records]
    counts, edges = np.histogram(pers, bins=cfg.bins, range=(0.0, max(pers)))
    percentages = counts.astype(np.float64) * (100.0 / len(pers))
    return HistogramResult(
        cfg,
        tuple(float(e) for e in edges),
        tuple(float(p) for p in percentages),
        tuple(records),
    )


def gap_ratio_sweep(
    n_range: Sequence[int],
    dim_range: Sequence[int],
    trials: int,
    seed: int,
    kind: FiltrationKind | str = FiltrationKind.VR,
    cloud_source: CloudSource | None = None,
) -> SweepResult:
    """Median gap ratio per (n, dim) cell.

    A trial counts only when its diagram has at least 3 finite pairs
    (two gaps); others are recorded as skipped. The median over zero used
    trials is nan. The whole grid is checked before the first trial.
    """
    kind = FiltrationKind(kind)
    if not n_range or not dim_range:
        raise ValueError("ranges must be non-empty")
    if min(n_range) < 1 or min(dim_range) < 1:
        raise ValueError("need n >= 1 points and dimension >= 1")
    _require_plane_for_delaunay(kind, dim_range)
    if trials < 1:
        raise ValueError("need at least one trial")
    source = cloud_source or _default_source(seed)
    rows = []
    for n in n_range:
        for dim in dim_range:
            ratios, skipped = [], 0
            for trial in range(trials):
                diagram = compute_pd(build_complex(source(n, dim, trial), kind), 1)
                try:
                    ratios.append(gap_stats(diagram).ratio)
                except ValueError:  # fewer than 3 finite pairs
                    skipped += 1
            median = statistics.median(ratios) if ratios else math.nan
            rows.append(SweepRow(n, dim, median, len(ratios), skipped))
    provenance = {
        "n_range": list(n_range),
        "dim_range": list(dim_range),
        "trials": trials,
        "seed": seed,
        "kind": kind.value,
    }
    return SweepResult(tuple(rows), provenance)


def histogram_csv(result: HistogramResult) -> str:
    """CSV rows bin_lo,bin_hi,percent (header included)."""
    lines = ["bin_lo,bin_hi,percent"]
    for lo, hi, pct in zip(result.bin_edges, result.bin_edges[1:], result.percentages):
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{_fmt(pct)}")
    return "\n".join(lines) + "\n"


def raw_csv(result: HistogramResult) -> str:
    """CSV rows n,N,trial,birth,death for every observed pair."""
    lines = ["n,N,trial,birth,death"]
    for rec in result.records:
        lines.append(
            f"{result.config.n_points},{result.config.dim},{rec.trial},"
            f"{_fmt(rec.birth)},{_fmt(rec.death)}"
        )
    return "\n".join(lines) + "\n"


def sweep_csv(result: SweepResult) -> str:
    """CSV rows n,N,median_gap_ratio,used,skipped."""
    lines = ["n,N,median_gap_ratio,used,skipped"]
    for row in result.rows:
        lines.append(
            f"{row.n},{row.N},{_fmt(row.median_gap_ratio)},"
            f"{row.trials_used},{row.trials_skipped}"
        )
    return "\n".join(lines) + "\n"
