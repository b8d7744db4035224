import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest

from pointpd import filtration
from pointpd.experiments import (
    ExperimentConfig,
    RawRecord,
    _default_source,
    derive_rng,
    gap_ratio_sweep,
    histogram_csv,
    persistence_histogram,
    raw_csv,
    sample_uniform_cube,
    sweep_csv,
)
from pointpd.filtration import build_complex
from pointpd.geometry import PointCloud
from pointpd.persistence import compute_pd, gap_stats

from oracles import NEAR_EQUILATERAL, equilateral_triangles

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SQUARE_PERS = math.sqrt(2.0) / 2.0 - 0.5


def square_source(n, dim, trial):
    return SQUARE


def collinear_source(n, dim, trial):
    return PointCloud([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])


class TestDeriveRng:
    def test_reproducible(self):
        a = derive_rng(7, 10, 2, 3).random(5)
        b = derive_rng(7, 10, 2, 3).random(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("args", [(8, 10, 2, 3), (7, 11, 2, 3),
                                      (7, 10, 3, 3), (7, 10, 2, 4)])
    def test_any_key_change_diverges(self, args):
        base = derive_rng(7, 10, 2, 3).random(5)
        other = derive_rng(*args).random(5)
        assert not np.array_equal(base, other)

    def test_platform_stable_goldens(self):
        # counter-based generator: these exact doubles must never drift
        assert derive_rng(0, 10, 2, 0).random() == 0.0938311918513215
        assert derive_rng(123, 8, 3, 5).random() == 0.21181188713568622


class TestSampleUniformCube:
    def test_shape_and_range(self):
        cloud = sample_uniform_cube(50, 3, derive_rng(0, 50, 3, 0))
        assert cloud.points.shape == (50, 3)
        assert np.all(cloud.points >= 0.0)
        assert np.all(cloud.points < 1.0)

    def test_mean_converges_to_half(self):
        cloud = sample_uniform_cube(2500, 2, derive_rng(42, 2500, 2, 0))
        assert abs(float(cloud.points.mean()) - 0.5) < 0.01

    def test_rejects_bad_args(self):
        rng = derive_rng(0, 1, 1, 0)
        with pytest.raises(ValueError):
            sample_uniform_cube(0, 2, rng)
        with pytest.raises(ValueError):
            sample_uniform_cube(5, 0, rng)


class TestExperimentConfig:
    def test_accepts_kind_strings(self):
        cfg = ExperimentConfig(5, 2, 1, 0, kind="cech")
        assert cfg.kind.value == "cech"

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig(2, 2, 1, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(5, 0, 1, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(5, 2, 0, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(5, 2, 1, 0, bins=0)
        with pytest.raises(ValueError, match="Delaunay"):
            ExperimentConfig(5, 3, 1, 0, kind="delaunay")

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_rejects_a_negative_seed_by_name(self, seed):
        # numpy's SeedSequence would reject it too, but only at the first trial and naming neither field nor value
        with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
            ExperimentConfig(5, 2, 1, seed)


class TestPersistenceHistogram:
    def test_injected_square_every_trial(self):
        cfg = ExperimentConfig(4, 2, 4, 0, bins=2)
        result = persistence_histogram(cfg, cloud_source=square_source)
        assert [r.trial for r in result.records] == [0, 1, 2, 3]
        assert result.persistences() == pytest.approx([SQUARE_PERS] * 4)
        assert len(result.bin_edges) == 3
        assert result.bin_edges[0] == 0.0
        assert result.bin_edges[-1] == pytest.approx(SQUARE_PERS)
        assert sum(result.percentages) == pytest.approx(100.0)
        assert result.percentages[-1] == pytest.approx(100.0)

    def test_empty_when_no_pairs(self):
        cfg = ExperimentConfig(3, 2, 3, 0)
        result = persistence_histogram(cfg, cloud_source=collinear_source)
        assert result.records == ()
        assert result.bin_edges == ()
        assert result.percentages == ()
        assert result.persistences() == []

    def test_default_source_is_deterministic(self):
        cfg = ExperimentConfig(8, 2, 5, 11)
        a = persistence_histogram(cfg)
        b = persistence_histogram(cfg)
        assert a.records == b.records
        assert a.bin_edges == b.bin_edges
        c = persistence_histogram(ExperimentConfig(8, 2, 5, 12))
        assert a.records != c.records

    def test_rerun_gives_the_same_answer(self):
        cfg = ExperimentConfig(8, 2, 6, 11)
        a = persistence_histogram(cfg)
        b = persistence_histogram(cfg)
        assert a.records == b.records
        assert a.percentages == b.percentages

    def test_percentages_sum_to_hundred(self):
        cfg = ExperimentConfig(9, 2, 8, 5, bins=7)
        result = persistence_histogram(cfg)
        assert result.records  # 9 uniform points essentially always cycle
        assert sum(result.percentages) == pytest.approx(100.0)

    def test_persistences_respect_the_diameter_bound(self):
        # in the unit square no VR value exceeds diam/2 <= sqrt(2)/2
        cfg = ExperimentConfig(9, 2, 8, 5)
        result = persistence_histogram(cfg)
        for p in result.persistences():
            assert 0.0 < p < math.sqrt(2.0) / 2.0


class TestGapRatioSweep:
    def test_grid_shape_and_bookkeeping(self):
        result = gap_ratio_sweep([10, 12], [2, 3], 3, 7)
        assert [(r.n, r.N) for r in result.rows] == [
            (10, 2), (10, 3), (12, 2), (12, 3)
        ]
        for row in result.rows:
            assert row.trials_used + row.trials_skipped == 3
            if row.trials_used:
                assert row.median_gap_ratio >= 1.0
            else:
                assert math.isnan(row.median_gap_ratio)
        assert result.provenance["trials"] == 3
        assert result.provenance["kind"] == "vr"

    def test_all_trials_skipped_gives_nan(self):
        result = gap_ratio_sweep([4], [2], 5, 0, cloud_source=square_source)
        (row,) = result.rows
        assert row.trials_used == 0
        assert row.trials_skipped == 5
        assert math.isnan(row.median_gap_ratio)

    def test_deterministic(self):
        a = gap_ratio_sweep([12], [2], 4, 3)
        b = gap_ratio_sweep([12], [2], 4, 3)
        assert a.rows == b.rows

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gap_ratio_sweep([], [2], 3, 0)
        with pytest.raises(ValueError):
            gap_ratio_sweep([5], [], 3, 0)
        with pytest.raises(ValueError):
            gap_ratio_sweep([5], [2], 0, 0)

    @pytest.mark.parametrize(
        "n_range, dim_range, kind, message",
        [
            ([3, 4], [2, 3], "delaunay", "the Delaunay filtration requires dim = 2"),
            ([3], [1], "delaunay", "the Delaunay filtration requires dim = 2"),
            ([0, 1, 2], [2], "vr", "need n >= 1 points and dimension >= 1"),
            ([3], [0, 1], "cech", "need n >= 1 points and dimension >= 1"),
        ],
        ids=["delaunay-N3", "delaunay-N1", "n0", "N0"],
    )
    def test_rejects_grid_before_sampling(self, n_range, dim_range, kind, message):
        calls = []

        def counting_source(n: int, dim: int, trial: int) -> PointCloud:
            calls.append((n, dim, trial))
            return square_source(n, dim, trial)

        with pytest.raises(ValueError, match=re.escape(message)):
            gap_ratio_sweep(n_range, dim_range, 2, 0, kind=kind, cloud_source=counting_source)
        assert calls == []

    @pytest.mark.parametrize("source", ["default", "injected"])
    def test_rejects_a_negative_seed_before_sampling(self, source):
        calls = []

        def counting_source(n: int, dim: int, trial: int) -> PointCloud:
            calls.append((n, dim, trial))
            return square_source(n, dim, trial)

        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            gap_ratio_sweep([5, 6], [2], 2, -1, cloud_source=counting_source if source == "injected" else None)
        assert calls == []


class TestGroupedCells:
    """A cell's clouds are built in groups and reduced in lock step, with one build's results per trial."""

    @pytest.mark.parametrize("kind", ["vr", "cech"])
    def test_coincident_cloud_at_trial_3_raises(self, kind):
        def source(n, dim, trial):
            points = derive_rng(0, n, dim, trial).random((n, dim))
            if trial == 3:
                points[5] = points[2]
            return PointCloud(points)

        with pytest.raises(ValueError, match="coincident points are not allowed"):
            persistence_histogram(ExperimentConfig(8, 2, 6, 0, kind=kind), cloud_source=source)
        with pytest.raises(ValueError, match="coincident points are not allowed"):
            gap_ratio_sweep([8], [3], 6, 0, kind=kind, cloud_source=source)

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_clouds_of_varying_size_give_the_per_trial_results(self, kind):
        sizes = [8, 8, 15, 15, 15, 4, 20, 20, 8]
        seen = []

        def source(n, dim, trial):
            seen.append(trial)
            return PointCloud(derive_rng(1, sizes[trial], dim, trial).random((sizes[trial], dim)))

        result = persistence_histogram(ExperimentConfig(5, 2, len(sizes), 0, kind=kind), cloud_source=source)
        want = [RawRecord(trial, birth, death) for trial in range(len(sizes))
                for birth, death in compute_pd(build_complex(source(0, 2, trial), kind), 1).finite_pairs]
        assert seen[: len(sizes)] == list(range(len(sizes)))
        assert list(result.records) == want and len({record.trial for record in want}) >= 4

    def test_cech_cell_keeps_near_equilateral_triangles(self):
        # each triangle's value rounds a few ulps above its exact bound diam/sqrt(3): every trial's class dies at it
        clouds = [NEAR_EQUILATERAL, *equilateral_triangles(50)]
        result = persistence_histogram(
            ExperimentConfig(3, 2, len(clouds), 0, kind="cech"), cloud_source=lambda n, dim, trial: clouds[trial]
        )
        assert [record.trial for record in result.records] == list(range(len(clouds)))
        for record, points in zip(result.records, clouds):
            assert record.death == build_complex(points, "cech").triangle_values[0]

    @pytest.mark.parametrize("kind", ["vr", "cech", "delaunay"])
    def test_cells_equal_one_build_per_trial(self, kind):
        source = _default_source(21)
        result = gap_ratio_sweep([14, 23], [2], 12, 21, kind=kind)
        for row in result.rows:
            ratios = []
            for trial in range(12):
                try:
                    ratios.append(gap_stats(compute_pd(build_complex(source(row.n, 2, trial), kind), 1)).ratio)
                except ValueError:
                    pass
            assert row.trials_used == len(ratios) and ratios
            assert row.median_gap_ratio == statistics.median(ratios)

    def test_groups_stay_within_the_stack_budget(self):
        clouds = [np.random.default_rng(t).random((n, 2)) for t, n in enumerate([100] * 13 + [300, 300, 100])]
        groups = [len(g) for g in filtration._complex_groups(clouds, filtration.FiltrationKind.VR)]
        per_group = filtration._STACK // 100**2
        assert groups == [per_group, per_group, 13 - 2 * per_group, 1, 1, 1]

    def test_large_cell_keeps_a_small_peak(self):
        # the stacked stage of a 1 000-trial n = 100 VR cell: one stack of every D would hold 80 MB;
        # each group's reductions hold only that group's complexes
        source, built = _default_source(5), 0
        tracemalloc.start()
        try:
            for group in filtration._complex_groups((source(100, 2, t) for t in range(1000)), filtration.FiltrationKind.VR):
                assert group[0]._cofaces.rows is group[-1]._cofaces.rows  # one coface pass per group
                built += len(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == 1000
        assert peak < 64 * 2**20


class TestCsvWriters:
    def test_histogram_csv_golden(self):
        cfg = ExperimentConfig(4, 2, 4, 0, bins=2)
        result = persistence_histogram(cfg, cloud_source=square_source)
        lines = histogram_csv(result).splitlines()
        assert lines[0] == "bin_lo,bin_hi,percent"
        assert len(lines) == 3
        assert lines[1].startswith("0.0,")
        assert lines[1].endswith(",0.0")
        assert lines[2].endswith(",100.0")

    def test_histogram_csv_empty(self):
        cfg = ExperimentConfig(3, 2, 2, 0)
        result = persistence_histogram(cfg, cloud_source=collinear_source)
        assert histogram_csv(result) == "bin_lo,bin_hi,percent\n"

    def test_raw_csv_golden(self):
        cfg = ExperimentConfig(4, 2, 2, 0)
        result = persistence_histogram(cfg, cloud_source=square_source)
        lines = raw_csv(result).splitlines()
        assert lines[0] == "n,N,trial,birth,death"
        assert lines[1] == "4,2,0,0.5,0.7071067811865476"
        assert lines[2] == "4,2,1,0.5,0.7071067811865476"

    def test_sweep_csv_with_nan(self):
        result = gap_ratio_sweep([4], [2], 5, 0, cloud_source=square_source)
        lines = sweep_csv(result).splitlines()
        assert lines[0] == "n,N,median_gap_ratio,used,skipped"
        assert lines[1] == "4,2,nan,0,5"

    def test_sweep_csv_round_floats(self):
        result = gap_ratio_sweep([12], [2], 4, 3)
        (row,) = result.rows
        line = sweep_csv(result).splitlines()[1]
        parts = line.split(",")
        assert parts[0] == "12"
        assert parts[1] == "2"
        if not math.isnan(row.median_gap_ratio) and not math.isinf(row.median_gap_ratio):
            assert float(parts[2]) == row.median_gap_ratio
