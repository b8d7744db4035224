"""Acceptance gate: one test per criterion, each printing one verdict line.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion; `-s` additionally shows the metric lines printed on success.
"""

import json
import math
import time

import numpy as np
import pytest

from pointpd.cli import main as cli_main
from pointpd.constructions import (
    HypothesisError,
    TailSpec,
    generate_tail,
    validate_tail,
    verify_long_wedge,
    verify_tail_theorem,
)
from pointpd.edges import EdgeClass, classify_all, long_by_cech, long_by_delaunay, long_by_vr
from pointpd.experiments import ExperimentConfig, gap_ratio_sweep, persistence_histogram
from pointpd.filtration import build_complex
from pointpd.geometry import PointCloud, Ray
from pointpd.persistence import bottleneck_distance, compute_pd

from oracles import assert_diagram_matches

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _kinds_for(dim: int) -> list[str]:
    return ["vr", "cech", "delaunay"] if dim == 2 else ["vr", "cech"]


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    clouds = 0
    comparisons = 0
    for seed in range(100):
        n = 3 + seed % 6
        dim = 2 if seed % 2 == 0 else 3
        rng = np.random.default_rng(10_000 + seed)
        cloud = PointCloud(rng.random((n, dim)))
        clouds += 1
        for kind in _kinds_for(dim):
            cx = build_complex(cloud, kind)
            for pd_dim in (0, 1):
                assert_diagram_matches(compute_pd(cx, pd_dim), cx, pd_dim, tol=1e-9)
                comparisons += 1
    elapsed = time.monotonic() - start
    assert clouds >= 100
    assert elapsed < 60.0
    print(
        f"CRITERION 1: PASS — {clouds} clouds, {comparisons} diagram "
        f"comparisons against the rank oracle, {elapsed:.1f}s"
    )


def test_criterion_2_edge_class_partition_and_lemmas():
    clouds = 0
    edges_checked = 0
    disagreements = 0
    for seed in range(200):
        n = 4 + seed % 9
        dim = 2 if seed % 2 == 0 else 3
        rng = np.random.default_rng(20_000 + seed)
        cloud = PointCloud(rng.random((n, dim)))
        clouds += 1
        for kind in _kinds_for(dim):
            cx = build_complex(cloud, kind)
            classes = classify_all(cx)  # raises if any edge is short and long
            assert len(classes) == len(cx.edges)
            assert all(isinstance(c, EdgeClass) for c in classes.values())
            for (p, q), cls in classes.items():
                edges_checked += 1
                if kind == "vr":
                    if long_by_vr(cloud, p, q) and cls is not EdgeClass.LONG:
                        disagreements += 1
                elif kind == "cech":
                    if long_by_cech(cloud, p, q) and cls is not EdgeClass.LONG:
                        disagreements += 1
                else:
                    if long_by_delaunay(cloud, p, q) != (cls is EdgeClass.LONG):
                        disagreements += 1
    assert clouds >= 200
    assert disagreements == 0
    print(
        f"CRITERION 2: PASS — {clouds} clouds, {edges_checked} edge "
        f"classifications, 0 lemma disagreements"
    )


def test_criterion_3_tail_triviality():
    tails = 0
    failures = 0
    for seed in range(200):
        n = 2 + seed % 29
        dim = (2, 3, 5)[seed % 3]
        cone = 0.01 + 0.75 * (seed % 20) / 20.0
        rng = np.random.default_rng(30_000 + seed)
        direction = rng.normal(size=dim)
        ray = Ray(rng.random(dim), direction)
        tail = generate_tail(TailSpec(ray, n, 0.5, 1.5, cone, seed))
        tails += 1
        kinds = ["vr", "cech"] + (["delaunay"] if dim == 2 else [])
        for kind in kinds:
            check = validate_tail(tail, kind)
            pd1 = compute_pd(build_complex(tail, kind), 1)
            if not check.ok or len(pd1) != 0:
                failures += 1
    assert tails >= 200
    assert failures == 0
    print(f"CRITERION 3: PASS — {tails} tails across N in (2,3,5), 0 failures")


def _cone_component(rng, direction_angle, half_width, n_extra):
    """Origin plus points scattered inside a planar cone."""
    pts = [[0.0, 0.0]]
    for _ in range(n_extra):
        r = rng.uniform(0.5, 2.0)
        a = direction_angle + rng.uniform(-half_width, half_width)
        pts.append([r * math.cos(a), r * math.sin(a)])
    return PointCloud(np.asarray(pts))


def _cone_square(rng, direction_angle, side=0.25):
    """Origin plus a small square pushed out along the cone axis."""
    d = rng.uniform(1.2, 1.8)
    c, s = math.cos(direction_angle), math.sin(direction_angle)
    center = np.array([d * c, d * s])
    half = side / 2.0
    corners = np.array(
        [[-half, -half], [half, -half], [-half, half], [half, half]]
    )
    rot = np.array([[c, -s], [s, c]])
    pts = np.vstack([[0.0, 0.0], center + corners @ rot.T])
    return PointCloud(pts)


# tol 0 asks for the identities exactly: no VR/Cech verdict then needs a matching
@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_criterion_4_long_wedge_union(tol):
    wedges = 0
    failures = 0
    nonempty_components = 0
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        n_comp = 2 + seed % 2
        base_angle = rng.uniform(0.0, 2.0 * math.pi)
        step = 2.0 * math.pi / n_comp  # pi or 2pi/3: cross angles > pi/2
        components = []
        for c in range(n_comp):
            angle = base_angle + c * step
            if (seed + c) % 3 == 0:
                components.append(_cone_square(rng, angle))
            else:
                components.append(
                    _cone_component(rng, angle, 0.2, int(rng.integers(1, 5)))
                )
        wedges += 1
        if any(
            len(compute_pd(build_complex(comp, "vr"), 1)) > 0
            for comp in components
        ):
            nonempty_components += 1
        for kind in ("vr", "cech"):
            report = verify_long_wedge(components, kind, tol=tol)
            if not report.is_long_wedge or not report.pd_union_ok:
                failures += 1
    assert wedges >= 100
    assert failures == 0
    assert nonempty_components >= 25  # the identity is exercised off-empty
    print(
        f"CRITERION 4: PASS — {wedges} wedges (vr and cech), "
        f"{nonempty_components} with a nonempty component diagram, 0 failures"
    )


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_criterion_5_attachment_theorem(tol):
    instances = 0
    skipped = 0
    failures = 0
    nonempty_bases = 0
    empty_bases = 0
    seed = 0
    while instances < 100:
        seed += 1
        rng = np.random.default_rng(50_000 + seed)
        if seed % 5 == 0:
            base = SQUARE
            v = 0
            ray = Ray(base.points[v], [-1.0, -1.0])
        else:
            dim = 2 if seed % 2 == 0 else 3
            n = int(rng.integers(4, 9))
            base = PointCloud(rng.random((n, dim)))
            v = int(np.argmin(base.points[:, 0]))
            direction = np.zeros(dim)
            direction[0] = -1.0
            ray = Ray(base.points[v], direction)
        cone = 0.01 + 0.09 * rng.random()
        tail = generate_tail(TailSpec(ray, int(rng.integers(3, 11)), 0.5, 1.5, cone, seed))
        kind = "vr" if seed % 2 == 0 else "cech"
        try:
            report = verify_tail_theorem(base, v, ray, tail, kind, tol=tol)
        except HypothesisError:
            skipped += 1
            continue
        instances += 1
        if len(report.base_diagram) > 0:
            nonempty_bases += 1
        else:
            empty_bases += 1
            if len(report.union_diagram) != 0:  # corollary: empty stays empty
                failures += 1
        if not (report.tail_trivial and report.union_equals_base_plus_tail
                and report.union_equals_base):
            failures += 1
    assert instances >= 100
    assert failures == 0
    assert nonempty_bases >= 10
    assert empty_bases >= 10
    print(
        f"CRITERION 5: PASS — {instances} attachments ({skipped} hypothesis "
        f"rejections skipped), {nonempty_bases} nonempty / {empty_bases} empty "
        f"bases, 0 failures"
    )


def test_criterion_6_histogram_mass_below_tenth():
    start = time.monotonic()
    result = persistence_histogram(ExperimentConfig(10, 2, 200, 1))
    elapsed = time.monotonic() - start
    pers = result.persistences()
    assert pers
    frac = sum(1 for p in pers if p < 0.1) / len(pers)
    assert frac >= 0.60
    assert elapsed < 120.0
    print(
        f"CRITERION 6: PASS — {len(pers)} persistences, {100 * frac:.1f}% "
        f"below 0.1 (bar: 60%), {elapsed:.1f}s"
    )


def test_criterion_7_gap_ratio_window():
    start = time.monotonic()
    result = gap_ratio_sweep([40], [10], 100, 3)
    elapsed = time.monotonic() - start
    (row,) = result.rows
    assert row.trials_used + row.trials_skipped == 100
    assert row.trials_used > 0
    assert 1.0 <= row.median_gap_ratio <= 2.5
    assert elapsed < 600.0
    print(
        f"CRITERION 7: PASS — median gap ratio {row.median_gap_ratio:.3f} in "
        f"[1.0, 2.5] over {row.trials_used} trials, {elapsed:.1f}s"
    )


def test_criterion_8_perturbation_stability():
    eps = 0.01
    clouds = 0
    worst = 0.0
    for seed in range(50):
        n = 4 + seed % 7
        dim = 2 if seed % 2 == 0 else 3
        rng = np.random.default_rng(80_000 + seed)
        points = rng.random((n, dim))
        offsets = rng.normal(size=(n, dim))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        offsets *= rng.uniform(0.0, eps, size=(n, 1))
        cloud = PointCloud(points)
        moved = PointCloud(points + offsets)
        clouds += 1
        for kind in ("vr", "cech"):
            d1 = compute_pd(build_complex(cloud, kind), 1)
            d2 = compute_pd(build_complex(moved, kind), 1)
            dist = bottleneck_distance(d1, d2)
            worst = max(worst, dist)
            assert dist <= eps + 1e-9
    assert clouds >= 50
    print(
        f"CRITERION 8: PASS — {clouds} clouds, worst bottleneck shift "
        f"{worst:.5f} <= {eps + 1e-9}"
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    square = tmp_path / "square.txt"
    square.write_text("0 0\n1 0\n0 1\n1 1\n")
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("0 0\n-3 0\n0 -4\n")
    segment = tmp_path / "segment.txt"
    segment.write_text("0 0\n1 0\n")

    def command_set(root):
        root.mkdir()
        return [
            ["pd", str(square), "--kind", "cech"],
            ["classify", str(square), "--kind", "delaunay"],
            ["make-tail", "--n", "6", "--seed", "3",
             "--out", str(root / "tail.txt")],
            ["attach", str(square), "--vertex-index", "0",
             "--direction=-1,-1", "--n", "4", "--cone", "0.05",
             "--out", str(root / "union.txt")],
            ["verify-wedge", str(triangle), str(square)],
            ["family", "--base", str(segment),
             "--tail", "vertex=0;n=3;cone=0.05;seed=1;direction=-1,0",
             "--variants", "2", "--out-dir", str(root / "fam")],
            ["experiment", "hist", "--n", "8", "--N", "2", "--trials", "5",
             "--seed", "11", "--out", str(root / "hist")],
            ["experiment", "sweep", "--n", "10:12", "--N", "2", "--trials",
             "3", "--seed", "5", "--out", str(root / "sweep")],
        ]

    def run_all(root):
        outputs = []
        for argv in command_set(root):
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            # the echoed output location is the only run-specific content
            outputs.append(captured.out.replace(str(root), "<out>"))
        files = {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
        return outputs, files

    out_a, files_a = run_all(tmp_path / "a")
    out_b, files_b = run_all(tmp_path / "b")
    assert out_a == out_b
    assert list(files_a) == list(files_b)
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between reruns"
    n_files = len(files_a)
    print(
        f"CRITERION 9: PASS — 8 commands rerun, stdout identical, "
        f"{n_files} output files byte-identical"
    )
