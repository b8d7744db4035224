import json
import math

import numpy as np
import pytest

from pointpd.cli import main
from pointpd.cloudfile import read_cloud

SQUARE_TEXT = "0 0\n1 0\n0 1\n1 1\n"
TRIANGLE_TEXT = "0 0\n-3 0\n0 -4\n"
SEGMENT_TEXT = "0 0\n1 0\n"


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


@pytest.fixture
def segment(tmp_path):
    path = tmp_path / "segment.txt"
    path.write_text(SEGMENT_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestPd:
    def test_square_dim1_golden(self, capsys, square):
        code, out, _ = run(capsys, ["pd", square])
        assert code == 0
        assert out == "dim,birth,death\n1,0.5,0.7071067811865476\n"

    def test_square_dim0_golden(self, capsys, square):
        code, out, _ = run(capsys, ["pd", square, "--dim", "0"])
        assert code == 0
        assert out.splitlines() == [
            "dim,birth,death",
            "0,0.0,0.5",
            "0,0.0,0.5",
            "0,0.0,0.5",
            "0,0.0,inf",
        ]

    def test_trivial_diagram_is_header_only(self, capsys, triangle):
        code, out, _ = run(capsys, ["pd", triangle, "--kind", "cech"])
        assert code == 0
        assert out == "dim,birth,death\n"

    def test_max_scale_leaves_cycle_open(self, capsys, square):
        code, out, _ = run(capsys, ["pd", square, "--max-scale", "0.6"])
        assert code == 0
        assert out.splitlines()[1] == "1,0.5,inf"

    def test_max_scale_rejected_for_delaunay(self, capsys, square):
        code, _, err = run(
            capsys, ["pd", square, "--kind", "delaunay", "--max-scale", "1.0"]
        )
        assert code == 2
        assert "cap" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["pd", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "cannot read file" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\noops 1\n")
        code, _, err = run(capsys, ["pd", str(path)])
        assert code == 2
        assert "bad.txt:2" in err

    @pytest.mark.parametrize("cap", ["nan", "-1"])
    def test_nan_or_negative_cap_rejected(self, capsys, square, cap):
        code, out, err = run(capsys, ["pd", square, "--dim", "0", f"--max-scale={cap}"])
        assert code == 2
        assert out == ""
        assert "max_scale must be a nonnegative number" in err

    @pytest.mark.parametrize("cap", ["inf", "0"])
    def test_infinite_and_zero_caps_accepted(self, capsys, square, cap):
        code, out, _ = run(capsys, ["pd", square, "--dim", "0", "--max-scale", cap])
        assert code == 0
        assert out.splitlines()[0] == "dim,birth,death"

    def test_cech_dim1_ignores_point_order(self, capsys, tmp_path):
        points = np.random.default_rng(3).random((30, 3))
        outs = []
        for name, cloud in (("cloud.txt", points), ("reversed.txt", points[::-1])):
            path = tmp_path / name
            path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in cloud.tolist()))
            code, out, _ = run(capsys, ["pd", str(path), "--kind", "cech", "--dim", "1"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) > 1

    def test_unknown_flag(self, capsys, square):
        code, _, err = run(capsys, ["pd", square, "--frobnicate"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2


class TestClassify:
    def test_square_vr_golden(self, capsys, square):
        code, out, _ = run(capsys, ["classify", square])
        assert code == 0
        assert out.splitlines() == [
            "p,q,length,class",
            "0,1,1.0,Medium",
            "0,2,1.0,Medium",
            "1,3,1.0,Medium",
            "2,3,1.0,Medium",
            "0,3,1.4142135623730951,Long",
            "1,2,1.4142135623730951,Long",
        ]

    def test_square_delaunay_keeps_one_diagonal(self, capsys, square):
        code, out, _ = run(capsys, ["classify", square, "--kind", "delaunay"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "1,2,1.4142135623730951,Long"

    def test_segment_is_short(self, capsys, segment):
        code, out, _ = run(capsys, ["classify", segment])
        assert code == 0
        assert out.splitlines()[1] == "0,1,1.0,Short"


class TestMakeTail:
    def test_default_tail_passes(self, capsys):
        code, out, _ = run(capsys, ["make-tail", "--n", "6", "--seed", "3"])
        assert code == 0
        report = last_json(out)
        assert report["command"] == "make-tail"
        assert report["n"] == 6
        assert report["dim"] == 2
        assert report["kind"] == "vr"
        assert report["tail_ok"] is True
        assert report["pd1_empty"] is True
        assert report["class_violations"] == 0
        assert report["classes"]["Short"] == 5
        assert report["classes"]["Medium"] == 0
        assert report["classes"]["Long"] == 10
        assert 0.0 <= report["theta"] <= 0.2
        assert report["omega"] < math.pi / 4

    def test_three_dimensional_tail(self, capsys):
        code, out, _ = run(
            capsys,
            ["make-tail", "--n", "4", "--dim", "3", "--kind", "cech",
             "--direction", "0,0,1", "--vertex", "1,1,1", "--seed", "2"],
        )
        assert code == 0
        assert last_json(out)["dim"] == 3

    def test_writes_cloud(self, capsys, tmp_path):
        out_path = tmp_path / "tail.txt"
        code, _, _ = run(
            capsys, ["make-tail", "--n", "5", "--out", str(out_path)]
        )
        assert code == 0
        assert read_cloud(out_path).n_points == 5

    def test_cone_domain_enforced(self, capsys):
        code, _, err = run(capsys, ["make-tail", "--n", "4", "--cone", "0.8"])
        assert code == 2
        code, _, err = run(capsys, ["make-tail", "--n", "4", "--cone", "-0.1"])
        assert code == 2

    def test_dim_mismatch(self, capsys):
        code, _, err = run(
            capsys, ["make-tail", "--n", "4", "--dim", "3", "--vertex", "0,0"]
        )
        assert code == 2
        assert "must match" in err

    def test_direction_dim_mismatch(self, capsys):
        code, out, err = run(
            capsys, ["make-tail", "--n", "4", "--dim", "2", "--direction", "1,0,0"]
        )
        assert code == 2
        assert out == ""
        assert "direction must match dimension 2, got 3 coordinates" in err

    def test_zero_direction_rejected(self, capsys):
        code, _, _ = run(
            capsys, ["make-tail", "--n", "4", "--direction", "0,0"]
        )
        assert code == 2

    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_non_finite_spacing_rejected(self, capsys, spacing):
        code, out, err = run(capsys, ["make-tail", "--n", "4", "--spacing-max", spacing])
        assert code == 2
        assert out == ""
        assert "spacing_max must be finite" in err


class TestAttach:
    def test_outward_attachment_verifies(self, capsys, square, tmp_path):
        out_path = tmp_path / "union.txt"
        code, out, _ = run(
            capsys,
            ["attach", square, "--vertex-index", "0", "--direction=-1,-1",
             "--n", "4", "--cone", "0.05", "--out", str(out_path)],
        )
        assert code == 0
        report = last_json(out)
        assert report["hypothesis_ok"] is True
        assert report["mu"] == pytest.approx(3 * math.pi / 4)
        assert report["pd1_empty"] is True
        assert report["union_equals_base_plus_tail"] is True
        assert report["union_equals_base"] is True
        assert read_cloud(out_path).n_points == 4 + 4 - 1

    def test_inward_attachment_exits_3(self, capsys, square):
        code, out, err = run(
            capsys,
            ["attach", square, "--vertex-index", "0", "--direction", "1,1",
             "--n", "4", "--cone", "0.05"],
        )
        assert code == 3
        assert "mu >= theta + pi/2 violated" in err
        report = last_json(out)
        assert report["hypothesis_ok"] is False

    def test_vertex_index_out_of_range(self, capsys, square):
        code, _, err = run(
            capsys,
            ["attach", square, "--vertex-index", "9", "--direction=-1,0",
             "--n", "3"],
        )
        assert code == 2
        assert "out of range" in err

    def test_direction_dimension_mismatch(self, capsys, square):
        code, out, err = run(
            capsys,
            ["attach", square, "--vertex-index", "0", "--direction", "1,0,0",
             "--n", "3"],
        )
        assert code == 2
        assert out == ""
        assert "direction must match dimension 2, got 3 coordinates" in err

    @pytest.mark.parametrize("direction, code", [("-1,-1", 0), ("1,1", 3)])
    def test_one_attachment_per_run(self, capsys, square, monkeypatch, direction, code):
        from pointpd import constructions

        calls = []

        def counted(name):
            real = getattr(constructions, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("attach_tail", "min_ray_angle"):
            monkeypatch.setattr(constructions, name, counted(name))
        got, _, _ = run(
            capsys,
            ["attach", square, "--vertex-index", "0", f"--direction={direction}",
             "--n", "4", "--cone", "0.05"],
        )
        assert got == code
        assert sorted(calls) == ["attach_tail", "min_ray_angle"]

    def test_single_point_tail(self, capsys, square, tmp_path):
        # a one-point tail has no chords: omega and theta are 0 and the union is the cloud
        out_path = tmp_path / "union.txt"
        code, out, _ = run(
            capsys,
            ["attach", square, "--vertex-index", "0", "--direction=-1,-1",
             "--n", "1", "--out", str(out_path)],
        )
        assert code == 0
        report = last_json(out)
        assert (report["omega"], report["theta"]) == (0.0, 0.0)
        assert report["hypothesis_ok"] is True
        assert read_cloud(out_path).n_points == 4


    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_non_finite_spacing_rejected(self, capsys, square, spacing):
        code, out, err = run(
            capsys,
            ["attach", square, "--vertex-index", "0", "--direction=-1,-1",
             "--n", "4", "--spacing-max", spacing],
        )
        assert code == 2
        assert out == ""
        assert "spacing_max must be finite" in err


class TestVerifyWedge:
    def test_long_wedge_passes(self, capsys, square, triangle):
        code, out, _ = run(capsys, ["verify-wedge", triangle, square])
        assert code == 0
        report = last_json(out)
        assert report["is_long_wedge"] is True
        assert report["pd_union_ok"] is True
        assert report["offending_edges"] == []
        assert report["components"] == 2

    def test_narrow_wedge_fails(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 0\n1 0\n")
        b.write_text(f"0 0\n0.5 {math.sqrt(3) / 2}\n")
        code, out, _ = run(capsys, ["verify-wedge", str(a), str(b)])
        assert code == 3
        report = last_json(out)
        assert report["is_long_wedge"] is False
        assert report["offending_edges"]

    def test_negative_tolerance_rejected(self, capsys, square):
        code, out, err = run(capsys, ["verify-wedge", square, "--tol=-1"])
        assert code == 2
        assert out == ""
        assert "tol must be a nonnegative number" in err

    def test_disjoint_components_rejected(self, capsys, square, tmp_path):
        far = tmp_path / "far.txt"
        far.write_text("9 9\n10 9\n")
        code, _, err = run(capsys, ["verify-wedge", square, str(far)])
        assert code == 2
        assert "common point" in err


class TestFamily:
    def test_grows_and_writes_variants(self, capsys, segment, tmp_path):
        out_dir = tmp_path / "fam"
        code, out, _ = run(
            capsys,
            ["family", "--base", segment,
             "--tail", "vertex=0;n=3;cone=0.05;seed=1;direction=-1,0",
             "--variants", "2", "--out-dir", str(out_dir)],
        )
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 3
        assert lines[0]["variant"] == 0
        assert lines[0]["n_points"] == 4
        assert lines[0]["file"] == "variant_00.txt"
        assert lines[-1] == {
            "command": "family",
            "variants": 2,
            "distinct_distance_multisets": True,
        }
        for k in range(2):
            assert read_cloud(out_dir / f"variant_{k:02d}.txt").n_points == 4

    def test_default_direction_is_first_axis(self, capsys, segment):
        # +x from vertex 1 of the segment points away from the cloud
        code, out, _ = run(
            capsys,
            ["family", "--base", segment, "--tail", "vertex=1;n=3;seed=2"],
        )
        assert code == 0

    def test_inward_tail_exits_3(self, capsys, segment):
        # +x from vertex 0 runs straight into the other point
        code, _, err = run(
            capsys,
            ["family", "--base", segment, "--tail", "vertex=0;n=3;seed=2"],
        )
        assert code == 3
        assert "violated" in err

    def test_tail_spec_validation(self, capsys, segment):
        code, _, _ = run(
            capsys, ["family", "--base", segment, "--tail", "n=3"]
        )
        assert code == 2  # vertex= missing
        code, _, _ = run(
            capsys, ["family", "--base", segment, "--tail", "vertex=0;n=3;bogus=1"]
        )
        assert code == 2

    @pytest.mark.parametrize("field", ["cone=2", "cone=-1", "direction=0,0", "n=abc", "smin=x"])
    def test_bad_tail_field_exits_2(self, capsys, segment, field):
        code, out, err = run(
            capsys, ["family", "--base", segment, "--tail", f"vertex=1;n=3;{field}"]
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "--tail" in err

    @pytest.mark.parametrize("smax", ["nan", "inf"])
    def test_non_finite_spacing_rejected(self, capsys, segment, smax):
        code, out, err = run(
            capsys, ["family", "--base", segment, "--tail", f"vertex=1;n=3;smax={smax}"]
        )
        assert code == 2
        assert out == ""
        assert "spacing_max must be finite" in err

    @pytest.mark.parametrize("tail", [[], ["--tail", "vertex=1;n=3;seed=2"]])
    @pytest.mark.parametrize("variants", ["0", "-3"])
    def test_variants_below_one_rejected(self, capsys, segment, tmp_path, tail, variants):
        out_dir = tmp_path / "fam"
        code, out, err = run(
            capsys,
            ["family", "--base", segment, *tail, "--variants", variants, "--out-dir", str(out_dir)],
        )
        assert code == 2
        assert out == ""
        assert "variants must be at least 1" in err
        assert not out_dir.exists()

    def test_direction_dim_mismatch(self, capsys, segment):
        code, out, err = run(
            capsys,
            ["family", "--base", segment, "--tail", "vertex=0;n=3;direction=-1,0,0"],
        )
        assert code == 2
        assert out == ""
        assert "direction must match dimension 2, got 3 coordinates" in err

    def test_base_with_cycle_rejected(self, capsys, square):
        code, _, err = run(
            capsys,
            ["family", "--base", square, "--tail", "vertex=0;n=3;direction=-1,-1"],
        )
        assert code == 2
        assert "empty dimension-1" in err


class TestExperimentHist:
    def test_writes_files_and_summary(self, capsys, tmp_path):
        out = tmp_path / "hist"
        code, stdout, _ = run(
            capsys,
            ["experiment", "hist", "--n", "8", "--N", "2", "--trials", "5",
             "--seed", "11", "--bins", "10", "--out", str(out)],
        )
        assert code == 0
        report = last_json(stdout)
        assert report["files"] == ["config.json", "histogram.csv", "raw.csv"]
        config = json.loads((out / "config.json").read_text())
        assert config == {
            "command": "experiment-hist",
            "n": 8, "N": 2, "trials": 5, "seed": 11, "bins": 10, "kind": "vr",
        }
        hist_lines = (out / "histogram.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_lo,bin_hi,percent"
        assert len(hist_lines) == 11
        raw_lines = (out / "raw.csv").read_text().splitlines()
        assert raw_lines[0] == "n,N,trial,birth,death"
        assert len(raw_lines) - 1 == report["records"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ["experiment", "hist", "--n", "8", "--N", "2", "--trials", "4",
                "--seed", "7", "--out"]
        run(capsys, argv + [str(tmp_path / "a")])
        run(capsys, argv + [str(tmp_path / "b")])
        for name in ("config.json", "histogram.csv", "raw.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_delaunay_requires_plane(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["experiment", "hist", "--n", "8", "--N", "3", "--trials", "2",
             "--kind", "delaunay", "--out", str(tmp_path / "x")],
        )
        assert code == 2


class TestExperimentSweep:
    def test_grid_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        code, stdout, _ = run(
            capsys,
            ["experiment", "sweep", "--n", "3:5", "--N", "2:3", "--trials", "3",
             "--seed", "1", "--out", str(out)],
        )
        assert code == 0
        assert last_json(stdout)["rows"] == 6
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,N,median_gap_ratio,used,skipped"
        assert len(lines) == 7
        assert lines[1].startswith("3,2,")
        config = json.loads((out / "config.json").read_text())
        assert config["n_range"] == [3, 4, 5]
        assert config["N_range"] == [2, 3]

    def test_range_with_step(self, capsys, tmp_path):
        out = tmp_path / "sweep2"
        code, stdout, _ = run(
            capsys,
            ["experiment", "sweep", "--n", "4:8:2", "--N", "2", "--trials", "2",
             "--seed", "1", "--out", str(out)],
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["4", "6", "8"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ["experiment", "sweep", "--n", "10", "--N", "2", "--trials", "3",
                "--seed", "5", "--out"]
        run(capsys, argv + [str(tmp_path / "a")])
        run(capsys, argv + [str(tmp_path / "b")])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_delaunay_off_the_plane_rejected_up_front(self, capsys, tmp_path):
        code, stdout, err = run(
            capsys,
            ["experiment", "sweep", "--n", "3", "--N", "2:3", "--trials", "2",
             "--kind", "delaunay", "--out", str(tmp_path / "x")],
        )
        assert (code, stdout) == (2, "")
        assert "the Delaunay filtration requires dim = 2" in err
        assert not (tmp_path / "x").exists()

    def test_bad_range_syntax(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["experiment", "sweep", "--n", "5:3", "--N", "2", "--trials", "2",
             "--out", str(tmp_path / "x")],
        )
        assert code == 2
        code, _, _ = run(
            capsys,
            ["experiment", "sweep", "--n", "a:b", "--N", "2", "--trials", "2",
             "--out", str(tmp_path / "x")],
        )
        assert code == 2
