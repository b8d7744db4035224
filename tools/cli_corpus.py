"""Byte-identity corpus for the pointpd command line.

Writes fixed, seeded clouds to a temporary directory, runs
`pointpd.cli.main` in-process on a fixed list of command lines from inside
that directory, and prints one line per stdout and per output file:

    <sha256> <exit code> <argv>            (stdout)
    <sha256> <exit code> <argv> -> <path>  (a file the command wrote)

Paths are relative to the temporary directory, so two runs print the same
lines exactly when every stdout, output file and exit code is the same.
An exception escaping `main` is recorded as exit code 1, as the console
script would exit. Stderr is not compared.

    python tools/cli_corpus.py [--quick] [--src DIR] > corpus.txt

`--src` imports pointpd from another source tree (default: this
checkout's `src`), so comparing two trees is one `diff` of two outputs.
`--quick` runs a small slice in about a second; the Tier-1 suite runs it
twice and asserts identical lines. Uncapped VR/Čech commands run on every
cloud of up to 200 points: those complexes keep all C(n, 3) triangles, but
only implicitly, so n = 200 costs a fraction of a second. The clouds of 300
and 600 points get capped commands only. Two uniform clouds in 8 and 12
dimensions and a 9-dimensional `experiment hist` cell cover clouds of 8 or
more coordinates, where numpy's own sum would go pairwise: the builders and
`classify` sum every length one coordinate at a time. `huge.txt`, a cloud
of coordinates near 1e200, gets one `pd --kind delaunay`, which Qhull
cannot triangulate (exit 2); its VR/Čech distances overflow with a
RuntimeWarning, so it gets no other command. The `verify-wedge` lines on
the `arm*` clouds are the only ones whose verdict needs a matching: their
union and combined diagrams differ but have equal pair counts, and each
runs at one `--tol` on each side of the verdict. Each also runs at
`--tol 0`, where the comparison is `==` and needs no matching, as does
one wedge that holds (`seg_a.txt ray_b.txt`). `right3.txt`, a right
isosceles triangle, gets `pd --dim 1` in each kind and a Čech `classify`:
its Čech diagram holds a bar that exact arithmetic would not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# clouds with more points than this get capped VR/Čech commands only
LARGE = 200
CAPS = (None, 0.2, 0.35)

# small hand-made clouds for the construction commands
FIXED_CLOUDS = {
    "square.txt": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "triangle.txt": [[0, 0], [-3, 0], [0, -4]],
    "segment.txt": [[0, 0], [1, 0]],
    "seg_a.txt": [[0, 0], [1, 0]],
    "seg_b.txt": [[0, 0], [0.5, math.sqrt(3.0) / 2.0]],
    "ray_b.txt": [[0, 0], [0, 5]],
    "ray_c.txt": [[0, 0], [-5, -0.1]],
    "far.txt": [[9, 9], [10, 9]],
    "twice.txt": [[0, 0], [0.5e-12, 0], [0, 1]],
    "meet_b.txt": [[0, 0], [0, 1], [-1, -1]],
    "meet_c.txt": [[0, 0], [-1, -1], [0, -1]],
    "huge.txt": [[1e200, 0], [-1e200, 0], [0, 1e200]],
    "right3.txt": [[0, 0], [3, 3], [3, 0]],
}

# (kind, seed, a --tol on each side of the verdict) for verify-wedge on the arms of _wedge_arms(seed): the union's
# degree-1 diagram has as many pairs as the two arms' together but differs from them, by less than the first tol
# and more than the second, so only a matching decides pd_union_ok
WEDGE_ARMS = [
    ("cech", 20, ("0.01", "0.005")),
    ("cech", 87, ("0.002", "0.001")),
    ("cech", 97, ("0.2", "0.1")),
    ("cech", 110, ("0.3", "0.2")),
    ("vr", 455, ("0.4", "0.3")),
]


def _grid(nx: int, ny: int, angle: float = 0.0) -> np.ndarray:
    points = np.array([[x, y] for x in range(nx) for y in range(ny)], dtype=np.float64)
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, -s], [s, c]]).T


def _wedge_arms(seed: int) -> dict[str, np.ndarray]:
    """Two 4-point arms that share the origin, the second turned by a random angle, by file name."""
    rng = np.random.default_rng(seed)
    first = np.array([[0.0, 0.0], *(rng.random((3, 2)) + [0.2, 0.0])])
    angle = rng.uniform(0.3, 2.5)
    c, s = math.cos(angle), math.sin(angle)
    second = np.array([[0.0, 0.0], *((rng.random((3, 2)) + [0.2, 0.0]) @ np.array([[c, -s], [s, c]]).T)])
    return {f"arm{seed}_a.txt": first, f"arm{seed}_b.txt": second}


def _lattice(seed: int) -> np.ndarray:
    """Distinct points of a small integer lattice: distances tie often."""
    rng = np.random.default_rng(1000 + seed)
    dim = 2 if seed % 2 == 0 else 3
    n = 6 + seed
    cells = np.array(np.meshgrid(*[np.arange(4)] * dim, indexing="ij")).reshape(dim, -1).T
    return cells[np.sort(rng.choice(len(cells), size=n, replace=False))].astype(np.float64)


def clouds(quick: bool = False) -> dict[str, np.ndarray]:
    """The corpus clouds by file name; the quick slice keeps three small clouds and the 5x5 grid."""
    out: dict[str, np.ndarray] = {}
    for seed in range(24):
        rng = np.random.default_rng(seed)
        out[f"small{seed:02d}.txt"] = rng.random((5 + seed % 12, 2 if seed % 3 else 3))
    out["grid.txt"] = _grid(5, 5)
    out["grid_rot.txt"] = _grid(5, 5, 0.3)
    out["grid_shift.txt"] = _grid(6, 5) + 1e6
    out["grid_scale.txt"] = _grid(6, 5) * 1e5
    rng = np.random.default_rng(48)
    out["blobs.txt"] = np.concatenate([rng.normal(0.0, 0.05, (12, 2)), rng.normal(1.0, 0.05, (12, 2))])
    out["blobs3.txt"] = np.concatenate([rng.normal(0.0, 0.1, (10, 3)), rng.normal(0.8, 0.1, (10, 3))])
    # 8 and 12 dimensions: numpy would sum their squares pairwise, every length here sums them in order
    for n, dim in ((60, 2), (97, 2), (110, 2), (64, 3), (85, 3), (200, 2), (200, 3), (40, 8), (40, 12)):
        out[f"uniform{n}_{dim}d.txt"] = np.random.default_rng(n + dim).random((n, dim))
    for n in (150, 300, 600):
        # unit density, so the capped complexes stay small
        out[f"large{n}.txt"] = np.random.default_rng(n).random((n, 2)) * math.sqrt(n)
    for seed in range(10):
        out[f"lattice{seed}.txt"] = _lattice(seed)
    # one cocircular group of 40 points: every Delaunay circumcircle passes through all of them
    angles = 2.0 * math.pi * np.arange(40) / 40
    out["polygon40.txt"] = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if quick:
        return dict(list(out.items())[:3] + [("grid.txt", out["grid.txt"])])
    return out


def _cloud_text(points: np.ndarray) -> str:
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in points)


def commands(cloud_points: dict[str, np.ndarray]) -> list[tuple[list[str], list[str]]]:
    """(argv, output paths) for every corpus command."""
    runs: list[tuple[list[str], list[str]]] = []
    for name, points in cloud_points.items():
        n, dim = points.shape
        for kind in ("vr", "cech"):
            for cap in CAPS if n <= LARGE else CAPS[1:]:
                flags = ["--kind", kind] + ([] if cap is None else ["--max-scale", repr(cap)])
                runs += [(["pd", name, "--dim", "0"] + flags, []), (["pd", name, "--dim", "1"] + flags, [])]
                runs.append((["classify", name] + flags, []))
        if dim == 2:
            flags = ["--kind", "delaunay"]
            runs += [(["pd", name, "--dim", d] + flags, []) for d in ("0", "1")]
            runs.append((["classify", name] + flags, []))

    runs.append((["pd", "huge.txt", "--dim", "1", "--kind", "delaunay"], []))
    for cap in ("nan", "-1", "inf", "0"):
        runs += [(["pd", "square.txt", "--dim", "0", f"--max-scale={cap}"], []),
                 (["classify", "square.txt", "--kind", "cech", f"--max-scale={cap}"], [])]

    for k, (extra, kind) in enumerate([
        (["--n", "8", "--seed", "3"], "vr"),
        (["--n", "6", "--seed", "4", "--dim", "3"], "cech"),
        (["--n", "7", "--seed", "5", "--cone", "0.05", "--direction=-1,1"], "delaunay"),
        (["--n", "5", "--seed", "6", "--spacing-min", "0.2", "--spacing-max", "0.3"], "vr"),
        (["--n", "1"], "cech"),
        (["--n", "4", "--cone", "0.9"], "vr"),
        (["--n", "4", "--dim", "2", "--direction", "1,0,0"], "vr"),
    ]):
        runs.append((["make-tail", "--kind", kind, "--out", f"tail{k}.txt"] + extra, [f"tail{k}.txt"]))

    for k, (extra, kind) in enumerate([
        (["--vertex-index", "0", "--direction=-1,-1", "--n", "5", "--seed", "2"], "vr"),
        (["--vertex-index", "3", "--direction", "1,1", "--n", "6", "--seed", "7", "--cone", "0.1"], "cech"),
        (["--vertex-index", "0", "--direction=-1,-1", "--n", "4", "--seed", "1"], "delaunay"),
        (["--vertex-index", "0", "--direction", "1,1", "--n", "4"], "vr"),
        (["--vertex-index", "9", "--direction", "1,0", "--n", "4"], "vr"),
        (["--vertex-index", "0", "--direction=-1,-1", "--n", "1"], "vr"),
        (["--vertex-index", "0", "--direction", "1,0,0", "--n", "3"], "vr"),
    ]):
        runs.append((["attach", "square.txt", "--kind", kind, "--out", f"union{k}.txt"] + extra, [f"union{k}.txt"]))

    for files, extra in [
        (["triangle.txt", "square.txt"], []),
        (["triangle.txt", "square.txt"], ["--kind", "cech"]),
        (["seg_a.txt", "seg_b.txt"], []),
        (["seg_a.txt", "ray_b.txt", "ray_c.txt"], []),
        (["square.txt"], []),
        (["square.txt", "far.txt"], []),
        (["seg_a.txt", "twice.txt"], []),
        (["seg_a.txt", "ray_b.txt", "meet_b.txt", "meet_c.txt"], []),
        (["triangle.txt", "square.txt"], ["--tol=-1"]),
        # two make-tail outputs that share their origin: three cross edges are not Long
        (["tail0.txt", "tail3.txt"], []),
        (["tail0.txt", "tail3.txt"], ["--kind", "cech"]),
    ]:
        runs.append((["verify-wedge", *files] + extra, []))
    for kind, seed, tols in WEDGE_ARMS:
        runs += [(["verify-wedge", *_wedge_arms(seed), "--kind", kind, "--tol", tol], []) for tol in tols]
    # --tol 0 compares the diagrams by ==: five failed identities (exit 3) and one that holds (exit 0)
    runs += [(["verify-wedge", *_wedge_arms(seed), "--kind", kind, "--tol", "0"], []) for kind, seed, _ in WEDGE_ARMS]
    runs.append((["verify-wedge", "seg_a.txt", "ray_b.txt", "--tol", "0"], []))

    for k, (tails, extra) in enumerate([
        (["vertex=0;n=3;cone=0.05;seed=1;direction=-1,0"], ["--variants", "2"]),
        (["vertex=1;n=4;seed=2;smin=0.7;smax=0.9"], []),
        (["vertex=0;n=3;seed=3;direction=-1,0", "vertex=1;n=3;seed=4"], ["--variants", "3", "--kind", "cech"]),
        (["vertex=0;n=3;seed=2"], []),
        (["vertex=1;n=5;cone=2"], []),
        (["vertex=1;n=5;cone=-1"], []),
        (["vertex=1;n=5;direction=0,0"], []),
        (["vertex=1;n=abc"], []),
        (["vertex=1;n=5;smin=x"], []),
        (["n=3"], []),
        (["vertex=0;n=3;direction=-1,0,0"], []),
    ]):
        argv = ["family", "--base", "segment.txt", "--out-dir", f"family{k}"] + extra
        for tail in tails:
            argv += ["--tail", tail]
        variants = int(extra[extra.index("--variants") + 1]) if "--variants" in extra else 1
        runs.append((argv, [f"family{k}/variant_{v:02d}.txt" for v in range(variants)]))

    for k, kind in enumerate(("vr", "cech")):
        argv = ["experiment", "hist", "--n", "12", "--N", "2", "--trials", "6", "--seed", str(k),
                "--bins", "8", "--kind", kind, "--out", f"hist{k}"]
        runs.append((argv, [f"hist{k}/{f}" for f in ("config.json", "histogram.csv", "raw.csv")]))
        argv = ["experiment", "sweep", "--n", "8:12:2", "--N", "2:3", "--trials", "4", "--seed", str(k),
                "--kind", kind, "--out", f"sweep{k}"]
        runs.append((argv, [f"sweep{k}/{f}" for f in ("config.json", "sweep.csv")]))
    # a cell's clouds are built in groups of consecutive equal-shape clouds, up to a budget of stacked distances
    # (2**16 entries): Delaunay cells, a cell of 40 clouds of 60 points (18 to a group) and a grid of n and N
    for name, experiment, extra in [
        ("hist_delaunay", "hist", ["--n", "15", "--N", "2", "--trials", "8", "--bins", "6", "--kind", "delaunay"]),
        ("sweep_delaunay", "sweep", ["--n", "8:20:6", "--N", "2", "--trials", "6", "--kind", "delaunay"]),
        ("hist_groups", "hist", ["--n", "60", "--N", "2", "--trials", "40", "--kind", "vr"]),
        ("sweep_grid", "sweep", ["--n", "10:40:15", "--N", "2:4", "--trials", "7", "--kind", "cech"]),
        ("hist_dim9", "hist", ["--n", "30", "--N", "9", "--trials", "6", "--kind", "vr"]),
    ]:
        files = ("config.json", "histogram.csv", "raw.csv") if experiment == "hist" else ("config.json", "sweep.csv")
        argv = ["experiment", experiment, *extra, "--seed", "5", "--out", name]
        runs.append((argv, [f"{name}/{f}" for f in files]))
    # two 3D make-tail outputs of unequal sizes that share the origin, whose wedge builds its arms as one group of
    # unequal sizes; and a wedge of a 3D and a 2D cloud, rejected by name (exit 2)
    for k, extra in enumerate([["--n", "7", "--seed", "8", "--direction", "1,0,0"], ["--n", "4", "--seed", "9", "--direction=-1,1,1"]]):
        runs.append((["make-tail", "--dim", "3", "--out", f"tail3d{k}.txt"] + extra, [f"tail3d{k}.txt"]))
    runs += [(["verify-wedge", "tail3d0.txt", "tail3d1.txt", "--kind", kind], []) for kind in ("vr", "cech")]
    runs.append((["verify-wedge", "tail3d0.txt", "square.txt"], []))
    # a negative seed is rejected with the other arguments (exit 2), before any trial or output file
    runs += [(["experiment", experiment, "--n", "8", "--N", "2", "--seed", "-1", "--out", "seed_neg"], [])
             for experiment in ("hist", "sweep")]
    # a right isosceles triangle, whose Čech value rounds 3 ulps above its hypotenuse's and leaves a bar (ROADMAP
    # item 11); VR and Delaunay give no bar. They come last, so adding them moved no earlier line
    runs += [(["pd", "right3.txt", "--dim", "1", "--kind", kind], []) for kind in ("vr", "cech", "delaunay")]
    runs.append((["classify", "right3.txt", "--kind", "cech"], []))
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(quick: bool = False) -> list[str]:
    """Corpus lines; pointpd must already be importable."""
    from pointpd.cli import main

    cloud_points = clouds(quick)
    runs = commands(cloud_points)
    if quick:
        # pd and classify on the quick clouds, then the first command of each construction
        runs = [r for r in runs if r[0][1] in cloud_points] + [
            next(r for r in runs if r[0][0] == cmd)
            for cmd in ("make-tail", "attach", "verify-wedge", "family", "experiment")
        ]
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            arms = {name: points for _, seed, _ in WEDGE_ARMS for name, points in _wedge_arms(seed).items()}
            for name, points in {**FIXED_CLOUDS, **arms, **cloud_points}.items():
                Path(name).write_text(_cloud_text(np.asarray(points, dtype=np.float64)))
            for argv, outputs in runs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except Exception:  # the console script would exit 1 with a traceback
                        code = 1
                shown = " ".join(argv)
                lines.append(f"{_sha(out.getvalue().encode())} {code} {shown}")
                for path in outputs:
                    digest = _sha(Path(path).read_bytes()) if Path(path).exists() else "missing"
                    lines.append(f"{digest} {code} {shown} -> {path}")
        finally:
            os.chdir(cwd)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run the small Tier-1 slice")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import pointpd from (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for line in run_corpus(args.quick):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
