"""The four workloads: fixed op cycles, seeded inputs, per-op checks.

Each workload is a closed loop of one caller. Its op sequence is a fixed
cycle, the same in every run; the seed only draws the clouds (and jitter,
tail seeds) for each position of each cycle. A run executes a fixed number
of whole cycles, so every commit is measured on the same ops.

Entry points are looked up on their modules at call time, so the tracer's
wrappers see the harness's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

import checks
import oracle
from checks import require

# Trials per experiment op; fixed so every op of a cell does the same work.
TRIALS = 6
# Radius of the disk each point of an alpha_stability cloud is moved within.
JITTER = 0.002
# Cone half-angle of every generated tail (radians).
CONE = 0.1


class Op(NamedTuple):
    label: str  # what the op does, for the per-label summary
    n: int  # points in the largest cloud the op builds a complex on
    spec: dict


def _rng(seed: int, tag: int, cycle: int, pos: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, cycle, pos])


def _pairs(diagram) -> list[tuple[float, float]]:
    return [(float(b), float(d)) for b, d in diagram.pairs]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from pointpd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(argv: list[str]) -> str:
    code, out, err = _cli(argv)
    if code != 0:
        raise RuntimeError(f"pointpd {argv[0]} exited {code}: {err.strip()[:200]}")
    return out


class Workload:
    name = ""
    tag = 0
    # The fixed op cycle: one entry per op.
    schedule: list = []
    # Whole cycles every run executes; sets the latency sample count.
    cycles = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One tiny op per layer this workload uses, so lazy set-up is done."""
        raise NotImplementedError

    def oracle_subset(self) -> int:
        """Untimed rank-oracle comparisons on clouds of at most 25 points."""
        raise NotImplementedError

    def _file(self, name: str, points: np.ndarray) -> str:
        path = self.work / name
        path.write_text(checks.cloud_text(points))
        return str(path)


# ----------------------------------------------------------- rips_query

# (command, homology dim or None for classify, ambient dim, kind, n):
# about half pd --dim 1, a quarter pd --dim 0, a quarter classify; 3/4
# planar; vr and cech evenly; n spread over 60..110.
RIPS_CYCLE = [
    ("pd", 1, 2, "vr", 97),
    ("classify", None, 2, "cech", 68),
    ("pd", 0, 2, "vr", 88),
    ("pd", 1, 2, "cech", 72),
    ("pd", 1, 3, "vr", 85),
    ("classify", None, 2, "vr", 101),
    ("pd", 0, 3, "cech", 64),
    ("pd", 1, 2, "cech", 60),
    ("pd", 1, 2, "vr", 110),
]


class RipsQuery(Workload):
    """In-process `pointpd pd` / `classify` calls on uniform clouds."""

    name = "rips_query"
    tag = 1
    cycles = 1
    schedule = RIPS_CYCLE

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for pos, (command, hdim, dim, kind, n) in enumerate(self.schedule):
            points = _rng(self.seed, self.tag, index, pos).random((n, dim))
            path = self._file(f"c{index}_{pos}.txt", points)
            argv = [command, path, "--kind", kind] + (["--dim", str(hdim)] if hdim is not None else [])
            label = f"pd{hdim}" if command == "pd" else "classify"
            ops.append(Op(f"{label}.{kind}", n, {"argv": argv, "points": points, "kind": kind, "hdim": hdim}))
        return ops

    def run(self, op: Op) -> str:
        return _cli_ok(op.spec["argv"])

    def check(self, op: Op, output: str) -> None:
        s = op.spec
        if s["hdim"] is None:
            checks.check_classes(s["points"], s["kind"], checks.parse_classify_csv(output))
            return
        rows = checks.parse_pd_csv(output)
        require(all(d == s["hdim"] for d, _, _ in rows), "pd printed a row of another dimension")
        pairs = [(b, d) for _, b, d in rows]
        if s["hdim"] == 0:
            checks.check_pd0(s["points"], pairs)
        else:
            checks.check_pd1(s["points"], s["kind"], pairs)

    def warm_up(self) -> None:
        points = np.random.default_rng([self.seed, self.tag, 999]).random((8, 2))
        path = self._file("warm.txt", points)
        for argv in (["pd", path, "--dim", "1"], ["pd", path, "--dim", "0", "--kind", "cech"], ["classify", path]):
            _cli_ok(argv)

    def oracle_subset(self) -> int:
        compared = 0
        for pos, (n, dim, kind) in enumerate([(20, 2, "vr"), (18, 3, "cech")]):
            points = _rng(self.seed, self.tag, 10_000, pos).random((n, dim))
            path = self._file(f"oracle{pos}.txt", points)
            want = oracle.oracle_diagrams(points, kind)
            for hdim in (0, 1):
                rows = checks.parse_pd_csv(_cli_ok(["pd", path, "--kind", kind, "--dim", str(hdim)]))
                require(oracle.matches([(b, d) for _, b, d in rows], want[hdim]), f"pd --dim {hdim} --kind {kind} at n={n} differs from the rank oracle")
                compared += 1
        return compared


# --------------------------------------------------------- sweep_trials

# (experiment, n, N, kind): one cell per op, n over 10..40, N in {2,3,4}.
SWEEP_CYCLE = [
    ("hist", 10, 2, "vr"),
    ("sweep", 12, 3, "cech"),
    ("hist", 15, 4, "vr"),
    ("sweep", 17, 2, "cech"),
    ("hist", 20, 3, "cech"),
    ("sweep", 22, 4, "vr"),
    ("hist", 25, 2, "cech"),
    ("sweep", 27, 3, "vr"),
    ("hist", 30, 4, "cech"),
    ("sweep", 32, 2, "vr"),
    ("hist", 35, 3, "vr"),
    ("sweep", 37, 4, "cech"),
    ("hist", 40, 2, "vr"),
]

# Cells up to this size are checked trial by trial against the rank oracle.
ORACLE_MAX_N = 19


def _trial_cloud(seed: int, n: int, dim: int, trial: int) -> np.ndarray:
    """The documented per-trial sampler: Philox keyed by (seed; n, N, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, dim, trial))
    return np.random.Generator(np.random.Philox(ss)).random((n, dim))


def _gap_ratio(pairs: list[tuple[float, float]]) -> float | None:
    pers = sorted(d - b for b, d in pairs if math.isfinite(d))
    if len(pers) < 3:
        return None
    gaps = sorted((b - a for a, b in zip(pers, pers[1:])), reverse=True)
    return math.inf if gaps[1] == 0.0 else gaps[0] / gaps[1]


class SweepTrials(Workload):
    """In-process `experiment hist` / `experiment sweep` cells of 6 trials."""

    name = "sweep_trials"
    tag = 2
    cycles = 2
    schedule = SWEEP_CYCLE

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for pos, (experiment, n, dim, kind) in enumerate(self.schedule):
            exp_seed = int(_rng(self.seed, self.tag, index, pos).integers(0, 2**31))
            out = self.work / f"e{index}_{pos}"
            argv = ["experiment", experiment, "--n", str(n), "--N", str(dim), "--trials", str(TRIALS),
                    "--seed", str(exp_seed), "--kind", kind, "--out", str(out)]
            spec = {"argv": argv, "experiment": experiment, "n": n, "dim": dim, "kind": kind, "seed": exp_seed, "out": out}
            ops.append(Op(f"{experiment}.{kind}", n, spec))
        return ops

    def run(self, op: Op) -> str:
        return _cli_ok(op.spec["argv"])

    def check(self, op: Op, output: str) -> None:
        s = op.spec
        out: Path = s["out"]
        try:
            config = json.loads((out / "config.json").read_text())
            require(config["seed"] == s["seed"] and config["kind"] == s["kind"] and config["trials"] == TRIALS,
                    "config.json does not echo the arguments")
            if s["experiment"] == "hist":
                self._check_hist(s, out)
            else:
                self._check_sweep(s, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_hist(self, s: dict, out: Path) -> None:
        lines = (out / "raw.csv").read_text().splitlines()
        require(lines[0] == "n,N,trial,birth,death", "raw.csv lacks its header")
        by_trial: dict[int, list[tuple[float, float]]] = {t: [] for t in range(TRIALS)}
        for line in lines[1:]:
            n, dim, trial, birth, death = line.split(",")
            require(int(n) == s["n"] and int(dim) == s["dim"] and int(trial) in by_trial, f"raw.csv row {line!r} out of range")
            by_trial[int(trial)].append((float(birth), float(death)))
        for trial, pairs in by_trial.items():
            points = _trial_cloud(s["seed"], s["n"], s["dim"], trial)
            if s["n"] <= ORACLE_MAX_N:
                require(oracle.matches(pairs, oracle.oracle_diagrams(points, s["kind"])[1]), f"trial {trial} differs from the rank oracle")
            else:
                checks.check_pd1(points, s["kind"], pairs)
        pers = [d - b for pairs in by_trial.values() for b, d in pairs]
        rows = (out / "histogram.csv").read_text().splitlines()
        require(rows[0] == "bin_lo,bin_hi,percent", "histogram.csv lacks its header")
        if pers:
            counts, _ = np.histogram(pers, bins=50, range=(0.0, max(pers)))
            got = [float(r.split(",")[2]) for r in rows[1:]]
            require(len(got) == 50, f"histogram has {len(got)} bins, want 50")
            require(bool(np.allclose(got, counts * (100.0 / len(pers)), rtol=0, atol=1e-9)), "histogram percentages do not match raw.csv")

    def _check_sweep(self, s: dict, out: Path) -> None:
        lines = (out / "sweep.csv").read_text().splitlines()
        require(lines[0] == "n,N,median_gap_ratio,used,skipped" and len(lines) == 2, "sweep.csv is not one header and one row")
        n, dim, median, used, skipped = lines[1].split(",")
        require(int(n) == s["n"] and int(dim) == s["dim"], "sweep.csv row is for another cell")
        require(int(used) + int(skipped) == TRIALS, "used + skipped is not the trial count")
        median_v = float(median)
        require(math.isnan(median_v) == (int(used) == 0), "median is nan exactly when no trial was used")
        require(math.isnan(median_v) or median_v >= 1.0, "gap ratio below 1")
        if s["n"] > ORACLE_MAX_N:
            return
        ratios = []
        for trial in range(TRIALS):
            finite, _ = oracle.oracle_diagrams(_trial_cloud(s["seed"], s["n"], s["dim"], trial), s["kind"])[1]
            ratio = _gap_ratio(finite)
            if ratio is not None:
                ratios.append(ratio)
        require(len(ratios) == int(used), f"{used} trials used, the rank oracle gives {len(ratios)}")
        if ratios:
            want = statistics.median(ratios)
            require(math.isclose(median_v, want, rel_tol=1e-6), f"median gap ratio {median_v}, the rank oracle gives {want}")

    def warm_up(self) -> None:
        for experiment in ("hist", "sweep"):
            out = self.work / f"warm_{experiment}"
            _cli_ok(["experiment", experiment, "--n", "6", "--N", "2", "--trials", "2", "--out", str(out)])
            shutil.rmtree(out, ignore_errors=True)

    def oracle_subset(self) -> int:
        # every op with n <= ORACLE_MAX_N is already compared trial by trial
        return sum(TRIALS for op in self.cycle(0) if op.n <= ORACLE_MAX_N)


# ------------------------------------------------------ alpha_stability

# n per op. Bottleneck matching dominates. Many mid-size ops keep a run's
# total steady, since matching time swings with each cloud's pair count.
# At n = 600 (about 550 pairs) the recursive matcher raises RecursionError
# today; that op counts as failed rather than being dropped. Its cloud does
# not depend on the seed: the memory it holds when the error is raised
# swings by 15 MB from cloud to cloud and would set peak_rss_mib.
ALPHA_FIXED_CLOUD_N = 600
ALPHA_CYCLE = [150, 100, 192, 125, 167, 600, 117, 200, 142, 183, 108, 158, 133,
               175, 146, 112, 188, 129, 163, 104, 196, 138, 171, 121, 154, 179]
# Clouds up to this size are also checked against the package's Cech
# diagram (the check costs seconds per cloud).
ALPHA_CECH_MAX_N = 100


def _jittered(rng: np.random.Generator, points: np.ndarray) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi, len(points))
    radius = JITTER * np.sqrt(rng.random(len(points)))
    return points + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


class AlphaStability(Workload):
    """Delaunay diagrams of a cloud and a jittered copy, then bottleneck."""

    name = "alpha_stability"
    tag = 3
    cycles = 1
    schedule = ALPHA_CYCLE

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for pos, n in enumerate(self.schedule):
            rng = _rng(0 if n == ALPHA_FIXED_CLOUD_N else self.seed, self.tag, index, pos)
            points = rng.random((n, 2))
            moved = _jittered(rng, points)
            ops.append(Op("compare", n, {"points": points, "moved": moved}))
        return ops

    def run(self, op: Op) -> tuple:
        from pointpd import filtration, persistence

        d1 = persistence.compute_pd(filtration.build_complex(op.spec["points"], "delaunay"), 1)
        d2 = persistence.compute_pd(filtration.build_complex(op.spec["moved"], "delaunay"), 1)
        return d1, d2, persistence.bottleneck_distance(d1, d2)

    def check(self, op: Op, output: tuple) -> None:
        from pointpd import filtration, persistence

        d1, d2, dist = output
        points, moved = op.spec["points"], op.spec["moved"]
        shift = float(np.max(np.linalg.norm(moved - points, axis=1)))
        require(0.0 <= dist <= shift * (1 + checks.REL_TOL), f"bottleneck {dist} exceeds the largest displacement {shift}")
        want = checks.bottleneck(_pairs(d1), _pairs(d2))
        require(abs(dist - want) <= checks.REL_TOL * max(1.0, want), f"bottleneck {dist}, an independent exact matching gives {want}")
        checks.check_pd1(points, "delaunay", _pairs(d1), edges_per_point=(1.0, 1.5))
        checks.check_pd1(moved, "delaunay", _pairs(d2), edges_per_point=(1.0, 1.5))
        if op.n <= ALPHA_CECH_MAX_N:
            cech = persistence.compute_pd(filtration.build_complex(points, "cech"), 1)
            require(checks.same_diagram(_pairs(d1), _pairs(cech), 1e-9), "delaunay and cech degree-1 diagrams differ")

    def warm_up(self) -> None:
        from pointpd import filtration, persistence

        points = np.random.default_rng([self.seed, self.tag, 999]).random((12, 2))
        d = persistence.compute_pd(filtration.build_complex(points, "delaunay"), 1)
        persistence.bottleneck_distance(d, d)

    def oracle_subset(self) -> int:
        from pointpd import filtration, persistence

        points = _rng(self.seed, self.tag, 10_000, 0).random((20, 2))
        got = persistence.compute_pd(filtration.build_complex(points, "delaunay"), 1)
        # the alpha and Cech filtrations have equal degree-1 diagrams
        require(oracle.matches(_pairs(got), oracle.oracle_diagrams(points, "cech")[1]), "delaunay diagram differs from the rank oracle")
        return 1


# --------------------------------------------------------- wedge_verify

# Alternating ops: ("wedge", kind, tail sizes) and ("tail", kind, base n, tail n).
WEDGE_CYCLE = [
    ("wedge", "vr", (20, 30)),
    ("tail", "cech", 24, 14),
    ("wedge", "cech", (20, 20, 20)),
    ("tail", "vr", 28, 10),
    ("wedge", "vr", (20, 40)),
    ("tail", "cech", 20, 18),
    ("wedge", "cech", (22, 28)),
    ("tail", "vr", 30, 12),
    ("wedge", "vr", (20, 22, 21)),
    ("tail", "cech", 26, 16),
    ("wedge", "cech", (30, 24)),
    ("tail", "vr", 22, 20),
    ("wedge", "vr", (26, 20)),
]


def _exposed_vertex(points: np.ndarray) -> tuple[int, np.ndarray, float]:
    """Vertex whose widest empty angular sector is largest, the unit ray
    bisecting that sector, and the smallest angle from the ray to any other
    point (the attachment angle mu)."""
    best = (-1.0, 0, np.zeros(2))
    for v in range(len(points)):
        rel = np.delete(points, v, axis=0) - points[v]
        ang = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        g = int(np.argmax(gaps))
        mid = ang[g] + gaps[g] / 2.0
        if gaps[g] > best[0]:
            best = (float(gaps[g]), v, np.array([math.cos(mid), math.sin(mid)]))
    return best[1], best[2], best[0] / 2.0


def _union(op: Op, made: Any) -> np.ndarray:
    """The union cloud an op's verification builds: the shared origin, then
    each tail's other points; or the base, then the tail's other points."""
    if "tails" in op.spec:
        tails = [c.points for c in made]
        return np.concatenate([tails[0]] + [t[1:] for t in tails[1:]])
    return np.concatenate([op.spec["base"], made.points[1:]])


def _tail_checks(points: np.ndarray, kind: str) -> None:
    """A tail: successive edges Short, every other edge Long."""
    n = len(points)
    D = checks.distances(points)
    require(checks.mst_edges(D) == {(i, i + 1) for i in range(n - 1)}, "tail's successive edges are not its spanning tree")
    long_ = checks.long_mask(D, kind)
    require(all(long_[i, j] for i in range(n) for j in range(i + 2, n)), "tail has a skip edge that is not Long")


class WedgeVerify(Workload):
    """verify_long_wedge on shared-origin tails, alternating with
    verify_tail_theorem on a base cloud with a tail attached."""

    name = "wedge_verify"
    tag = 4
    schedule = WEDGE_CYCLE

    def cycle(self, index: int) -> list[Op]:
        return self._ops(self.schedule, index)

    def _ops(self, entries: list, index: int) -> list[Op]:
        ops = []
        for pos, entry in enumerate(entries):
            rng = _rng(self.seed, self.tag, index, pos)
            if entry[0] == "wedge":
                _, kind, sizes = entry
                start = rng.uniform(0.0, 2.0 * math.pi)
                tails = [(start + 2.0 * math.pi * k / len(sizes), m, int(rng.integers(0, 2**31))) for k, m in enumerate(sizes)]
                ops.append(Op(f"wedge.{kind}", sum(sizes) - len(sizes) + 1, {"kind": kind, "tails": tails}))
            else:
                _, kind, n_base, n_tail = entry
                while True:
                    base = rng.random((n_base, 2))
                    v, direction, mu = _exposed_vertex(base)
                    if mu >= CONE + math.pi / 2.0 + 0.05:
                        break
                spec = {"kind": kind, "base": base, "v": v, "direction": direction, "n_tail": n_tail, "tail_seed": int(rng.integers(0, 2**31))}
                ops.append(Op(f"tail.{kind}", n_base + n_tail - 1, spec))
        return ops

    def run(self, op: Op) -> Any:
        from pointpd import constructions
        from pointpd.geometry import PointCloud, Ray

        s = op.spec
        if "tails" in s:
            origin = np.zeros(2)
            comps = [
                constructions.generate_tail(constructions.TailSpec(Ray(origin, np.array([math.cos(a), math.sin(a)])), m, 0.5, 1.5, CONE, seed))
                for a, m, seed in s["tails"]
            ]
            return comps, constructions.verify_long_wedge(comps, s["kind"])
        base = PointCloud(s["base"])
        ray = Ray(base.points[s["v"]], s["direction"])
        tail = constructions.generate_tail(constructions.TailSpec(ray, s["n_tail"], 0.5, 1.5, CONE, s["tail_seed"]))
        _, attach = constructions.attach_tail(base, s["v"], ray, tail)
        if not attach.hypothesis_ok:
            raise constructions.HypothesisError(f"attach_tail reports mu={attach.mu} below theta + pi/2")
        return tail, constructions.verify_tail_theorem(base, s["v"], ray, tail, s["kind"])

    def check(self, op: Op, output: Any) -> None:
        kind = op.spec["kind"]
        if "tails" in op.spec:
            comps, report = output
            require(report.is_long_wedge and report.pd_union_ok, "verify_long_wedge verdict is not True")
            tails = [c.points for c in comps]
            union = _union(op, comps)
            owner = np.concatenate([[-1]] + [np.full(len(t) - 1, k) for k, t in enumerate(tails)])
            long_ = checks.long_mask(checks.distances(union), kind)
            cross = (owner[:, None] != owner[None, :]) & (owner[:, None] >= 0) & (owner[None, :] >= 0)
            require(bool(np.all(long_[cross])), "a cross edge of the wedge is not Long")
            for tail, diagram in zip(tails, report.component_diagrams):
                _tail_checks(tail, kind)
                checks.check_pd1(tail, kind, _pairs(diagram), edges_per_point=(1.0, 2.0))
            checks.check_pd1(union, kind, _pairs(report.union_diagram), edges_per_point=(1.0, 2.0))
            return
        tail, thm = output
        require(thm.tail_trivial and thm.union_equals_base_plus_tail and thm.union_equals_base, "verify_tail_theorem verdict is not True")
        _tail_checks(tail.points, kind)
        checks.check_pd1(op.spec["base"], kind, _pairs(thm.base_diagram))
        checks.check_pd1(_union(op, tail), kind, _pairs(thm.union_diagram))

    def warm_up(self) -> None:
        for op in self._ops([("wedge", "vr", (4, 4)), ("tail", "vr", 6, 4)], 999):
            self.run(op)

    def oracle_subset(self) -> int:
        compared = 0
        for op in self._ops([("wedge", "cech", (10, 12)), ("tail", "vr", 12, 8)], 10_000):
            made, report = self.run(op)
            want = oracle.oracle_diagrams(_union(op, made), op.spec["kind"])[1]
            require(oracle.matches(_pairs(report.union_diagram), want), f"{op.label} union diagram differs from the rank oracle")
            compared += 1
        return compared


WORKLOADS = {w.name: w for w in (RipsQuery, SweepTrials, AlphaStability, WedgeVerify)}
