"""pointpd benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rips_query --seed 1 --seconds 5 --trace 0

The package is imported from ./src, never from an installed copy, so every
commit is measured on its own code. The run sets up several times (fresh
`pointpd pd` process, input generation, in-process warm-up) and reports the
median, then runs the workload's fixed number of whole op cycles, so every
commit executes the same ops. --seconds is accepted for the command-line
contract and does not change the op count. After the loop, every op's
output is checked with checks that share no code with the package. The
last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics from a traced run with
--trace 1. The line before it carries the environment, the seed and per-op
details.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import checks
from workloads import WORKLOADS

SRC = Path("src").resolve()
OUT = Path(".perfbench_out")
SETUP_REPEATS = 4
PROBE_REPEATS = 3
# The latency percentile reported as op_tail_s.
TAIL_PERCENTILE = 90.0
# The speed probe's time at reference speed. On a shared machine the
# neighbours' load moves the speed of one fixed computation by 15-30%
# within a minute (measured on a 2-core VM), far more than a regression
# bound. So op and set-up times are scaled by the machine's speed while
# they ran: the mean of REF_PROBE_S / probe time over probes timed around
# them. That gives seconds at reference speed. Raw wall times go to the
# info line.
REF_PROBE_S = 0.04


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter work.

    The first half is an arithmetic loop. The second allocates the way the
    package does: many small tuples, a sort and a dict. That half tracks
    the machine's memory speed, which neighbours' load moves more than its
    arithmetic speed. For a fixed op repeated 64 times on a 2-core VM, the
    spread of its scaled time was 0.092 (log sd) with the first half alone
    and 0.071 with both. The collector is off while the probe runs, so the
    program's gc settings cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    table = [0] * 1024
    for i in range(60_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] ^= i
    rows = [(i, (i * 7919) % 1009, i * 0.5) for i in range(20_000)]
    rows.sort(key=lambda r: r[1])
    index = {r[0]: r for r in rows}
    elapsed = time.perf_counter() - t0
    del rows, index
    if enabled:
        gc.enable()
    return elapsed


# A fresh `pointpd pd --kind delaunay` process, the user's cold start. It
# times the speed probe before and after, and prints the probe times as its
# last line, after the command's own output.
COLD_CHILD = (
    "import gc, json, sys, time\n" + inspect.getsource(speed_probe) + "before = speed_probe()\n"
    "import pointpd.cli\n"
    "code = pointpd.cli.main(['pd', sys.argv[1], '--kind', 'delaunay'])\n"
    "sys.stdout.flush()\n"
    "print(json.dumps({'code': code, 'probes': [before, speed_probe()]}))\n"
)
# A fresh interpreter that imports the CLI module, for cli.import_s.
IMPORT_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import pointpd.cli\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'import_s': t, 'scipy_spatial': 'scipy.spatial' in sys.modules}))\n"
)


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "POINTPD_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_package():
    """Import pointpd from ./src and make sure that copy is the one loaded."""
    if not (SRC / "pointpd" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pointpd'} not found; run from the root of a pointpd checkout")
    os.environ.pop("POINTPD_THREADS", None)
    sys.path.insert(0, str(SRC))
    import pointpd

    if Path(pointpd.__file__).resolve().parent != SRC / "pointpd":
        sys.exit(f"error: imported pointpd from {pointpd.__file__}, not from {SRC}")
    return pointpd


def cold_cli(path: str) -> tuple[float, list[float], str]:
    """Wall time, the probe times inside, and the output of one fresh
    `pointpd pd --kind delaunay` process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_CHILD, path], env=_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    status = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"code": proc.returncode}
    if status["code"] != 0:
        raise RuntimeError(f"cold pointpd pd exited {status['code']}: {proc.stderr.strip()[:200]}")
    return elapsed, status["probes"], "\n".join(lines[:-1]) + "\n"


def import_probe() -> tuple[float, bool]:
    times, loaded = [], []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        times.append(result["import_s"])
        loaded.append(result["scipy_spatial"])
    return statistics.median(times), all(loaded)


def speed(probes: list[float]) -> float:
    """Machine speed relative to reference over some probe times.

    The probe's time is bimodal (a busy or idle neighbour), so the mean of
    the speeds tracks the mix an op sees; a median snaps to one mode. On
    ten seeds this cut the spread of ops_per_s from 0.15-0.19 (raw) and
    0.12-0.16 (median) to 0.05 of the median.
    """
    return statistics.mean(REF_PROBE_S / p for p in probes)


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, tracer=None) -> dict:
    """Run the workload's whole cycles, then check every output.

    The peak resident set is read between the two, so the checks'
    temporaries never count toward peak_rss_mib.
    """
    records, outputs = [], []
    probe = speed_probe()  # one probe between two ops serves both
    for index in range(workload.cycles):
        for op in workload.cycle(index):
            op_id = len(records)
            output, error = None, None
            before = probe
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(op)
                else:
                    output = tracer.run_op(op_id, lambda: workload.run(op))
            except Exception as exc:  # an op that raises is a failed op
                error = type(exc).__name__
            elapsed = time.perf_counter() - t0
            probe = speed_probe()
            probes = (before, probe)
            records.append({"label": op.label, "n": op.n, "seconds": elapsed, "probes": probes, "error": error})
            outputs.append((op, output))
    peak = rss_mib()
    mismatches = []
    c0 = time.perf_counter()
    for record, (op, output) in zip(records, outputs):
        if record["error"] is None:
            try:
                workload.check(op, output)
            except checks.Mismatch as exc:
                record["error"] = "Mismatch"
                mismatches.append(f"{op.label} n={op.n}: {exc}")
    check_s = time.perf_counter() - c0
    return {"records": records, "mismatches": mismatches, "check_s": check_s, "peak_rss_mib": peak}


def run_speed(records: list[dict]) -> float:
    return speed([p for r in records for p in r["probes"]])


def quantile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate: a weighted mean of all order statistics, far
    less jumpy than one order statistic when a run holds 9-26 ops."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values), prob=[pct / 100.0])[0])


def end_to_end(loop: dict, setup: list[float]) -> tuple[dict, dict]:
    records = loop["records"]
    succeeded = sum(1 for r in records if r["error"] is None)
    # latencies of successful ops; of all ops if none succeeded, so a
    # broken program still gets a result line that says so
    raw = [r["seconds"] for r in records if r["error"] is None or not succeeded]
    scale = run_speed(records)
    ok = [t * scale for t in raw]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (succeeded / sum(ok), "1/s"),
        "op_p50_s": (quantile(ok, 50.0), "s"),
        "op_tail_s": (quantile(ok, TAIL_PERCENTILE), "s"),
        "ok_ratio": (succeeded / len(records), "ratio"),
        "peak_rss_mib": (loop["peak_rss_mib"], "MiB"),
    }
    info = {
        "tail_percentile": TAIL_PERCENTILE,
        "latency_samples": len(ok),
        "run_speed": round(scale, 4),
        "raw_wall": {
            "ops_per_s": round(succeeded / sum(raw), 4),
            "op_p50_s": round(quantile(raw, 50.0), 4),
            "op_tail_s": round(quantile(raw, TAIL_PERCENTILE), 4),
        },
    }
    return metrics, info


def per_layer(tracer, loop: dict, untraced_ops_per_s: float, probe: tuple[float, bool], cold: list[float]) -> dict:
    records = loop["records"]
    ops = len(records)
    self_t = tracer.self_times()
    incl = tracer.inclusive_times()
    counts = tracer.counts
    op_wall = sum(r["seconds"] for r in records)
    ok = [r["seconds"] for r in records if r["error"] is None]
    traced_ops_per_s = len(ok) / (sum(ok) * run_speed(records)) if ok else 0.0
    build_s = sum(v for k, v in self_t.items() if k.startswith("filtration.build_"))
    trials = counts["experiments.trials"]

    def per_op(x: float) -> float:
        return x / ops

    m = {
        "filtration.build_vr_s": (per_op(self_t["filtration.build_vr"]), "s"),
        "filtration.build_cech_s": (per_op(self_t["filtration.build_cech"]), "s"),
        "filtration.build_delaunay_s": (per_op(self_t["filtration.build_delaunay"]), "s"),
        "filtration.us_per_simplex": (1e6 * build_s / counts["filtration.simplices"] if counts["filtration.simplices"] else 0.0, "us"),
        "filtration.simplices": (per_op(counts["filtration.simplices"]), "count"),
        "filtration.edges": (per_op(counts["filtration.edges"]), "count"),
        "filtration.triangles": (per_op(counts["filtration.triangles"]), "count"),
        "persistence.pd0_s": (per_op(self_t["persistence.pd0"]), "s"),
        "persistence.pd1_s": (per_op(self_t["persistence.pd1"]), "s"),
        "persistence.pairs0": (per_op(counts["persistence.pairs0"]), "count"),
        "persistence.pairs1": (per_op(counts["persistence.pairs1"]), "count"),
        "persistence.bottleneck_s": (per_op(self_t["persistence.bottleneck"]), "s"),
        "persistence.bottleneck_pairs": (per_op(counts["persistence.bottleneck_pairs"]), "count"),
        "persistence.bottleneck_failed": (per_op(tracer.raised["persistence.bottleneck"]), "count"),
        "persistence.diagram_equal_s": (per_op(self_t["persistence.diagram_equal"]), "s"),
        "persistence.gap_stats_s": (per_op(self_t["persistence.gap_stats"]), "s"),
        "edges.classify_s": (per_op(self_t["edges.classify"]), "s"),
        "edges.short": (per_op(counts["edges.Short"]), "count"),
        "edges.medium": (per_op(counts["edges.Medium"]), "count"),
        "edges.long": (per_op(counts["edges.Long"]), "count"),
        "constructions.self_s": (per_op(self_t["constructions.verify"]), "s"),
        "constructions.generate_tail_s": (per_op(self_t["constructions.generate_tail"]), "s"),
        "constructions.attach_s": (per_op(self_t["constructions.attach"]), "s"),
        "constructions.builds_per_op": (per_op(tracer.count_under("filtration.build_", "constructions.")), "count"),
        "experiments.self_s": (per_op(self_t["experiments.run"]), "s"),
        "experiments.sample_s": (per_op(self_t["experiments.sample"] + self_t["experiments.sample_cloud"]), "s"),
        "experiments.trials_per_s": (trials / incl["experiments.run"] if trials else 0.0, "1/s"),
        "cli.self_s": (per_op(self_t["cli.main"]), "s"),
        "cloudfile.read_s": (per_op(self_t["cloudfile.read"]), "s"),
        "cli.cold_s": (statistics.median(cold), "s"),
        "cli.import_s": (probe[0], "s"),
        "cli.scipy_spatial_loaded": (float(probe[1]), "count"),
        "runtime.gc_s": (per_op(tracer.gc_seconds), "s"),
        "runtime.gc_collections": (per_op(tracer.gc_collections), "count"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.overhead": (untraced_ops_per_s / traced_ops_per_s - 1.0 if traced_ops_per_s else 0.0, "ratio"),
        "trace.unattributed_share": ((self_t["op"] + self_t["count"]) / op_wall, "ratio"),
    }
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="accepted for the command-line contract; the op count is fixed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    pointpd = _import_package()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        return _run(args, pointpd, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, pointpd, workload_cls, work: Path) -> int:
    cold_points = np.random.default_rng([args.seed, 50]).random((50, 2))
    cold_file = work / "cold50.txt"
    cold_file.write_text(checks.cloud_text(cold_points))

    # One set-up: a fresh `pointpd pd` process, then the workload's inputs
    # and an in-process warm-up. Each is scaled by the speed probes timed
    # around it and inside its fresh process.
    setup, setup_raw, cold = [], [], []
    workload, cold_stdout = None, ""
    for _ in range(SETUP_REPEATS):
        before = speed_probe()
        t0 = time.perf_counter()
        elapsed, inside, cold_stdout = cold_cli(str(cold_file))
        workload = workload_cls(args.seed, work)
        workload.cycle(0)
        workload.warm_up()
        wall = time.perf_counter() - t0
        setup.append(wall * speed([before, *inside, speed_probe()]))
        setup_raw.append(wall)
        cold.append(elapsed)
    rss_after_setup = rss_mib()

    loop = measure(workload)
    mismatches = list(loop["mismatches"])
    try:
        rows = checks.parse_pd_csv(cold_stdout)
        checks.check_pd1(cold_points, "delaunay", [(b, d) for _, b, d in rows], edges_per_point=(1.0, 1.5))
    except checks.Mismatch as exc:
        mismatches.append(f"cold pointpd pd: {exc}")
    oracle_checks = 0
    try:
        oracle_checks = workload.oracle_subset()
    except checks.Mismatch as exc:
        mismatches.append(f"oracle subset: {exc}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pointpd": str(Path(pointpd.__file__).parent),
        "oracle_comparisons": oracle_checks,
        "rss_after_setup_mib": round(rss_after_setup, 2),
        "setup_raw_s": round(statistics.median(setup_raw), 4),
    }
    metrics, extra = end_to_end(loop, setup)
    info.update(extra)
    reported = loop
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            reported = measure(workload, tracer)
        finally:
            tracer.uninstall()
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"), t0)
        metrics = per_layer(tracer, reported, metrics["ops_per_s"][0], import_probe(), cold)
        mismatches += reported["mismatches"]

    records = reported["records"]
    by_label: dict[str, list[float]] = defaultdict(list)
    for r in records:
        if r["error"] is None:
            by_label[r["label"]].append(r["seconds"])
    info.update({
        "cycles": workload.cycles,
        "check_s": round(reported["check_s"], 3),
        "errors": dict(Counter(r["error"] for r in records if r["error"])),
        "mismatches": mismatches[:5],
        "median_s_by_label": {k: round(statistics.median(v), 4) for k, v in sorted(by_label.items())},
        "failed_ops": [f"{r['label']} n={r['n']}: {r['error']}" for r in records if r["error"]][:10],
    })
    result = {
        "correct": not mismatches,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    saved = {"info": info, **result, "ops": records}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
