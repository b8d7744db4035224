"""Command-line interface.

Subcommands: pd, classify, make-tail, attach, verify-wedge, family,
experiment hist, experiment sweep. Verdicts are emitted as JSON lines on
stdout; clouds and experiment tables are written to files when an output
path is given. Exit codes: 0 success, 2 malformed input, 3 a verification
or hypothesis failure. All angles are radians. An experiment cell samples
its clouds in trial order, builds consecutive clouds of one ambient dimension
as one group and reduces a group's trials in lock step; the files are the same
as from one build per trial, so rerunning a command gives the same files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .cloudfile import CloudFormatError, read_cloud, write_cloud
from .edges import EdgeClass, _edge_classes
from .constructions import (
    HypothesisError,
    TailSpec,
    _tail_check,
    generate_tail,
    generate_trivial_family,
    verify_long_wedge,
    verify_tail_theorem,
)
from .experiments import (
    ExperimentConfig,
    gap_ratio_sweep,
    histogram_csv,
    persistence_histogram,
    raw_csv,
    sweep_csv,
)
from .filtration import FiltrationKind, build_complex
from .geometry import Ray, _norms, _unit, angular_deviation, angular_thickness
from .persistence import compute_pd, diagrams_to_csv

KINDS = [k.value for k in FiltrationKind]


def _vector(text: str) -> np.ndarray:
    try:
        values = np.asarray([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"not a finite vector: {text!r}")
    return values


def _direction(text: str) -> np.ndarray:
    try:
        return _unit(_vector(text))
    except ValueError:
        raise argparse.ArgumentTypeError("direction must be nonzero")


def _cone(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value < math.pi / 4:
        raise argparse.ArgumentTypeError(
            f"cone half-angle must lie in [0, pi/4), got {value}"
        )
    return value


def _int_range(text: str) -> list[int]:
    """`a`, `a:b`, or `a:b:step`, all inclusive."""
    parts = text.split(":")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer range: {text!r}")
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        lo, hi, step = nums[0], nums[1], 1
    elif len(nums) == 3:
        lo, hi, step = nums
    else:
        raise argparse.ArgumentTypeError(f"too many fields in range: {text!r}")
    if step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty or descending range: {text!r}")
    return list(range(lo, hi + 1, step))


# `family --tail` field -> the tail flag that parses it
_TAIL_KEYS = {"vertex": "--vertex", "n": "--n", "cone": "--cone", "seed": "--seed",
              "smin": "--spacing-min", "smax": "--spacing-max", "direction": "--direction"}


class _FieldParser(argparse.ArgumentParser):
    """Reports a bad field as a bad value of the enclosing option."""

    def error(self, message: str):
        raise argparse.ArgumentTypeError(message)


def _tail_fields(text: str) -> argparse.Namespace:
    """`vertex=0;n=10;cone=0.2;seed=7[;smin=..;smax=..;direction=x,y]`.

    Parsed by the tail flags themselves, so the defaults and checks are
    theirs; direction is None when absent.
    """
    parser = _FieldParser(prog="--tail", add_help=False, allow_abbrev=False)
    _add_tail_flags(parser)
    parser.add_argument("--vertex", type=int, required=True)
    parser.add_argument("--direction", type=_direction, default=None)
    argv = []
    for part in filter(None, text.split(";")):
        key, sep, value = part.partition("=")
        if not sep or key.strip() not in _TAIL_KEYS:
            raise argparse.ArgumentTypeError(f"expected key=value with a known key, got {part!r}")
        argv.append(f"{_TAIL_KEYS[key.strip()]}={value.strip()}")
    return parser.parse_args(argv)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True))


def _tail_spec_from_args(args, vertex: np.ndarray) -> TailSpec:
    """The tail flags' spec on a ray from vertex along args.direction (default: first axis)."""
    direction = args.direction if args.direction is not None else np.eye(vertex.shape[0])[0]
    if direction.shape != vertex.shape:
        raise ValueError(
            f"direction must match dimension {vertex.shape[0]}, got {direction.shape[0]} coordinates"
        )
    return TailSpec(
        ray=Ray(vertex, direction),
        n=args.n,
        spacing_min=args.spacing_min,
        spacing_max=args.spacing_max,
        cone_half_angle=args.cone,
        seed=args.seed,
    )


def _add_tail_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="points in the tail")
    sub.add_argument("--cone", type=_cone, default=0.2,
                     help="cone half-angle in radians, below pi/4 (default 0.2)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--spacing-min", type=float, default=0.5,
                     help="minimum consecutive spacing (default 0.5)")
    sub.add_argument("--spacing-max", type=float, default=1.5,
                     help="maximum consecutive spacing (default 1.5)")


def cmd_pd(args) -> int:
    cloud = read_cloud(args.cloud)
    complex_ = build_complex(cloud, args.kind, max_scale=args.max_scale)
    diagram = compute_pd(complex_, args.dim)
    print(diagrams_to_csv([diagram]), end="")
    return 0


def cmd_classify(args) -> int:
    cloud = read_cloud(args.cloud)
    complex_ = build_complex(cloud, args.kind, max_scale=args.max_scale)
    classes = _edge_classes(complex_).tolist()
    lines = ["p,q,length,class"]
    ends = complex_.edge_vertices  # sorted by (value, vertices)
    # the builders' own recipe, so a VR/Cech length is exactly twice the edge value
    lengths = _norms(cloud.points[ends[:, 0]] - cloud.points[ends[:, 1]]).tolist()
    for (p, q), length, cls in zip(ends.tolist(), lengths, classes):
        lines.append(f"{p},{q},{length!r},{cls.value}")
    print("\n".join(lines))
    return 0


def cmd_make_tail(args) -> int:
    if args.dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    vertex = args.vertex if args.vertex is not None else np.zeros(args.dim)
    if vertex.shape[0] != args.dim:
        raise ValueError("--vertex must match --dim")
    spec = _tail_spec_from_args(args, vertex)
    tail = generate_tail(spec)
    complex_ = build_complex(tail, args.kind)
    check = _tail_check(complex_)
    pd1 = compute_pd(complex_, 1)
    classes = _edge_classes(complex_)
    report = {
        "command": "make-tail",
        "n": tail.n_points,
        "dim": tail.dim,
        "kind": FiltrationKind(args.kind).value,
        "omega": angular_deviation(tail, spec.ray) if tail.n_points >= 2 else 0.0,
        "theta": angular_thickness(tail, spec.ray),
        "classes": {cls.value: int((classes == cls).sum()) for cls in EdgeClass},
        "class_violations": len(check.failures),
        "tail_ok": check.ok,
        "pd1_empty": len(pd1) == 0,
    }
    _emit(report)
    if args.out:
        write_cloud(tail, args.out)
    return 0 if check.ok and len(pd1) == 0 else 3


def cmd_attach(args) -> int:
    cloud = read_cloud(args.cloud)
    if not 0 <= args.vertex_index < cloud.n_points:
        raise IndexError(f"--vertex-index {args.vertex_index} out of range")
    spec = _tail_spec_from_args(args, cloud.points[args.vertex_index])
    tail = generate_tail(spec)
    report = {
        "command": "attach",
        "omega": angular_deviation(tail, spec.ray) if tail.n_points >= 2 else 0.0,
    }
    try:
        thm = verify_tail_theorem(cloud, args.vertex_index, spec.ray, tail, args.kind)
    except HypothesisError as exc:  # exit 3 after the angles are reported
        _emit({**report, "mu": exc.report.mu, "theta": exc.report.theta, "hypothesis_ok": False})
        raise
    report.update(
        mu=thm.mu,
        theta=thm.theta,
        hypothesis_ok=True,
        pd1_empty=thm.tail_trivial,
        union_equals_base_plus_tail=thm.union_equals_base_plus_tail,
        union_equals_base=thm.union_equals_base,
    )
    _emit(report)
    if args.out:
        write_cloud(thm.union, args.out)
    ok = thm.tail_trivial and thm.union_equals_base_plus_tail and thm.union_equals_base
    return 0 if ok else 3


def cmd_verify_wedge(args) -> int:
    components = [read_cloud(path) for path in args.clouds]
    report = verify_long_wedge(components, args.kind, tol=args.tol)
    _emit({
        "command": "verify-wedge",
        "components": len(components),
        "kind": FiltrationKind(args.kind).value,
        "is_long_wedge": report.is_long_wedge,
        "offending_edges": [list(edge) for edge, _ in report.offending_edges],
        "pd_union_ok": report.pd_union_ok,
    })
    return 0 if report.is_long_wedge and report.pd_union_ok else 3


def cmd_family(args) -> int:
    base = read_cloud(args.base)
    tails: list[tuple[int, TailSpec]] = []
    for tail in args.tail:
        if not 0 <= tail.vertex < base.n_points:
            raise IndexError(f"tail vertex index {tail.vertex} out of range")
        tails.append((tail.vertex, _tail_spec_from_args(tail, base.points[tail.vertex])))
    family = generate_trivial_family(base, tails, args.kind, variants=args.variants)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for k, cloud in enumerate(family):
        name = None
        if out_dir is not None:
            name = f"variant_{k:02d}.txt"
            write_cloud(cloud, out_dir / name)
        _emit({
            "command": "family",
            "variant": k,
            "n_points": cloud.n_points,
            "pd1_empty": True,
            "file": name,
        })
    _emit({
        "command": "family",
        "variants": len(family),
        "distinct_distance_multisets": True,
    })
    return 0


def _write_experiment(args, command: str, fields: dict, tables: dict[str, str], counts: dict[str, int]) -> int:
    """Write an experiment's tables and its config.json into args.out, and emit one summary line."""
    config = {"command": command, **fields, "trials": args.trials, "seed": args.seed,
              "kind": FiltrationKind(args.kind).value}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {**tables, "config.json": json.dumps(config, sort_keys=True, indent=2) + "\n"}.items():
        (out / name).write_text(text, newline="\n")
    _emit({"command": command, **counts, "out": str(args.out), "files": sorted(["config.json", *tables])})
    return 0


def cmd_experiment_hist(args) -> int:
    cfg = ExperimentConfig(
        n_points=args.n,
        dim=args.N,
        trials=args.trials,
        seed=args.seed,
        kind=args.kind,
        bins=args.bins,
    )
    result = persistence_histogram(cfg)
    return _write_experiment(
        args,
        "experiment-hist",
        {"n": args.n, "N": args.N, "bins": args.bins},
        {"histogram.csv": histogram_csv(result), "raw.csv": raw_csv(result)},
        {"records": len(result.records)},
    )


def cmd_experiment_sweep(args) -> int:
    result = gap_ratio_sweep(args.n, args.N, args.trials, args.seed, kind=args.kind)
    return _write_experiment(
        args,
        "experiment-sweep",
        {"n_range": args.n, "N_range": args.N},
        {"sweep.csv": sweep_csv(result)},
        {"rows": len(result.rows)},
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointpd",
        description="Persistence diagrams, edge classification, and "
        "equal-persistence constructions for point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pd", help="persistence diagram of a cloud file as CSV")
    p.add_argument("cloud", help="cloud file (one point per line)")
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--dim", type=int, choices=[0, 1], default=1)
    p.add_argument("--max-scale", type=float, default=None,
                   help="filtration cap (vr and cech only)")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("classify", help="classify every edge of the filtration")
    p.add_argument("cloud")
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--max-scale", type=float, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("make-tail", help="generate and validate a tail")
    _add_tail_flags(p)
    p.add_argument("--dim", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument("--vertex", type=_vector, default=None,
                   help="tail base point (default: origin)")
    p.add_argument("--direction", type=_direction, default=None,
                   help="ray direction, normalized (default: first axis); "
                   "write --direction=-1,0 for leading dashes")
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--out", default=None, help="write the tail cloud here")
    p.set_defaults(func=cmd_make_tail)

    p = sub.add_parser("attach", help="attach a generated tail to a cloud")
    p.add_argument("cloud", help="base cloud file")
    _add_tail_flags(p)
    p.add_argument("--vertex-index", type=int, required=True,
                   help="index of the attachment point in the base cloud")
    p.add_argument("--direction", type=_direction, required=True,
                   help="ray direction, normalized; write --direction=-1,0 "
                   "for leading dashes")
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--out", default=None, help="write the union cloud here")
    p.set_defaults(func=cmd_attach)

    p = sub.add_parser("verify-wedge", help="check components form a long wedge")
    p.add_argument("clouds", nargs="+", help="component cloud files")
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="diagram matching tolerance (default 1e-9)")
    p.set_defaults(func=cmd_verify_wedge)

    p = sub.add_parser("family", help="grow clouds with empty degree-1 diagrams")
    p.add_argument("--base", required=True, help="base cloud file")
    p.add_argument("--tail", type=_tail_fields, action="append", default=[],
                   help="tail spec, e.g. 'vertex=0;n=10;cone=0.2;seed=7'; repeatable")
    p.add_argument("--variants", type=int, default=1)
    p.add_argument("--kind", choices=KINDS, default="vr")
    p.add_argument("--out-dir", default=None, help="write variant cloud files here")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("experiment", help="random-cloud experiments")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("hist", help="persistence histogram over random cubes")
    e.add_argument("--n", type=int, required=True, help="points per cloud")
    e.add_argument("--N", type=int, required=True, help="ambient dimension")
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--bins", type=int, default=50)
    e.add_argument("--kind", choices=KINDS, default="vr")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_experiment_hist)

    e = esub.add_parser("sweep", help="median gap ratio over an (n, N) grid")
    e.add_argument("--n", type=_int_range, required=True,
                   help="points per cloud, as a, a:b, or a:b:step (inclusive)")
    e.add_argument("--N", type=_int_range, required=True,
                   help="ambient dimension range, same syntax")
    e.add_argument("--trials", type=int, default=20)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--kind", choices=KINDS, default="vr")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_experiment_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (HypothesisError, RuntimeError) as exc:  # before ValueError: a HypothesisError is one
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CloudFormatError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
