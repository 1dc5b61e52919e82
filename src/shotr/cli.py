"""Command-line front end for batch track analysis and validation runs.

Subcommands: reconstruct, kinematics, length, summary (file-based track
processing), convergence, compare, backtrace (validation studies). Data
goes to stdout or --output; warnings go to stderr. Exit codes: 0 ok,
1 input or processing error, 2 check failure.
"""

import argparse
import csv
import json
import logging
import math
import sys

import numpy as np

from .cweno import CwenoConfig
from .errors import CheckFailed, ShotrError
from .geometry import MAX_GEOMETRY_DEGREE, trajectory_length
from .kinematics import sample_dense, summarize
from .recon import reconstruct_track
from .trajdata import parse_tracks, split_axes
from . import validate


def _fmt(x: float) -> str:
    """Round-trip-safe float formatting (17 significant digits)."""
    return format(float(x), ".17g")


def _tracks(args: argparse.Namespace):
    return parse_tracks(args.input, args.fmt).tracks.values()


def _polys(args: argparse.Namespace, track):
    return reconstruct_track(track, args.degree, args.limiter, args.cweno)


def _open_output(args: argparse.Namespace):
    if args.output:
        return open(args.output, "w", newline="", encoding="utf-8")
    return sys.stdout


def _write_csv(args: argparse.Namespace, header: list[str], rows) -> None:
    out = _open_output(args)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _pad3(values) -> list[float]:
    vals = [float(v) for v in values]
    return vals + [0.0] * (3 - len(vals))


# ---------------------------------------------------------------------------
# file-based commands
# ---------------------------------------------------------------------------

def cmd_reconstruct(args: argparse.Namespace) -> int:
    tracks = {}
    for track in _tracks(args):
        polys = _polys(args, track)
        tracks[track.track_id] = {
            "dim": track.dim,
            "degree_used": polys[0].degree,
            "axes": [p.to_dict()["cells"] for p in polys],
        }
    doc = {"degree": args.degree, "limiter": args.limiter, "tracks": tracks}
    out = _open_output(args)
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_kinematics(args: argparse.Namespace) -> int:
    rows = []
    for track in _tracks(args):
        for s in sample_dense(_polys(args, track)):
            rows.append(
                [track.track_id, _fmt(s.t)]
                + [_fmt(v) for v in _pad3(s.position)]
                + [_fmt(v) for v in _pad3(s.velocity)]
                + [_fmt(v) for v in _pad3(s.acceleration)]
                + [_fmt(s.speed)]
            )
    header = ["track", "t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "speed"]
    _write_csv(args, header, rows)
    return 0


def _geom_degree(args: argparse.Namespace) -> int:
    if args.geom_degree is not None:
        return args.geom_degree
    return min(args.degree, MAX_GEOMETRY_DEGREE)


def cmd_length(args: argparse.Namespace) -> int:
    geom = _geom_degree(args)
    rows = [
        [track.track_id, _fmt(trajectory_length(_polys(args, track), geom))]
        for track in _tracks(args)
    ]
    _write_csv(args, ["track", "length"], rows)
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    geom = _geom_degree(args)
    rows = []
    for track in _tracks(args):
        s = summarize(_polys(args, track), split_axes(track), geom)
        rows.append(
            [track.track_id, _fmt(s.v_l)]
            + [_fmt(v) for v in _pad3(s.v_d)]
            + [_fmt(v) for v in _pad3(s.v_m)]
            + [_fmt(s.length), _fmt(s.duration)]
        )
    header = ["track", "vL", "vD_x", "vD_y", "vD_z", "vM_x", "vM_y", "vM_z", "L", "duration"]
    _write_csv(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# validation commands
# ---------------------------------------------------------------------------

def cmd_convergence(args: argparse.Namespace) -> int:
    case = validate.get_case(args.case or "conv3d")
    degrees = args.degrees or [1, 2, 3]
    meshes = args.meshes or list(validate.REFERENCE_MESH_CELLS)
    rows = validate.run_convergence(case, degrees, meshes)

    out_rows = []
    for row in rows:
        for ax, norms in row.errors.items():
            for k, norm in enumerate(("L1", "L2", "Linf")):
                order = "" if row.orders is None else _fmt(row.orders[ax][k])
                out_rows.append(
                    [row.case, row.degree, _fmt(row.dt), ax, norm,
                     _fmt(norms.as_tuple()[k]), order]
                )
    _write_csv(args, ["case", "N", "dt", "axis", "norm", "error", "order"], out_rows)

    if args.check:
        violations = validate.check_convergence(rows)
        if violations:
            raise CheckFailed("\n".join(violations))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    case = validate.get_case(args.case or "tanhcos2d")
    meshes = args.meshes or list(validate.COMPARISON_MESH_POINTS)
    rows = validate.compare_spt(case, meshes)

    out_rows = [
        [r.case, r.method, r.n_points, r.axis]
        + [_fmt(v) for v in r.position.as_tuple()]
        + [_fmt(v) for v in r.velocity.as_tuple()]
        for r in rows
    ]
    header = ["case", "method", "points", "axis",
              "pos_L1", "pos_L2", "pos_Linf", "vel_L1", "vel_L2", "vel_Linf"]
    _write_csv(args, header, out_rows)

    if args.check:
        violations = validate.check_comparison(rows)
        if violations:
            raise CheckFailed("\n".join(violations))
    return 0


def cmd_backtrace(args: argparse.Namespace) -> int:
    header = ["track", "method", "endpoint_err", "L1", "L2", "Linf"]
    pairs = (("RK2+P1", 1, "rk2"), ("RK4+P3", 3, "rk4"))
    if not (math.isfinite(args.dtau) and args.dtau > 0):
        raise ShotrError(f"dtau must be finite and > 0, got {args.dtau!r}")

    if args.case:
        case = validate.get_case(args.case)
        n_points = (args.meshes or [41])[0]
        track = case.sample(n_points)
        reference = lambda t: np.column_stack([f(t) for f in case.position_fns])
        results = {
            method: validate.backtrace(track, degree, args.dtau, order=order,
                                       reference=reference)
            for method, degree, order in pairs
        }
        rows = [
            [track.track_id, method, _fmt(res.endpoint_error)]
            + [_fmt(v) for v in res.combined.as_tuple()]
            for method, res in results.items()
        ]
        _write_csv(args, header, rows)
        if args.check:
            violations = validate.check_backtrace(results["RK2+P1"], results["RK4+P3"])
            if violations:
                raise CheckFailed("\n".join(violations))
        return 0

    if args.check:
        raise ShotrError("backtrace --check requires --case (synthetic reference)")
    rows = []
    for track in _tracks(args):
        for method, degree, order in pairs:
            res = validate.backtrace(track, degree, args.dtau, order=order,
                                     limiter=args.limiter)
            rows.append(
                [track.track_id, method, _fmt(res.endpoint_error)]
                + [_fmt(v) for v in res.combined.as_tuple()]
            )
    _write_csv(args, header, rows)
    return 0


COMMANDS = {
    "reconstruct": cmd_reconstruct,
    "kinematics": cmd_kinematics,
    "length": cmd_length,
    "summary": cmd_summary,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "backtrace": cmd_backtrace,
}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotr",
        description="High-order particle trajectory reconstruction and kinematics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="output file (default: stdout)")
    common.add_argument("--degree", type=int, default=3,
                        help="reconstruction degree (default 3)")
    common.add_argument("--limiter", choices=("none", "cweno"), default="cweno",
                        help="limiter applied to the reconstruction (default cweno)")
    common.add_argument("--cweno-eps", type=float, default=1e-14,
                        help="limiter division guard (default 1e-14)")
    common.add_argument("--cweno-r", type=int, default=4,
                        help="limiter weight exponent (default 4)")
    common.add_argument("--cweno-lambda0", type=float, default=200.0 / 202.0,
                        help="limiter central linear weight (default 200/202)")

    file_in = argparse.ArgumentParser(add_help=False)
    file_in.add_argument("--input", required=True, help="track CSV file")
    file_in.add_argument("--format", dest="fmt", default="generic_csv",
                         choices=("generic_csv", "trackmate_csv"))

    sub.add_parser("reconstruct", parents=[common, file_in],
                   help="emit per-cell polynomial coefficients as JSON")
    sub.add_parser("kinematics", parents=[common, file_in],
                   help="dense position/velocity/acceleration CSV")

    p_len = sub.add_parser("length", parents=[common, file_in],
                           help="curvilinear path length per track")
    p_sum = sub.add_parser("summary", parents=[common, file_in],
                           help="summary velocities per track")
    for p in (p_len, p_sum):
        p.add_argument("--geom-degree", type=int, default=None,
                       help="isoparametric degree for lengths (default min(degree, 3))")

    p_conv = sub.add_parser("convergence", parents=[common],
                            help="mesh-refinement study on a synthetic case")
    p_conv.add_argument("--case", default="conv3d")
    p_conv.add_argument("--degrees", type=_int_list, default=None,
                        help="comma-separated degrees (default 1,2,3)")
    p_conv.add_argument("--meshes", type=_int_list, default=None,
                        help="comma-separated cell counts (default 100,200,400,800)")
    p_conv.add_argument("--check", action="store_true",
                        help="gate against reference errors and orders; exit 2 on failure")

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="high-order reconstruction vs linear linking")
    p_cmp.add_argument("--case", default="tanhcos2d")
    p_cmp.add_argument("--meshes", type=_int_list, default=None,
                       help="comma-separated point counts (default 21,41,81)")
    p_cmp.add_argument("--check", action="store_true")

    p_back = sub.add_parser("backtrace", parents=[common],
                            help="backward integration of reconstructed velocities")
    src = p_back.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="track CSV file")
    src.add_argument("--case", help="synthetic case name")
    p_back.add_argument("--format", dest="fmt", default="generic_csv",
                        choices=("generic_csv", "trackmate_csv"))
    p_back.add_argument("--meshes", type=_int_list, default=None,
                        help="point count for --case (default 41)")
    p_back.add_argument("--dtau", type=float, default=0.5,
                        help="integration step (default 0.5)")
    p_back.add_argument("--check", action="store_true")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for check failures
        return 0 if (exc.code or 0) == 0 else 1
    try:
        if args.degree < 1:
            raise ShotrError(f"degree must be >= 1, got {args.degree}")
        args.cweno = CwenoConfig.with_central_weight(
            args.cweno_lambda0, epsilon=args.cweno_eps, exponent=args.cweno_r
        )
        return COMMANDS[args.command](args)
    except CheckFailed as exc:
        print(f"check failed:\n{exc}", file=sys.stderr)
        return 2
    except (ShotrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
