"""Command-line front end for batch track analysis and validation runs.

Subcommands: reconstruct, kinematics, length, summary (file-based track
processing), convergence, compare, backtrace (validation studies). Only
the file-based ones take --degree and --limiter; the limiter's constants
are fixed (cweno.CwenoConfig, which takes no arguments) and the arc length
is the fitted curve's own.
backtrace takes --limiter and --format for --input only, --meshes and
--check for --case only. Data goes to stdout or --output; warnings go to
stderr. Exit codes: 0 ok, 1 input or processing error (also a backtrace
step count too large to allocate), 2 check failure.

A command imports only the modules it runs: the file commands never load
the validation harness, and reconstruct loads neither the geometry nor the
kinematics module. The process entry point, run(), freezes the objects the
imports made before main() starts, and lets a closed stdout end the process
as it ends cat: killed by SIGPIPE, with nothing on stderr.
"""

import argparse
import contextlib
import csv
import gc
import io
import logging
import math
import os
import signal
import sys

# Run BLAS on one thread, unless numpy is loaded already or the user chose.
# OpenBLAS starts a worker thread when numpy loads; the fit calls no BLAS
# routine and every BLAS call shotr makes is a small product that leaves it
# idle, yet it spins: `import numpy` took 0.34 s CPU with it and 0.23 s
# without (medians of 15 starts; 2-vCPU VM, numpy 2.4, OpenBLAS 0.3.31).
# Library callers keep their own settings.
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from .errors import CheckFailed, ShotrError, UnsupportedDegree  # noqa: E402
from .recon import LIMITERS, check_degree, reconstruct_tracks  # noqa: E402
from .trajdata import FORMATS, parse_tracks, split_axes  # noqa: E402


# Rows of a track's CSV table, or cells of an axis of its JSON, formatted
# at once, so that a long track's text is never built whole.
_BLOCK_ROWS = 4096
_DEFAULT_FORMAT = next(iter(FORMATS))  # trajdata lists the default first


def _fmt(x: float) -> str:
    """Round-trip-safe float formatting (17 significant digits)."""
    return format(float(x), ".17g")


def _tracks(args: argparse.Namespace):
    return parse_tracks(args.input, args.fmt or _DEFAULT_FORMAT).tracks.values()


def _reconstructed(args: argparse.Namespace):
    """(track, polys) of every track of the input; the file is parsed here,
    the tracks are reconstructed as the result is iterated."""
    return reconstruct_tracks(_tracks(args), args.degree, args.limiter)


def _output(args: argparse.Namespace):
    if args.output:
        return open(args.output, "w", newline="", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_csv(args: argparse.Namespace, header: list[str], rows) -> None:
    with _output(args) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_cell(n_coeffs: int) -> str:
    """%-template of one cell of reconstruct's JSON, at its nesting depth."""
    coeffs = ",\n".join(["              %s"] * n_coeffs)
    return ('          {\n            "center": %s,\n            "width": %s,\n'
            '            "coeffs": [\n' + coeffs + '\n            ]\n          }')


def _json_track(track, polys):
    """The text of one member of reconstruct's "tracks" object, in pieces,
    laid out as json.dump(..., indent=2) lays it out: each axis is
    formatted _BLOCK_ROWS cells at a time, and json spells every number."""
    import json

    mesh, n_coeffs = polys[0].mesh, polys[0].degree + 1
    cell = _json_cell(n_coeffs)
    yield ('    %s: {\n      "dim": %d,\n      "degree_used": %d,\n      "axes": [\n'
           % (json.dumps(track.track_id), track.dim, n_coeffs - 1))
    for k, p in enumerate(polys):
        yield ",\n        [\n" if k else "        [\n"
        for lo in range(0, mesh.n_cells, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            values = np.column_stack([mesh.barycenters[block], mesh.widths[block], p.coeffs[block]])
            numbers = json.dumps(values.ravel().tolist())[1:-1].split(", ")
            yield (",\n" if lo else "") + ",\n".join([cell] * len(values)) % tuple(numbers)
        yield "\n        ]"
    yield "\n      ]\n    }"


def _csv_rows(track_id: str, table: np.ndarray) -> str:
    """One CSV row per row of table: track_id as csv.writer writes it, then
    each value as _fmt text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([track_id, ""])
    line = buf.getvalue()[:-1].replace("%", "%%") + ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# file-based commands
# ---------------------------------------------------------------------------

def cmd_reconstruct(args: argparse.Namespace) -> int:
    import json

    pairs = _reconstructed(args)
    with _output(args) as out:
        out.write('{\n  "degree": %d,\n  "limiter": %s,\n  "tracks": {'
                  % (args.degree, json.dumps(args.limiter)))
        sep = "\n"
        for track, polys in pairs:
            out.write(sep)
            out.writelines(_json_track(track, polys))
            sep = ",\n"
        out.write("}\n}\n" if sep == "\n" else "\n  }\n}\n")
    return 0


def _write_track_tables(args: argparse.Namespace, header: list[str], table) -> int:
    """CSV of every track of the input: the header, then for each track
    the rows of table(track, polys), a 2-D float array, formatted
    _BLOCK_ROWS rows at a time."""
    pairs = _reconstructed(args)
    with _output(args) as out:
        csv.writer(out, lineterminator="\n").writerow(header)
        for track, polys in pairs:
            rows = table(track, polys)
            for lo in range(0, len(rows), _BLOCK_ROWS):
                out.write(_csv_rows(track.track_id, rows[lo:lo + _BLOCK_ROWS]))
    return 0


def _kinematics_table(track, polys) -> np.ndarray:
    from .kinematics import dense_kinematics

    times, pos, vel, acc = dense_kinematics(polys)
    dim = track.dim
    table = np.zeros((len(times), 11))  # t, position, velocity, acceleration, speed
    table[:, 0] = times
    table[:, 1:1 + dim] = pos.T
    table[:, 4:4 + dim] = vel.T
    table[:, 7:7 + dim] = acc.T
    velocity = table[:, 4:4 + dim]
    table[:, 10] = np.sqrt(np.vecdot(velocity, velocity))
    return table


def _summary_table(track, polys) -> np.ndarray:
    from .kinematics import summarize

    s = summarize(polys, split_axes(track))
    table = np.zeros((1, 9))  # vL, vD per axis, vM per axis, L, duration
    table[0, [0, 7, 8]] = s.v_l, s.length, s.duration
    table[0, 1:1 + track.dim] = s.v_d
    table[0, 4:4 + track.dim] = s.v_m
    return table


def cmd_kinematics(args: argparse.Namespace) -> int:
    header = ["track", "t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "speed"]
    return _write_track_tables(args, header, _kinematics_table)


def cmd_length(args: argparse.Namespace) -> int:
    from .geometry import trajectory_length

    return _write_track_tables(args, ["track", "length"],
                               lambda track, polys: np.array([[trajectory_length(polys)]]))


def cmd_summary(args: argparse.Namespace) -> int:
    header = ["track", "vL", "vD_x", "vD_y", "vD_z", "vM_x", "vM_y", "vM_z", "L", "duration"]
    return _write_track_tables(args, header, _summary_table)


# ---------------------------------------------------------------------------
# validation commands
# ---------------------------------------------------------------------------

def _gate(violations: list[str]) -> None:
    """Fail a --check: raise CheckFailed listing the violations, if any."""
    if violations:
        raise CheckFailed("\n".join(violations))


def cmd_convergence(args: argparse.Namespace) -> int:
    from . import validate

    case = validate.get_case(args.case)
    meshes = list(validate.REFERENCE_MESH_CELLS) if args.meshes is None else args.meshes
    rows = validate.run_convergence(case, args.degrees, meshes)

    out_rows = []
    for row in rows:
        for ax, norms in row.errors.items():
            for k, norm in enumerate(validate.NORM_NAMES):
                order = "" if row.orders is None else _fmt(row.orders[ax][k])
                out_rows.append(
                    [row.case, row.degree, _fmt(row.dt), ax, norm,
                     _fmt(norms.as_tuple()[k]), order]
                )
    _write_csv(args, ["case", "N", "dt", "axis", "norm", "error", "order"], out_rows)

    if args.check:
        _gate(validate.check_convergence(rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from . import validate

    case = validate.get_case(args.case)
    meshes = list(validate.COMPARISON_MESH_POINTS) if args.meshes is None else args.meshes
    rows = validate.compare_spt(case, meshes)

    out_rows = [
        [r.case, r.method, r.n_points, r.axis]
        + [_fmt(v) for v in r.position.as_tuple()]
        + [_fmt(v) for v in r.velocity.as_tuple()]
        for r in rows
    ]
    header = ["case", "method", "points", "axis",
              *(f"{qty}_{norm}" for qty in ("pos", "vel") for norm in validate.NORM_NAMES)]
    _write_csv(args, header, out_rows)

    if args.check:
        _gate(validate.check_comparison(rows))
    return 0


def cmd_backtrace(args: argparse.Namespace) -> int:
    from . import validate

    if not (math.isfinite(args.dtau) and args.dtau > 0):
        raise ShotrError(f"dtau must be finite and > 0, got {args.dtau!r}")
    # (track, reference, limiter) of every track to backtrace
    if args.case:
        if args.limiter is not None or args.fmt is not None:
            raise ShotrError("backtrace --limiter and --format apply to --input only")
        case = validate.get_case(args.case)
        sources = [(case.sample(41 if args.meshes is None else args.meshes),
                    case.position, "none")]
    else:
        if args.meshes is not None or args.check:
            raise ShotrError("backtrace --meshes and --check require --case (synthetic reference)")
        # each track's reference is fitted once, for both methods
        sources = ((track, validate.cubic_reference(track), args.limiter or "cweno")
                   for track in _tracks(args))

    rows = []
    for track, reference, limiter in sources:
        results = {method: validate.backtrace(track, degree, args.dtau, limiter=limiter,
                                              reference=reference)
                   for method, degree in (("RK2+P1", 1), ("RK4+P3", 3))}
        rows += [[track.track_id, method, _fmt(res.endpoint_error)]
                 + [_fmt(v) for v in res.combined.as_tuple()]
                 for method, res in results.items()]
    _write_csv(args, ["track", "method", "endpoint_err", *validate.NORM_NAMES], rows)
    if args.check:  # --case only, so results are its one track's
        _gate(validate.check_backtrace(results["RK2+P1"], results["RK4+P3"]))
    return 0


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _degree(text: str) -> int:
    try:
        return check_degree(int(text))
    except UnsupportedDegree as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotr",
        description="High-order particle trajectory reconstruction and kinematics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="output file (default: stdout)")

    recon = argparse.ArgumentParser(add_help=False)
    recon.add_argument("--degree", type=_degree, default=3,
                       help="reconstruction degree (default 3)")
    recon.add_argument("--limiter", choices=LIMITERS, default="cweno",
                       help="limiter applied to the reconstruction (default cweno)")

    file_in = argparse.ArgumentParser(add_help=False)
    file_in.add_argument("--input", required=True, help="track CSV file")
    file_in.add_argument("--format", dest="fmt", default=_DEFAULT_FORMAT, choices=FORMATS)

    file_cmd = [output, recon, file_in]
    for name, handler, text in (
        ("reconstruct", cmd_reconstruct, "emit per-cell polynomial coefficients as JSON"),
        ("kinematics", cmd_kinematics, "dense position/velocity/acceleration CSV"),
        ("length", cmd_length, "curvilinear path length per track"),
        ("summary", cmd_summary, "summary velocities per track"),
    ):
        sub.add_parser(name, parents=file_cmd, help=text).set_defaults(run=handler)

    p_conv = sub.add_parser("convergence", parents=[output],
                            help="mesh-refinement study on a synthetic case")
    p_conv.set_defaults(run=cmd_convergence)
    p_conv.add_argument("--case", default="conv3d")
    p_conv.add_argument("--degrees", type=_int_list, default=[1, 2, 3],
                        help="comma-separated degrees (default 1,2,3)")
    # --meshes defaults are validate's, resolved by the command so that the
    # file commands need not import validate
    p_conv.add_argument("--meshes", type=_int_list, default=None,
                        help="comma-separated cell counts (default 100,200,400,800)")
    p_conv.add_argument("--check", action="store_true",
                        help="gate against reference errors and orders; exit 2 on failure")

    p_cmp = sub.add_parser("compare", parents=[output],
                           help="high-order reconstruction vs linear linking")
    p_cmp.set_defaults(run=cmd_compare)
    p_cmp.add_argument("--case", default="tanhcos2d")
    p_cmp.add_argument("--meshes", type=_int_list, default=None,
                       help="comma-separated point counts (default 21,41,81)")
    p_cmp.add_argument("--check", action="store_true")

    p_back = sub.add_parser("backtrace", parents=[output],
                            help="backward integration of reconstructed velocities")
    p_back.set_defaults(run=cmd_backtrace)
    src = p_back.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="track CSV file")
    src.add_argument("--case", help="synthetic case name")
    p_back.add_argument("--format", dest="fmt", default=None, choices=FORMATS,
                        help=f"format of --input (default {_DEFAULT_FORMAT})")
    p_back.add_argument("--limiter", choices=LIMITERS, default=None,
                        help="limiter applied to --input tracks (default cweno)")
    p_back.add_argument("--meshes", type=int, default=None,
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
        return args.run(args)
    except CheckFailed as exc:
        print(f"check failed:\n{exc}", file=sys.stderr)
        return 2
    except (ShotrError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Process entry point: `python -m shotr.cli` and the `shotr` script.

    Freezes every object that exists once the imports are done, so neither
    main's collections nor the full collections at interpreter exit scan
    numpy's import-time objects, none of which can be freed before the
    process ends. Objects main creates are collected as before. main()
    does not freeze, because callers in a long-lived process (tests, the
    benchmark's in-process pass) would keep their heap forever.

    Where the platform has SIGPIPE, its default action is restored, so a
    write to a closed pipe (`shotr kinematics ... | head`) ends the process
    silently instead of reporting the broken pipe as an error. main()
    leaves the signal alone, for the same callers.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
