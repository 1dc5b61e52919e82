"""Row-by-row and per-cell reference implementations of the CSV parse,
the reconstruction and its evaluation, the limiter, the arc length, the
validation norms and backtrace, and the text of the CLI's file commands'
output.

The file is read one row at a time, each token converted as it is met;
one exact rational solve of the constrained least-squares (KKT) system per
cell and one candidate set per cell, with the oscillation indicator
integrated by Gauss quadrature, whose rule is mapped onto one interval at
a time from numpy's reference rule; each axis and derivative evaluated on its
own, with its own cell search; arc lengths from each cell's own speed,
cell by cell; error norms summed cell by cell, or column by column, and
backtrace stepped one RK step at a time. Slow, but written independently
of the array code in ``shotr.trajdata``, ``shotr.recon``, ``shotr.cweno``,
``shotr.geometry`` and ``shotr.validate``, which the differential tests
check against it.
The CLI's output is built as a document for ``json.dump`` and as one CSV
row per ``KinematicSample`` or ``VelocitySummary``, each value formatted on
its own. The limiter's array kernels are also kept in their reduction
forms, which ``shotr.cweno``'s explicit forms are checked against.
"""

import csv
import io
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shotr.cweno import CwenoConfig, _gram
from shotr.errors import DuplicateTimestamp, MalformedRow
from shotr.geometry import trajectory_length
from shotr.kinematics import sample_dense, summarize
from shotr.mesh import StaggeredMesh, build_mesh
from shotr.recon import _FACT, CellPoly, TaylorBasis, effective_degree, reconstruct_track
from shotr.trajdata import TrackSeries, TrackSet, _column_map, split_axes
from shotr.validate import ErrorNorms


logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def interval_gauss(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (n,) of the n-point Gauss-Legendre rule on [a, b],
    the weights carrying the half-width."""
    x, w = np.polynomial.legendre.leggauss(n)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return mid + half * x, half * w


def cell_gauss(mesh: StaggeredMesh, n: int) -> tuple[np.ndarray, np.ndarray]:
    """interval_gauss on each cell of mesh, one cell at a time: nodes and
    weights (n_cells, n)."""
    rules = [interval_gauss(a, b, n) for a, b in zip(mesh.interfaces[:-1], mesh.interfaces[1:])]
    return np.array([x for x, _ in rules]), np.array([w for _, w in rules])


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def _parse_float(token: str, what: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedRow(f"line {line_no}: cannot parse {what} from {token!r}") from None


def parse_tracks(path: str, fmt: str = "generic_csv") -> TrackSet:
    """One row at a time: the first bad line raises, non-finite rows are
    warned about as they are met, tracks sort their rows by time."""
    rows_by_track: dict[str, list[tuple[float, tuple[float, ...]]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file") from None
        track_col, time_col, axis_cols = _column_map(header, fmt, path)
        n_needed = max(track_col, time_col, *axis_cols) + 1

        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < n_needed:
                raise MalformedRow(
                    f"line {line_no}: expected at least {n_needed} fields, got {len(row)}"
                )
            track_id = row[track_col].strip()
            t = _parse_float(row[time_col], "time", line_no)
            coord = tuple(
                _parse_float(row[c], f"coordinate {i}", line_no)
                for i, c in enumerate(axis_cols)
            )
            if not (math.isfinite(t) and all(map(math.isfinite, coord))):
                logger.warning("%s line %d: non-finite sample rejected", path, line_no)
                continue
            rows_by_track.setdefault(track_id, []).append((t, coord))

    tracks: dict[str, TrackSeries] = {}
    for track_id, samples in rows_by_track.items():
        samples.sort(key=lambda s: s[0])
        times = np.array([s[0] for s in samples])
        if len(times) >= 2 and np.any(np.diff(times) == 0):
            raise DuplicateTimestamp(f"track {track_id!r} has duplicate timestamps")
        if len(samples) < 2:
            logger.warning(
                "%s: track %r dropped (%d sample(s), need >= 2)",
                path, track_id, len(samples),
            )
            continue
        coords = np.array([s[1] for s in samples])
        tracks[track_id] = TrackSeries(track_id, times, coords)

    return TrackSet(tracks)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

class MissingNeighbor(Exception):
    """A one-sided candidate polynomial has no neighbor sample on that side."""


def design_row(basis: TaylorBasis, degree: int, t: float) -> np.ndarray:
    """Values of the basis functions of degrees 0..degree at time t."""
    u = (t - basis.center) / basis.width
    powers = u ** np.arange(degree + 1)
    return powers / _FACT[: degree + 1]


@dataclass
class Stencil:
    """Interface sample indices feeding one cell's least-squares fit."""

    cell: int
    interface_indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.interface_indices)

    def constraint_rows(self) -> tuple[int, int]:
        """Positions of the cell's own interfaces within the stencil."""
        idx = self.interface_indices
        left = int(np.nonzero(idx == self.cell)[0][0])
        right = int(np.nonzero(idx == self.cell + 1)[0][0])
        return left, right


def build_stencil(mesh: StaggeredMesh, cell: int, degree: int) -> Stencil:
    """The 2N+3 interfaces centered on the cell's left interface, shifted
    one-sided near the track ends; every interface of a shorter track."""
    n_if = len(mesh.interfaces)
    size = min(2 * degree + 3, n_if)
    lo = min(max(cell - (degree + 1), 0), n_if - size)
    return Stencil(cell, np.arange(lo, lo + size))


def assemble_clsq(series: TrackSeries, stencil: Stencil, basis: TaylorBasis, degree: int):
    """Least-squares system (M, B) and interpolation constraints (C, d)."""
    times = series.times[stencil.interface_indices]
    M = np.array([design_row(basis, degree, t) for t in times])
    B = series.values[stencil.interface_indices].copy()
    r0, r1 = stencil.constraint_rows()
    return M, B, M[[r0, r1], :].copy(), B[[r0, r1]].copy()


def _as_integers(values) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _solve_exact(K: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """Solution x = y / det of an integer system K x = rhs, with y and det
    integers: fraction-free (Bareiss) elimination, swapping rows past zero
    pivots, then back substitution in exact integer division."""
    n = len(K)
    A = [row + [r] for row, r in zip(K, rhs)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular KKT system")
        A[k], A[piv] = A[piv], A[k]
        pivot_row, p = A[k], A[k][k]
        for i in range(k + 1, n):
            f = A[i][k]
            A[i] = [0] * (k + 1) + [
                (x * p - f * y) // prev for x, y in zip(A[i][k + 1 :], pivot_row[k + 1 :])
            ]
        prev = p
    det = prev  # the determinant of K up to sign; y_i = x_i * det are integers
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (A[i][n] * det - sum(A[i][j] * y[j] for j in range(i + 1, n))) // A[i][i]
    return y, det


def clsq_exact(M, B, C, d) -> np.ndarray:
    """Minimizer of ||M s - B|| subject to C s = d for rational entries,
    solved exactly and rounded once: the KKT system
    [[M^T M, C^T], [C, 0]] [s; mu] = [M^T B; d] in integers. Each column of
    M and C is scaled by its own least common denominator D_l (which scales
    s_l by 1 / D_l), B and d by theirs."""
    n_m, cols = len(M), len(M[0])
    scaled = [_as_integers([row[l] for row in [*M, *C]]) for l in range(cols)]
    rows = [[scaled[l][0][i] for l in range(cols)] for i in range(n_m + len(C))]
    Mi, Ci = rows[:n_m], rows[n_m:]
    bd, rhs_den = _as_integers([*B, *d])
    Bi, di = bd[:n_m], bd[n_m:]
    K = [
        [sum(r[a] * r[b] for r in Mi) for b in range(cols)] + [c[a] for c in Ci]
        for a in range(cols)
    ] + [c + [0] * len(C) for c in Ci]
    rhs = [sum(r[a] * y for r, y in zip(Mi, Bi)) for a in range(cols)] + di
    y, det = _solve_exact(K, rhs)
    # int / int is correctly rounded
    return np.array([y[l] * scaled[l][1] / (det * rhs_den) for l in range(cols)])


def solve_clsq(M, B, C, d) -> np.ndarray:
    """clsq_exact of a float system."""
    frac = lambda a: [Fraction(float(x)) for x in a]
    return clsq_exact([frac(r) for r in M], frac(B), [frac(r) for r in C], frac(d))


def cell_coeffs(mesh: StaggeredMesh, values: np.ndarray, cell: int, degree: int) -> np.ndarray:
    """Exact constrained least-squares coefficients of one cell in its
    normalized Taylor basis, rounded once: the basis values u^l / l!,
    u = (t - center) / width, are formed in rationals from the mesh's
    floats."""
    stencil = build_stencil(mesh, cell, degree)
    center = Fraction(float(mesh.barycenters[cell]))
    width = Fraction(float(mesh.widths[cell]))
    idx = stencil.interface_indices
    us = [(Fraction(float(t)) - center) / width for t in mesh.interfaces[idx]]
    M = [[u**l / math.factorial(l) for l in range(degree + 1)] for u in us]
    B = [Fraction(float(v)) for v in values[idx]]
    r0, r1 = stencil.constraint_rows()
    return clsq_exact(M, B, [M[r0], M[r1]], [B[r0], B[r1]])


def reconstruct_axis(series: TrackSeries, degree: int) -> np.ndarray:
    """Unlimited coefficients, (n_cells, N_eff + 1), one exact solve per cell."""
    n_eff = effective_degree(len(series), degree)
    mesh = build_mesh(series.times)
    return np.array([cell_coeffs(mesh, series.values, i, n_eff) for i in range(mesh.n_cells)])


def locate_cells(mesh: StaggeredMesh, t) -> np.ndarray:
    """The cell of each t by searching all interfaces, minus one, clipped
    to the end cells."""
    idx = np.searchsorted(mesh.interfaces, t, side="left") - 1
    return np.clip(idx, 0, mesh.n_cells - 1)


def evaluate_axis(poly, t, order: int):
    """One axis's order-th derivative at t, with its own cell search and
    gather and the factorials divided per point, by Horner."""
    t = np.asarray(t, dtype=float)
    idx = locate_cells(poly.mesh, t)
    width = poly.mesh.widths[idx]
    u = (t - poly.mesh.barycenters[idx]) / width
    coeffs = poly.coeffs[idx]
    n = coeffs.shape[-1]
    if order >= n:
        return np.zeros(np.shape(u)) / width**order
    scaled = coeffs[..., order:] / _FACT[: n - order]
    acc = scaled[..., -1]
    for l in range(n - order - 2, -1, -1):
        acc = acc * u + scaled[..., l]
    return acc / width**order


# ---------------------------------------------------------------------------
# limiter
# ---------------------------------------------------------------------------

def _line(ta, sa, tb, sb, optimal: CellPoly) -> CellPoly:
    """The line through (ta, sa) and (tb, sb) in optimal's basis, with as
    many coefficients as optimal."""
    basis = optimal.basis
    slope = (sb - sa) / (tb - ta)
    coeffs = np.zeros(len(optimal.coeffs))
    coeffs[0] = sa + slope * (basis.center - ta)
    coeffs[1] = slope * basis.width
    return CellPoly(coeffs, basis)


def one_sided_p1(series: TrackSeries, cell: int, side: str, optimal: CellPoly) -> CellPoly:
    """Linear candidate anchored at the cell's left interface."""
    t, s = series.times, series.values
    if side == "left":
        if cell == 0:
            raise MissingNeighbor("first cell has no sample left of the cell")
        return _line(t[cell - 1], s[cell - 1], t[cell], s[cell], optimal)
    return _line(t[cell], s[cell], t[cell + 1], s[cell + 1], optimal)


def central_poly(optimal: CellPoly, left: CellPoly, right: CellPoly) -> CellPoly:
    cfg = CwenoConfig
    coeffs = (
        optimal.coeffs - cfg.lambda_side * left.coeffs - cfg.lambda_side * right.coeffs
    ) / cfg.lambda_central
    return CellPoly(coeffs, optimal.basis)


def _nth_derivative(poly: CellPoly, t: np.ndarray, order: int) -> np.ndarray:
    n = len(poly.coeffs)
    if order >= n:
        return np.zeros_like(np.asarray(t, dtype=float))
    u = (np.asarray(t, dtype=float) - poly.basis.center) / poly.basis.width
    c = poly.coeffs[order:] / _FACT[: n - order]
    return np.polynomial.polynomial.polyval(u, c) / poly.basis.width**order


def oscillation_indicator(poly: CellPoly, interval: tuple[float, float]) -> float:
    """Sum over orders of the integral of the squared derivative, by the
    (N+1)-point Gauss rule, which is exact for these integrands."""
    a, b = interval
    degree = len(poly.coeffs) - 1
    nodes, weights = interval_gauss(a, b, degree + 1)
    sigma = 0.0
    for order in range(1, degree + 1):
        d = _nth_derivative(poly, nodes, order)
        sigma += float(np.dot(weights, d * d))
    return sigma


def make_candidates(optimal: CellPoly, series: TrackSeries, cell: int):
    """(central, left, right) and their sigmas; a missing left line is
    replaced by the cell's own interpolating line."""
    right = one_sided_p1(series, cell, "right", optimal)
    try:
        left = one_sided_p1(series, cell, "left", optimal)
    except MissingNeighbor:
        left = right
    p0 = central_poly(optimal, left, right)
    interval = (float(series.times[cell]), float(series.times[cell + 1]))
    sigmas = np.array([oscillation_indicator(p, interval) for p in (p0, left, right)])
    return (p0, left, right), sigmas


def blend(cands, sigmas: np.ndarray) -> np.ndarray:
    cfg = CwenoConfig
    lam = np.array([cfg.lambda_central, cfg.lambda_side, cfg.lambda_side])
    raw = lam / (sigmas + cfg.epsilon) ** cfg.exponent
    omega = raw / raw.sum()
    return sum(w * c.coeffs for w, c in zip(omega, cands))


def limit(coeffs: np.ndarray, series: TrackSeries) -> np.ndarray:
    """Limited coefficients, one candidate set per cell."""
    mesh = build_mesh(series.times)
    out = []
    for i, c in enumerate(coeffs):
        basis = TaylorBasis(float(mesh.barycenters[i]), float(mesh.widths[i]))
        cands, sigmas = make_candidates(CellPoly(c, basis), series, i)
        linear = len(set(sigmas + CwenoConfig.epsilon)) == 1  # the linear weights give c
        out.append(c if linear else blend(cands, sigmas))
    return np.array(out)


# The limiter's array kernels in their reduction forms: the indicators as
# one three-operand einsum over the Gram matrices, the min and the sums over
# the candidate axis as numpy reductions. shotr.cweno writes them as matrix
# products and three-term expressions; the tests hold its weights and blend
# to these bits and its indicators to rounding.

def einsum_indicators(coeffs: np.ndarray, widths, absolute: bool = False) -> np.ndarray:
    """oscillation_indicators by one einsum; with absolute, the sum of the
    absolute values of its terms, which bounds the rounding of any order of
    summation."""
    n = coeffs.shape[-1]
    c, G = (np.abs(coeffs), np.abs(_gram(n))) if absolute else (coeffs, _gram(n))
    forms = np.einsum("...j,mjk,...k->...m", c, G, c)
    scale = np.asarray(widths, dtype=float)[..., None] ** (1 - 2 * np.arange(1, n))
    return (forms * scale).sum(axis=-1)


def reduced_weights(sigmas: np.ndarray) -> np.ndarray:
    cfg = CwenoConfig
    lam = np.array([cfg.lambda_central, cfg.lambda_side, cfg.lambda_side])
    s = np.asarray(sigmas, dtype=float) + cfg.epsilon
    raw = lam * (s.min(axis=-1, keepdims=True) / s) ** cfg.exponent
    return raw / raw.sum(axis=-1, keepdims=True)


def reduced_blend(cands: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    return (reduced_weights(sigmas)[..., None] * cands).sum(axis=-2)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def cell_lengths(axis_polys) -> np.ndarray:
    """Arc length of every cell, one cell at a time: the speed of each
    axis's own cell polynomial at max(N + 1, 4) Gauss points of that cell."""
    mesh = axis_polys[0].mesh
    n_q = max(axis_polys[0].degree + 1, 4)
    lengths = []
    for i in range(mesh.n_cells):
        x, w = interval_gauss(mesh.interfaces[i], mesh.interfaces[i + 1], n_q)
        velocity = np.array([p.cells[i].derivative(x) for p in axis_polys])
        lengths.append(np.sqrt(np.sum(velocity**2, axis=0)) @ w)
    return np.array(lengths)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def error_norms(reference, candidate, window, quad_points_per_cell, mesh) -> ErrorNorms:
    """L1/L2 by Gauss quadrature and Linf over nodes and clipped interfaces,
    one cell at a time."""
    a, b = window
    l1 = 0.0
    l2_sq = 0.0
    linf = 0.0
    for i in range(mesh.n_cells):
        lo = max(float(mesh.interfaces[i]), a)
        hi = min(float(mesh.interfaces[i + 1]), b)
        if hi <= lo:
            continue
        nodes, weights = interval_gauss(lo, hi, quad_points_per_cell)
        pts = np.concatenate([nodes, [lo, hi]])
        err = np.abs(np.asarray(reference(pts)) - np.asarray(candidate(pts)))
        l1 += float(np.dot(weights, err[:-2]))
        l2_sq += float(np.dot(weights, err[:-2] ** 2))
        linf = max(linf, float(err.max()))
    return ErrorNorms(l1, math.sqrt(l2_sq), linf)


def column_norms(reference, candidate, quad_points_per_cell, mesh) -> list[ErrorNorms]:
    """error_norms' points and errors, then the norms one column at a time:
    the column's errors at the Gauss nodes, then at the interfaces, each
    sum over that column's nodes under their weights."""
    nodes, weights = cell_gauss(mesh, quad_points_per_cell)
    pts = np.concatenate([nodes.ravel(), mesh.interfaces])
    err = np.abs(np.asarray(reference(pts)) - np.asarray(candidate(pts)))
    return [_norms(column, weights) for column in np.ascontiguousarray(err.T)]


def _norms(err: np.ndarray, weights: np.ndarray) -> ErrorNorms:
    """Norms of one column's errors at the quadrature nodes, then at the
    interfaces, under the nodes' weights."""
    quad_err = err[: weights.size].reshape(weights.shape)
    return ErrorNorms(
        float(np.sum(weights * quad_err)),
        math.sqrt(float(np.sum(weights * quad_err**2))),
        float(err.max()),
    )


def rk_step(state: np.ndarray, tau: float, dtau: float, velocity_field, order: str = "rk4"):
    """One explicit Runge-Kutta step of dx/dtau = -v(x, tau): the midpoint
    rule for "rk2", the classical four-stage rule for "rk4"."""
    x = np.asarray(state, dtype=float)
    if order == "rk2":
        k1 = -velocity_field(x, tau)
        k2 = -velocity_field(x + 0.5 * dtau * k1, tau + 0.5 * dtau)
        return x + dtau * k2
    if order == "rk4":
        k1 = -velocity_field(x, tau)
        k2 = -velocity_field(x + 0.5 * dtau * k1, tau + 0.5 * dtau)
        k3 = -velocity_field(x + 0.5 * dtau * k2, tau + 0.5 * dtau)
        k4 = -velocity_field(x + dtau * k3, tau + dtau)
        return x + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise ValueError(f"order must be 'rk2' or 'rk4', got {order!r}")


def backtrace_path(
    track: TrackSeries, degree: int, dtau: float, order: str | None = None, limiter: str = "none"
) -> tuple[np.ndarray, np.ndarray]:
    """(taus, path) of the backward integration, one RK step per loop pass
    with one scalar velocity lookup per axis and stage."""
    polys = reconstruct_track(track, degree, limiter)
    t0, t1 = polys[0].mesh.span
    duration = t1 - t0
    if order is None:
        order = "rk2" if degree == 1 else "rk4"

    def field(x: np.ndarray, tau: float) -> np.ndarray:
        t_phys = min(max(t1 - tau, t0), t1)
        return np.array([float(p.derivative(t_phys)) for p in polys])

    n_full = int(math.floor(duration / dtau + 1e-12))
    steps = [dtau] * n_full
    rest = duration - n_full * dtau
    if rest > 1e-12 * max(duration, 1.0):
        steps.append(rest)

    taus = [0.0]
    path = [track.coords[-1].astype(float)]
    for h in steps:
        path.append(rk_step(path[-1], taus[-1], h, field, order))
        taus.append(taus[-1] + h)
    return np.array(taus), np.array(path)


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------

def poly_to_dict(poly) -> dict:
    """One axis of a reconstruction; its "cells" are an axis of reconstruct's
    JSON."""
    return {
        "degree": poly.degree,
        "cells": [
            {"center": float(center), "width": float(width), "coeffs": c.tolist()}
            for c, center, width in zip(poly.coeffs, poly.mesh.barycenters, poly.mesh.widths)
        ],
    }


def reconstruct_doc(pairs, degree: int, limiter: str) -> dict:
    """The document ``shotr reconstruct`` writes, from (track, polys) pairs."""
    return {
        "degree": degree,
        "limiter": limiter,
        "tracks": {
            track.track_id: {
                "dim": track.dim,
                "degree_used": polys[0].degree,
                "axes": [poly_to_dict(p)["cells"] for p in polys],
            }
            for track, polys in pairs
        },
    }


def reconstruct_json(pairs, degree: int, limiter: str) -> str:
    return json.dumps(reconstruct_doc(pairs, degree, limiter), indent=2) + "\n"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _pad3(values) -> list[float]:
    vals = [float(v) for v in values]
    return vals + [0.0] * (3 - len(vals))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def kinematics_csv(pairs) -> str:
    """``shotr kinematics`` output from (track, polys) pairs: one row per
    KinematicSample, each value formatted on its own."""
    header = ["track", "t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "speed"]
    return _csv_text(header, (
        [track.track_id, _fmt(s.t)]
        + [_fmt(v) for v in _pad3(s.position)]
        + [_fmt(v) for v in _pad3(s.velocity)]
        + [_fmt(v) for v in _pad3(s.acceleration)]
        + [_fmt(s.speed)]
        for track, polys in pairs for s in sample_dense(polys)
    ))


def length_csv(pairs) -> str:
    """``shotr length`` output from (track, polys) pairs: one row per track."""
    return _csv_text(["track", "length"],
                     ([track.track_id, _fmt(trajectory_length(polys))] for track, polys in pairs))


def summary_csv(pairs) -> str:
    """``shotr summary`` output from (track, polys) pairs: one row per
    VelocitySummary, each value formatted on its own."""
    rows = []
    for track, polys in pairs:
        s = summarize(polys, split_axes(track))
        rows.append([track.track_id, _fmt(s.v_l)]
                    + [_fmt(v) for v in _pad3(s.v_d)]
                    + [_fmt(v) for v in _pad3(s.v_m)]
                    + [_fmt(s.length), _fmt(s.duration)])
    header = ["track", "vL", "vD_x", "vD_y", "vD_z", "vM_x", "vM_y", "vM_z", "L", "duration"]
    return _csv_text(header, rows)
