"""Per-cell reference implementation of the reconstruction, the limiter
and the validation norms and backtrace.

One small dense solve per cell and one candidate set per cell, with the
oscillation indicator integrated by Gauss quadrature; error norms summed
cell by cell and backtrace stepped one RK step at a time. Slow, but
written independently of the array code in ``shotr.recon``,
``shotr.cweno`` and ``shotr.validate``, which the differential tests check
against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from shotr.errors import SingularSystem
from shotr.mesh import StaggeredMesh, build_mesh
from shotr.quadrature import gauss_points
from shotr.recon import _FACT, CellPoly, TaylorBasis, effective_degree, reconstruct_track
from shotr.trajdata import AxisSeries, TrackSeries
from shotr.validate import ErrorNorms, rk_step


class MissingNeighbor(Exception):
    """A one-sided candidate polynomial has no neighbor sample on that side."""


def design_row(basis: TaylorBasis, t: float) -> np.ndarray:
    """Values of all basis functions at time t."""
    u = (t - basis.center) / basis.width
    powers = u ** np.arange(basis.degree + 1)
    return powers / _FACT[: basis.degree + 1]


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


def assemble_clsq(series: AxisSeries, stencil: Stencil, basis: TaylorBasis):
    """Least-squares system (M, B) and interpolation constraints (C, d)."""
    times = series.times[stencil.interface_indices]
    M = np.array([design_row(basis, t) for t in times])
    B = series.values[stencil.interface_indices].copy()
    r0, r1 = stencil.constraint_rows()
    return M, B, M[[r0, r1], :].copy(), B[[r0, r1]].copy()


def _kkt_matrix(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    n, m = M.shape[1], C.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = 2.0 * M.T @ M
    K[:n, n:] = -C.T
    K[n:, :n] = C
    return K


def solve_clsq(M, B, C, d) -> np.ndarray:
    """Minimize ||M s - B|| subject to C s = d via the KKT block system."""
    rhs = np.concatenate([2.0 * M.T @ B, d])
    try:
        sol = np.linalg.solve(_kkt_matrix(M, C), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return sol[: M.shape[1]]


def reconstruction_matrix(M: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Coefficient block of the inverted KKT operator: stencil samples to
    cell coefficients."""
    r0, r1 = stencil.constraint_rows()
    D = np.zeros((2, stencil.size))
    D[0, r0] = 1.0
    D[1, r1] = 1.0
    rhs = np.vstack([2.0 * M.T, D])
    try:
        sol = np.linalg.solve(_kkt_matrix(M, M[[r0, r1], :]), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return sol[: M.shape[1]]


def cell_operator(mesh: StaggeredMesh, i: int, degree: int) -> tuple[Stencil, np.ndarray]:
    """Stencil and operator of one cell, retrying singular systems at lower
    degrees; the operator is zero-padded to degree + 1 rows."""
    center, width = float(mesh.barycenters[i]), float(mesh.widths[i])
    for deg in range(degree, 0, -1):
        basis = TaylorBasis(deg, center, width)
        stencil = build_stencil(mesh, i, deg)
        M = np.array([design_row(basis, t) for t in mesh.interfaces[stencil.interface_indices]])
        try:
            R = reconstruction_matrix(M, stencil)
        except SingularSystem as exc:
            if deg == 1:
                raise SingularSystem(f"cell {i}: {exc}") from exc
            continue
        return stencil, np.vstack([R, np.zeros((degree - deg, stencil.size))])
    raise AssertionError("unreachable")


def reconstruct_axis(series: AxisSeries, degree: int) -> np.ndarray:
    """Unlimited coefficients, (n_cells, N_eff + 1), one solve per cell."""
    n_eff = effective_degree(len(series), degree)
    mesh = build_mesh(series.times)
    rows = []
    for i in range(mesh.n_cells):
        stencil, R = cell_operator(mesh, i, n_eff)
        rows.append(R @ series.values[stencil.interface_indices])
    return np.array(rows)


# ---------------------------------------------------------------------------
# limiter
# ---------------------------------------------------------------------------

def _line(ta, sa, tb, sb, basis: TaylorBasis) -> CellPoly:
    slope = (sb - sa) / (tb - ta)
    coeffs = np.zeros(basis.degree + 1)
    coeffs[0] = sa + slope * (basis.center - ta)
    coeffs[1] = slope * basis.width
    return CellPoly(coeffs, basis)


def one_sided_p1(series: AxisSeries, cell: int, side: str, basis: TaylorBasis) -> CellPoly:
    """Linear candidate anchored at the cell's left interface."""
    t, s = series.times, series.values
    if side == "left":
        if cell == 0:
            raise MissingNeighbor("first cell has no sample left of the cell")
        return _line(t[cell - 1], s[cell - 1], t[cell], s[cell], basis)
    return _line(t[cell], s[cell], t[cell + 1], s[cell + 1], basis)


def central_poly(optimal: CellPoly, left: CellPoly, right: CellPoly, cfg) -> CellPoly:
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
    nodes, weights = gauss_points(a, b, degree + 1)
    sigma = 0.0
    for order in range(1, degree + 1):
        d = _nth_derivative(poly, nodes, order)
        sigma += float(np.dot(weights, d * d))
    return sigma


def make_candidates(optimal: CellPoly, series: AxisSeries, cell: int, cfg):
    """(central, left, right) and their sigmas; a missing left line is
    replaced by the cell's own interpolating line."""
    right = one_sided_p1(series, cell, "right", optimal.basis)
    try:
        left = one_sided_p1(series, cell, "left", optimal.basis)
    except MissingNeighbor:
        left = right
    p0 = central_poly(optimal, left, right, cfg)
    interval = (float(series.times[cell]), float(series.times[cell + 1]))
    sigmas = np.array([oscillation_indicator(p, interval) for p in (p0, left, right)])
    return (p0, left, right), sigmas


def blend(cands, sigmas: np.ndarray, cfg) -> np.ndarray:
    lam = np.array([cfg.lambda_central, cfg.lambda_side, cfg.lambda_side])
    raw = lam / (sigmas + cfg.epsilon) ** cfg.exponent
    omega = raw / raw.sum()
    return sum(w * c.coeffs for w, c in zip(omega, cands))


def limit(coeffs: np.ndarray, series: AxisSeries, cfg) -> np.ndarray:
    """Limited coefficients, one candidate set per cell."""
    mesh = build_mesh(series.times)
    out = []
    for i, c in enumerate(coeffs):
        basis = TaylorBasis(len(c) - 1, float(mesh.barycenters[i]), float(mesh.widths[i]))
        cands, sigmas = make_candidates(CellPoly(c, basis), series, i, cfg)
        out.append(blend(cands, sigmas, cfg))
    return np.array(out)


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
        nodes, weights = gauss_points(lo, hi, quad_points_per_cell)
        pts = np.concatenate([nodes, [lo, hi]])
        err = np.abs(np.asarray(reference(pts)) - np.asarray(candidate(pts)))
        l1 += float(np.dot(weights, err[:-2]))
        l2_sq += float(np.dot(weights, err[:-2] ** 2))
        linf = max(linf, float(err.max()))
    return ErrorNorms(l1, math.sqrt(l2_sq), linf)


def backtrace_path(
    track: TrackSeries, degree: int, dtau: float, order: str | None = None, limiter: str = "none"
) -> tuple[np.ndarray, np.ndarray]:
    """(taus, path) of the backward integration, one RK step per loop pass
    with one scalar velocity lookup per axis and stage."""
    polys = reconstruct_track(track, degree, limiter)
    t0, t1 = polys[0].mesh.span
    duration = t1 - t0
    if order is None:
        order = "rk2" if effective_degree(len(track), degree) == 1 else "rk4"

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
