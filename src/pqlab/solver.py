"""Discrete energy minimization on 2D square grids with Dirichlet data.

Discretization: 2x2 node cells with the cell-centered first-order gradient
(the constant-gradient approximation of bilinear elements) and one
quadrature point per cell, so the energy gradient assembly is exact and the
energy is exact on affine fields.

The minimizer is nonlinear conjugate gradient (Polak-Ribiere+)
preconditioned by the exact inverse of the p = 2 stiffness, which a fast
sine transform applies; its iteration count does not grow with N.  A
backtracking line search polishes every trial by a secant step on the
directional derivative, which makes the method coincide with
preconditioned linear CG on quadratic energies (p = 2 converges in one
step).  Exponential densities are minimized through their logarithm (same
minimizer, overflow-free); a saturated initial state triggers an automatic
amplitude rescale with a warning in the trace.

Energy and gradient assembly and the solver's inner products reduce with
numpy's pairwise summation in a fixed order, never through BLAS, so results
are bit-reproducible run to run and across BLAS thread counts.

scipy is imported inside the functions that call it, never at module top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .growth import GrowthTriple, paper_triple
from .integrand import Ball, Exponential, IntegrandFamily, LOG_MAX


class GeometryError(ValueError):
    """Requested measurement ball does not fit inside the grid."""


@dataclass(frozen=True)
class Grid:
    """Square N x N node grid with Dirichlet boundary data."""

    side: float
    n: int
    boundary: Callable  # (x, y) -> values, vectorized
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 nodes per side, got {self.n}")
        if self.side <= 0:
            raise ValueError("grid side must be positive")

    @property
    def h(self) -> float:
        return self.side / (self.n - 1)

    def node_coords(self):
        xs = self.x0 + self.h * np.arange(self.n)
        ys = self.y0 + self.h * np.arange(self.n)
        return np.meshgrid(xs, ys, indexing="ij")

    def cell_coords(self):
        xs = self.x0 + self.h * (np.arange(self.n - 1) + 0.5)
        ys = self.y0 + self.h * (np.arange(self.n - 1) + 0.5)
        return np.meshgrid(xs, ys, indexing="ij")

    def boundary_values(self) -> np.ndarray:
        X, Y = self.node_coords()
        vals = np.asarray(self.boundary(X, Y), float)
        if not np.all(np.isfinite(vals[self.boundary_mask()])):
            raise ValueError("boundary data must be finite on all boundary nodes")
        return vals

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m

    def center(self):
        return self.x0 + self.side / 2, self.y0 + self.side / 2

    def scaled_boundary(self, factor: float) -> "Grid":
        g = self.boundary
        return Grid(self.side, self.n, lambda x, y: factor * g(x, y), self.x0, self.y0)


@dataclass
class DiscreteField:
    """Nodal values tied to a grid; boundary nodes carry the Dirichlet data."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError("field shape does not match its grid")

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.grid, self.values.copy())


def bilinear_interpolant(grid: Grid) -> DiscreteField:
    """Default initial guess: bilinear blend of the boundary data.

    Finite energy for every catalog family.
    """
    n = grid.n
    vals = grid.boundary_values().copy()
    s = np.linspace(0.0, 1.0, n)
    left, right = vals[0, :], vals[-1, :]
    bottom, top = vals[:, 0], vals[:, -1]
    SX, SY = np.meshgrid(s, s, indexing="ij")
    interp = (
        (1 - SX) * left[None, :]
        + SX * right[None, :]
        + (1 - SY) * bottom[:, None]
        + SY * top[:, None]
        - (1 - SX) * (1 - SY) * vals[0, 0]
        - SX * (1 - SY) * vals[-1, 0]
        - (1 - SX) * SY * vals[0, -1]
        - SX * SY * vals[-1, -1]
    )
    interp[grid.boundary_mask()] = vals[grid.boundary_mask()]
    return DiscreteField(grid, interp)


def cell_gradients(grid: Grid, u: np.ndarray):
    h = grid.h
    gx = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2 * h)
    gy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2 * h)
    return gx, gy


def _accumulate_cells(n: int, h: float, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Chain rule transpose: per-cell gradient weights back to the nodes."""
    G = np.zeros((n, n))
    cx = wx / (2 * h)
    cy = wy / (2 * h)
    G[1:, :-1] += cx
    G[1:, 1:] += cx
    G[:-1, :-1] -= cx
    G[:-1, 1:] -= cx
    G[:-1, 1:] += cy
    G[1:, 1:] += cy
    G[:-1, :-1] -= cy
    G[1:, :-1] -= cy
    return G


def discrete_energy(grid: Grid, family: IntegrandFamily, u: DiscreteField) -> float:
    """sum over cells of f(x_c, Du_c) h^2."""
    XC, YC = grid.cell_coords()
    gx, gy = cell_gradients(grid, u.values)
    vals = family.value(XC, YC, gx, gy)
    return float(np.sum(vals) * grid.h**2)


def discrete_energy_gradient(grid: Grid, family: IntegrandFamily, u: DiscreteField) -> np.ndarray:
    """Exact gradient of discrete_energy in the interior nodal values.

    Boundary entries are zero (Dirichlet constraint).
    """
    XC, YC = grid.cell_coords()
    gx, gy = cell_gradients(grid, u.values)
    wx, wy = family.grad(XC, YC, gx, gy)
    G = _accumulate_cells(grid.n, grid.h, wx * grid.h**2, wy * grid.h**2)
    G[grid.boundary_mask()] = 0.0
    return G


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 20000
    tolerance: float = 1e-8          # infinity norm of the energy gradient
    c1: float = 1e-4                 # sufficient-decrease constant
    backtrack: float = 0.5           # step shrink factor
    epsilon: float = 1e-8            # final modulus-smoothing value
    smoothing_start: float = 1e-2    # first continuation stage

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtracking factor must lie in (0, 1)")


@dataclass
class SolveTrace:
    """Solve record; ``energies`` holds the per-accepted-step objective values
    (log-energies for the exponential class), nonincreasing within a stage."""

    iterations: int = 0
    converged: bool = False
    final_energy: float = math.nan
    final_grad_norm: float = math.nan
    energies: list = field(default_factory=list)
    rescale_factor: float = 1.0
    warnings: list = field(default_factory=list)
    stages: int = 1


class _Objective:
    """Energy + gradient over the interior, optionally in log domain."""

    def __init__(self, grid: Grid, family: IntegrandFamily, eps: float = 0.0):
        self.grid = grid
        self.family = family
        self.eps = float(eps)
        self.log_domain = isinstance(family, Exponential)
        self.XC, self.YC = grid.cell_coords()
        self.interior = ~grid.boundary_mask()
        self._frame = grid.boundary_values()
        self._frame[self.interior] = 0.0

    def assemble(self, interior_flat: np.ndarray) -> np.ndarray:
        u = self._frame.copy()
        u[self.interior] = interior_flat
        return u

    def __call__(self, interior_flat: np.ndarray):
        grid, fam = self.grid, self.family
        u = self.assemble(interior_flat)
        gx, gy = cell_gradients(grid, u)
        if self.log_domain:
            s = fam.log_value(self.XC, self.YC, gx, gy)
            smax = float(np.max(s))
            logE = smax + math.log(float(np.sum(np.exp(s - smax)))) + 2 * math.log(grid.h)
            w = np.exp(s - smax)
            w /= np.sum(w)
            # grad log E = sum_c softmax_c * (d s_c / d u); the xi factor is
            # already inside grad_coeff_over_f
            cwx, cwy = fam.grad_coeff_over_f(self.XC, self.YC, gx, gy)
            G = _accumulate_cells(grid.n, grid.h, w * cwx, w * cwy)
            G[grid.boundary_mask()] = 0.0
            return logE, G[self.interior]
        if self.eps > 0 and self.family.radial:
            vals = fam.value_smoothed(self.XC, self.YC, gx, gy, self.eps)
            wx, wy = fam.grad_smoothed(self.XC, self.YC, gx, gy, self.eps)
        else:
            vals = fam.value(self.XC, self.YC, gx, gy)
            wx, wy = fam.grad(self.XC, self.YC, gx, gy)
        E = float(np.sum(vals) * grid.h**2)
        G = _accumulate_cells(grid.n, grid.h, wx * grid.h**2, wy * grid.h**2)
        G[grid.boundary_mask()] = 0.0
        return E, G[self.interior]

    def raw_grad_inf(self, value, grad_interior) -> float:
        """Infinity norm of the energy gradient (not the log-energy one)."""
        if not self.log_domain:
            return float(np.max(np.abs(grad_interior))) if grad_interior.size else 0.0
        if value > LOG_MAX:
            return math.inf
        return math.exp(value) * float(np.max(np.abs(grad_interior)))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's pairwise summation, not BLAS ddot: the result must not depend on
    # the BLAS thread count
    return float(np.sum(a * b))


def _p2_stiffness_inverse(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the p = 2 interior stiffness on an n x n grid.

    With one-point cell quadrature the stiffness is
    ``(Ku)_ij = 2 u_ij - (sum of the 4 diagonal neighbours) / 2`` for every
    side and origin (it does not depend on h).  The type-I sine transform of
    size n - 2 diagonalises it with eigenvalues
    ``2 - 2 cos(k pi / (n - 1)) cos(l pi / (n - 1))``, k, l = 1 .. n - 2.
    The returned map takes and returns flat interior vectors.
    """
    from scipy.fft import dstn, idstn

    m = n - 2
    c = np.cos(np.pi * np.arange(1, m + 1) / (n - 1))
    eig = 2.0 - 2.0 * np.outer(c, c)

    def apply(g: np.ndarray) -> np.ndarray:
        return idstn(dstn(g.reshape(m, m), type=1) / eig, type=1).ravel()

    return apply


def _ncg(
    objective: _Objective,
    z0: np.ndarray,
    opts: SolveOptions,
    trace: SolveTrace,
    precondition: Callable[[np.ndarray], np.ndarray],
):
    """Preconditioned Polak-Ribiere+ NCG from z0 until the gradient test holds."""
    z = z0.copy()
    F, g = objective(z)
    trace.energies.append(F)
    ginf = objective.raw_grad_inf(F, g)
    if ginf <= opts.tolerance:
        return z, F, ginf, True
    s = precondition(g)
    gs = _dot(g, s)
    d = -s
    t_prev = 1.0
    iters_left = opts.max_iter - trace.iterations
    eps_mach = np.finfo(float).eps
    since_restart = 0
    restart_every = max(100, 2 * int(math.isqrt(max(z.size, 1))))
    for _ in range(iters_left):
        dphi0 = _dot(g, d)
        if dphi0 >= 0 or since_restart >= restart_every:
            d = -s
            dphi0 = -gs
            since_restart = 0
        accepted = False
        t = t_prev
        for _bt in range(60):
            F1, g1 = objective(z + t * d)
            dphi1 = _dot(g1, d)
            # secant step on the directional derivative: exact minimizer for
            # quadratic energies, and free of the cancellation that plagues
            # energy-difference fits near convergence
            denom = dphi1 - dphi0
            t_star = -dphi0 * t / denom if denom > 0 else math.inf
            if 0 < t_star < math.inf and abs(t_star - t) > 1e-9 * t:
                F2, g2 = objective(z + t_star * d)
                if F2 < F1 or (F2 <= F1 and abs(_dot(g2, d)) < abs(dphi1)):
                    t, F1, g1 = t_star, F2, g2
                    dphi1 = _dot(g1, d)
            slack = opts.c1 * t * dphi0
            measurable = -slack > 8 * eps_mach * max(abs(F), abs(F1))
            if F1 <= F + slack or (not measurable and F1 <= F):
                accepted = True
                break
            t = max(min(t_star, t * opts.backtrack), 0.05 * t) if 0 < t_star < t else t * opts.backtrack
        if not accepted:
            trace.warnings.append("line search stalled; returning current iterate")
            break
        z = z + t * d
        t_prev = t
        trace.iterations += 1
        since_restart += 1
        trace.energies.append(F1)
        s_new = precondition(g1)
        gs_new = _dot(g1, s_new)
        beta = max(0.0, _dot(g1, s_new - s) / gs) if gs > 0 else 0.0
        d = -s_new + beta * d
        F, g, s, gs = F1, g1, s_new, gs_new
        ginf = objective.raw_grad_inf(F, g)
        if ginf <= opts.tolerance:
            return z, F, ginf, True
    return z, F, ginf, ginf <= opts.tolerance


def minimize(
    grid: Grid,
    family: IntegrandFamily,
    u0: Optional[DiscreteField] = None,
    opts: SolveOptions = SolveOptions(),
):
    """Minimize the discrete energy over interior nodes; returns (field, trace).

    The minimizer satisfies the Dirichlet constraint exactly and the energy
    is nonincreasing along the trace.  Non-convergence is reported in the
    trace (the achieved gradient norm is recorded), not raised.
    """
    trace = SolveTrace()
    if u0 is None:
        u0 = bilinear_interpolant(grid)
    u = u0.copy()
    bvals = grid.boundary_values()
    mask = grid.boundary_mask()
    if not np.allclose(u.values[mask], bvals[mask], rtol=0, atol=1e-12):
        raise ValueError("initial guess violates the boundary constraint")

    # saturation guard: rescale the whole problem until the initial state is
    # comfortably representable, and say so
    if isinstance(family, Exponential):
        gx, gy = cell_gradients(grid, u.values)
        XC, YC = grid.cell_coords()
        smax = float(np.max(family.log_value(XC, YC, gx, gy)))
        if smax > LOG_MAX - 20:
            # bring the peak log-density down to order one so the gradient
            # tolerance stays reachable in double precision
            factor = (2.0 / smax) ** (1.0 / family.tau)
            grid = grid.scaled_boundary(factor)
            u = DiscreteField(grid, factor * u.values)
            trace.rescale_factor = factor
            trace.warnings.append(
                f"exponential energy saturated at the initial state; boundary amplitude "
                f"rescaled by {factor:.6g}"
            )

    objective = _Objective(grid, family, eps=0.0)
    z = u.values[objective.interior]

    stages = [0.0]
    if family.needs_smoothing and opts.smoothing_start > opts.epsilon:
        eps = opts.smoothing_start
        stages = []
        while eps > opts.epsilon:
            stages.append(eps)
            eps *= 1e-2
        stages.append(opts.epsilon)
    trace.stages = len(stages)

    precondition = _p2_stiffness_inverse(grid.n)
    for eps in stages:
        objective = _Objective(grid, family, eps=eps)
        z, F, ginf, converged = _ncg(objective, z, opts, trace, precondition)

    u_out = DiscreteField(grid, objective.assemble(z))
    final = _Objective(grid, family, eps=0.0)
    Ff, gf = final(z)
    trace.final_energy = (
        math.exp(Ff) if final.log_domain and Ff <= LOG_MAX else Ff
    )
    trace.final_grad_norm = final.raw_grad_inf(Ff, gf)
    trace.converged = trace.final_grad_norm <= opts.tolerance
    return u_out, trace


# ---------------------------------------------------------------------------
# Field statistics on concentric balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldStats:
    sup_grad: float            # sup of |Du| over inner-ball cells
    w22_weighted: float        # sum g1(|Du|) |D^2 u|^2 h^2 over inner-ball nodes
    outer_energy: float        # sum (1 + f) h^2 over outer-ball cells
    w22_unweighted: float      # sum |D^2 u|^2 h^2 over the same nodes
    g1_at_zero: float          # m = g1(0); positive in the nondegenerate case
    n_inner_cells: int
    n_inner_nodes: int
    n_outer_cells: int
    v_integral: float          # sum (1 + |Du|^(2 gamma) g2^(2 gamma - 1)) h^2, gamma from caller


def _check_ball_inside(grid: Grid, cx: float, cy: float, r: float):
    if (
        cx - r < grid.x0 - 1e-12
        or cx + r > grid.x0 + grid.side + 1e-12
        or cy - r < grid.y0 - 1e-12
        or cy + r > grid.y0 + grid.side + 1e-12
    ):
        raise GeometryError(
            f"ball of radius {r:g} at ({cx:g}, {cy:g}) exits the grid "
            f"[{grid.x0:g}, {grid.x0 + grid.side:g}]^2"
        )


def field_stats(
    grid: Grid,
    family: IntegrandFamily,
    u: DiscreteField,
    rho: float,
    R: float,
    center: Optional[tuple] = None,
    triple: Optional[GrowthTriple] = None,
    gamma: float = 1.0,
) -> FieldStats:
    """Measured Theorem quantities: sup |Du| on B_rho, the weighted
    second-derivative sum on B_rho, and the outer energy on B_R.

    Ball membership is by cell-center (resp. node) distance to the center.
    """
    if not 0 < rho < R:
        raise GeometryError(f"need 0 < rho < R, got rho={rho}, R={R}")
    cx, cy = center if center is not None else grid.center()
    _check_ball_inside(grid, cx, cy, R)
    if triple is None:
        triple = paper_triple(family, Ball(cx, cy, R))
    h = grid.h
    XC, YC = grid.cell_coords()
    gx, gy = cell_gradients(grid, u.values)
    dist2 = (XC - cx) ** 2 + (YC - cy) ** 2
    inner_cells = dist2 <= rho * rho
    outer_cells = dist2 <= R * R
    tmod = np.hypot(gx, gy)
    sup_grad = float(np.max(tmod[inner_cells])) if np.any(inner_cells) else 0.0

    fvals = family.value(XC, YC, gx, gy)
    outer_energy = float(np.sum((1.0 + fvals)[outer_cells]) * h * h)

    # V = 1 + |Du|^(2 gamma) g2(|Du|)^(2 gamma - 1) on inner cells
    g2v = triple.g2(tmod[inner_cells])
    v_integral = float(
        np.sum(1.0 + np.power(tmod[inner_cells], 2 * gamma) * np.power(g2v, 2 * gamma - 1))
        * h
        * h
    )

    # second differences on interior nodes only
    un = u.values
    uxx = (un[2:, 1:-1] - 2 * un[1:-1, 1:-1] + un[:-2, 1:-1]) / h**2
    uyy = (un[1:-1, 2:] - 2 * un[1:-1, 1:-1] + un[1:-1, :-2]) / h**2
    uxy = (un[2:, 2:] - un[2:, :-2] - un[:-2, 2:] + un[:-2, :-2]) / (4 * h**2)
    d2 = uxx**2 + 2 * uxy**2 + uyy**2
    dx_n = (un[2:, 1:-1] - un[:-2, 1:-1]) / (2 * h)
    dy_n = (un[1:-1, 2:] - un[1:-1, :-2]) / (2 * h)
    tn = np.hypot(dx_n, dy_n)
    XN, YN = grid.node_coords()
    XN, YN = XN[1:-1, 1:-1], YN[1:-1, 1:-1]
    inner_nodes = (XN - cx) ** 2 + (YN - cy) ** 2 <= rho * rho
    g1n = triple.g1(tn)
    w22 = float(np.sum((g1n * d2)[inner_nodes]) * h * h)
    w22_plain = float(np.sum(d2[inner_nodes]) * h * h)
    return FieldStats(
        sup_grad=sup_grad,
        w22_weighted=w22,
        outer_energy=outer_energy,
        w22_unweighted=w22_plain,
        g1_at_zero=float(triple.g1(0.0)),
        n_inner_cells=int(np.sum(inner_cells)),
        n_inner_nodes=int(np.sum(inner_nodes)),
        n_outer_cells=int(np.sum(outer_cells)),
        v_integral=v_integral,
    )


# ---------------------------------------------------------------------------
# Direct linear solve for the quadratic energy (oracle for p = 2)
# ---------------------------------------------------------------------------


def _p2_stiffness(grid: Grid):
    """Cell-by-cell assembly of the p = 2 stiffness over all n^2 nodes, as a
    scipy.sparse CSR matrix."""
    from scipy import sparse

    n = grid.n
    h = grid.h
    ii, jj = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
    n00 = (ii * n + jj).ravel()
    n01 = (ii * n + jj + 1).ravel()
    n10 = ((ii + 1) * n + jj).ravel()
    n11 = ((ii + 1) * n + jj + 1).ravel()
    corners = np.stack([n00, n01, n10, n11])  # 4 x ncells
    avec = np.array([-1.0, -1.0, 1.0, 1.0]) / (2 * h)
    bvec = np.array([-1.0, 1.0, -1.0, 1.0]) / (2 * h)
    elem = h * h * (np.outer(avec, avec) + np.outer(bvec, bvec))  # 4x4
    ncells = corners.shape[1]
    rows = np.repeat(corners, 4, axis=0).reshape(4, 4, ncells)
    cols = np.tile(corners, (4, 1)).reshape(4, 4, ncells)
    data = np.repeat(elem[:, :, None], ncells, axis=2)
    return sparse.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(n * n, n * n)
    ).tocsr()


def harmonic_direct_solve(grid: Grid) -> DiscreteField:
    """Exact minimizer of the p = 2 discrete energy by a sparse linear solve.

    Assembles the cell stiffness independently of the gradient assembly and
    of the solver's preconditioner, so it serves as an oracle for the
    iterative path.
    """
    from scipy.sparse.linalg import spsolve

    n = grid.n
    K = _p2_stiffness(grid)
    mask = grid.boundary_mask().ravel()
    bvals = grid.boundary_values().ravel()
    idx_i = np.where(~mask)[0]
    idx_b = np.where(mask)[0]
    K_ii = K[idx_i][:, idx_i]
    K_ib = K[idx_i][:, idx_b]
    rhs = -K_ib @ bvals[idx_b]
    ui = spsolve(K_ii.tocsc(), rhs)
    out = bvals.copy()
    out[idx_i] = ui
    return DiscreteField(grid, out.reshape(n, n))


# ---------------------------------------------------------------------------
# Flat text field format
# ---------------------------------------------------------------------------


def save_field(path, u: DiscreteField, family_id: str = ""):
    """Header (n, side, origin, family id) then n rows of n repr() floats."""
    g = u.grid
    lines = [
        "# pqlab field v1",
        f"n = {g.n}",
        f"side = {g.side!r}",
        f"x0 = {g.x0!r}",
        f"y0 = {g.y0!r}",
        f"family = {family_id}",
    ]
    for row in u.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> DiscreteField:
    """Reads the flat format back; values round-trip bit identically."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line and not rows:
                key, _, val = line.partition("=")
                meta[key.strip()] = val.strip()
            else:
                rows.append([float(tok) for tok in line.split()])
    n = int(meta["n"])
    vals = np.array(rows, float)
    if vals.shape != (n, n):
        raise ValueError(f"field file holds {vals.shape} values, expected {n}x{n}")
    frozen = vals.copy()
    side = float(meta["side"])
    x0, y0 = float(meta["x0"]), float(meta["y0"])
    h = side / (n - 1)

    def boundary(x, y):
        ix = np.clip(np.rint((np.asarray(x) - x0) / h).astype(int), 0, n - 1)
        iy = np.clip(np.rint((np.asarray(y) - y0) / h).astype(int), 0, n - 1)
        return frozen[ix, iy]

    grid = Grid(side=side, n=n, boundary=boundary, x0=x0, y0=y0)
    return DiscreteField(grid, vals)
