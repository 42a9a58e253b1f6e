"""Discrete energy minimization on 2D square grids with Dirichlet data.

Discretization: 2x2 node cells with the cell-centered first-order gradient
(the constant-gradient approximation of bilinear elements) and one
quadrature point per cell, so the energy gradient assembly is exact and the
energy is exact on affine fields.  Gradients and Hessian products act on the
cell diagonals a = u[1:, 1:] - u[:-1, :-1], b = u[1:, :-1] - u[:-1, 1:]
(gx, gy = (a + b) / 2h, (a - b) / 2h) and scatter straight onto the interior
nodes.  a joins two nodes of one checkerboard colour, b two of the other: the
colours couple only through the cell Hessian's (a, b) entry (H11 - H22) / 4,
zero at p = 2, which makes the sublattice decoupling explicit.

The minimizer is truncated Newton (inexact Newton-CG): each step solves the
Newton equation on the assembled cell Hessians by conjugate gradients,
preconditioned by the exact inverse of the p = 2 stiffness (a fast sine
transform) scaled by the local slope of the density, and Armijo backtracking
takes the step.  Its step count does not grow with N, and p = 2 converges in
one step.  Log-domain families (the exponential class) are minimized through
the logarithm of the energy (same minimizer, overflow-free) with the energy's
own Newton steps; a saturated initial state triggers an automatic amplitude
rescale with a warning in the trace.  Amplitude sweeps warm-start each
amplitude from the previous solved field, scaled by the amplitude ratio.

Energy, gradient and Hessian-vector assembly and the solver's inner products
reduce with numpy's pairwise summation in a fixed order, never through BLAS,
so results are bit-reproducible run to run and across BLAS thread counts.

Only the sparse assembly ``_cell_matrix`` and the p = 2 oracle built on it,
``harmonic_direct_solve``, import scipy, inside those functions; ``check``,
``params``, ``solve`` and ``validate`` import none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .growth import GrowthTriple, paper_triple
from .integrand import Ball, IntegrandFamily, LOG_MAX, SaturationError

_C1 = 1e-4               # sufficient-decrease constant
_BACKTRACK = 0.5         # step shrink factor
_FORCING_MAX = 0.1       # loosest relative residual of the inner solve
_INNER_MAX = 200         # PCG steps per Newton step
# hess_qf directions (1, 0), (1, 1), (1, -1): H11 and the cell diagonals' blocks
_DIAGONAL_DIRECTIONS = (np.array([1.0, 1.0, 1.0])[:, None, None], np.array([0.0, 1.0, -1.0])[:, None, None])


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

    def __post_init__(self):  # each message starts with the field it rejects
        if self.n < 8:
            raise ValueError(f"n must be at least 8 nodes per side, got {self.n}")
        if not self.side > 0:
            raise ValueError(f"side must be positive, got {self.side}")

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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the test below decides
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


def _diagonals(u: np.ndarray):
    """The diagonal differences (a, b) of every cell: Du = (a + b, a - b) / 2h."""
    return u[1:, 1:] - u[:-1, :-1], u[1:, :-1] - u[:-1, 1:]


def _scatter(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Transpose of ``_diagonals``: cell weights of a, b onto the interior nodes."""
    return wa[:-1, :-1] - wa[1:, 1:] + wb[:-1, 1:] - wb[1:, :-1]


def cell_gradients(grid: Grid, u: np.ndarray):
    # four-corner sums, not (a + b) / 2h, which rounds differently
    h = grid.h
    gx = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2 * h)
    gy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2 * h)
    return gx, gy


def _energy(grid: Grid, family: IntegrandFamily, u: np.ndarray, XC, YC):
    """(E, interior gradient as an (n - 2) x (n - 2) array) of discrete_energy."""
    gx, gy = cell_gradients(grid, u)
    vals = family.value(XC, YC, gx, gy)
    wx, wy = family.grad(XC, YC, gx, gy)
    c = grid.h / 2  # the cell's h^2 times the 1/2h of the differences
    return float(np.sum(vals) * grid.h**2), _scatter(c * (wx + wy), c * (wx - wy))


def discrete_energy(grid: Grid, family: IntegrandFamily, u: np.ndarray):
    """(E, G): E = sum over cells of f(x_c, Du_c) h^2 for the nodal values u,
    and G its exact gradient in the nodal values, zero on the boundary nodes
    (Dirichlet constraint)."""
    E, g = _energy(grid, family, u, *grid.cell_coords())
    return E, np.pad(g, 1)


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 20000
    tolerance: float = 1e-8          # infinity norm of the energy gradient

    def __post_init__(self):  # each message starts with the field it rejects
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")


@dataclass
class SolveTrace:
    """Solve record; ``energies`` holds the per-accepted-step objective values
    (log-energies for the exponential class), nonincreasing along the whole
    solve.  ``stages`` is always 1: every family is minimized in one Newton
    run on its own energy."""

    iterations: int = 0
    converged: bool = False
    final_energy: float = math.nan
    final_grad_norm: float = math.nan
    energies: list = field(default_factory=list)
    rescale_factor: float = 1.0
    warnings: list = field(default_factory=list)
    stages: int = 1
    objective_evals: int = 0       # energy + gradient evaluations
    hessian_products: int = 0      # Hessian-vector products of the inner solves
    backtracks: int = 0            # rejected line-search trials, stalled searches included
    stop_reason: str = ""          # "converged", "max_iter" or "stalled"


class _Objective:
    """Energy + gradient over the interior, optionally in log domain, and the
    energy Hessian for the Newton steps."""

    def __init__(self, grid: Grid, family: IntegrandFamily):
        self.grid = grid
        self.family = family
        self.log_domain = family.log_domain
        self.XC, self.YC = grid.cell_coords()
        self._frame = grid.boundary_values()  # interior overwritten by assemble
        self._V = np.zeros((grid.n, grid.n))  # zero-padded direction of the Hessian products

    def assemble(self, interior_flat: np.ndarray) -> np.ndarray:
        u = self._frame.copy()
        u[1:-1, 1:-1] = interior_flat.reshape(self.grid.n - 2, -1)
        return u

    def __call__(self, interior_flat: np.ndarray):
        grid, fam = self.grid, self.family
        u = self.assemble(interior_flat)
        if not self.log_domain:
            E, g = _energy(grid, fam, u, self.XC, self.YC)
            return E, g.ravel()
        gx, gy = cell_gradients(grid, u)
        s = fam.log_value(self.XC, self.YC, gx, gy)
        smax = float(np.max(s))
        w = np.exp(s - smax)
        total = np.sum(w)
        logE = smax + math.log(float(total)) + 2 * math.log(grid.h)
        w *= 0.5 / (grid.h * total)
        # grad log E = sum_c softmax_c * (d s_c / d u); the xi factor is
        # already inside grad_coeff_over_f
        cwx, cwy = fam.grad_coeff_over_f(self.XC, self.YC, gx, gy)
        return logE, _scatter(w * (cwx + cwy), w * (cwx - cwy)).ravel()

    def hessian(self, interior_flat: np.ndarray, value: float):
        """(Hv, D): the energy Hessian as a map on interior vectors (cell blocks
        h^2 f_xixi, over E in the log domain, where ``value`` is log E, so that
        the Newton step is E's own), and per node the mean of the cell slope
        (H11 + H22) / 2 over its four cells, halved: 1 at p = 2.  On a cell's
        diagonals (a, b) the block is [[q(1, 1), q(1, 0) - q(0, 1)], [., q(1, -1)]] / 4,
        q the form of f_xixi: the cell's h^2 cancels the 1/h^2 of the differences."""
        m = self.grid.n - 2
        gx, gy = cell_gradients(self.grid, self.assemble(interior_flat))
        q11, qpp, qpm = self.family.hess_qf(self.XC, self.YC, gx, gy, *_DIAGONAL_DIRECTIONS)
        scale = 0.25 * (math.exp(-value) if self.log_domain else 1.0)
        haa, hbb, hab = scale * qpp, scale * qpm, scale * (2 * q11 - 0.5 * (qpp + qpm))

        def product(v):
            self._V[1:-1, 1:-1] = v.reshape(m, m)
            a, b = _diagonals(self._V)
            return _scatter(haa * a + hab * b, hab * a + hbb * b).ravel()

        c = (qpp + qpm) / 32
        return product, (c[:-1, :-1] + c[:-1, 1:] + c[1:, :-1] + c[1:, 1:]).ravel()

    def raw_grad_inf(self, value, grad_interior) -> float:
        """Infinity norm of the energy gradient (not the log-energy one)."""
        ginf = float(np.max(np.abs(grad_interior)))
        if not self.log_domain:
            return ginf
        return math.exp(value) * ginf if value <= LOG_MAX else math.inf


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
    The returned map takes and returns flat interior vectors.  A 1-D sine
    transform is minus the imaginary part of the real FFT of the odd extension
    (scipy.fft's DST-I without its ~24 MB import); four run per call, so the
    signs cancel, on extension and spectrum buffers reused across calls.
    """
    m = n - 2
    c = np.cos(np.pi * np.arange(1, m + 1) / (n - 1))
    # 1 / eigenvalue, times the inverse transform's normalization
    inv_eig = 1.0 / ((2.0 - 2.0 * np.outer(c, c)) * (2 * (m + 1)) ** 2)
    ext = np.zeros((m, 2 * (m + 1)))
    spec = np.empty((m, m + 2), complex)

    def sine_2d(x: np.ndarray) -> np.ndarray:  # a view of spec, sign flips paired
        for _axis in range(2):
            x = x.T
            ext[:, 1 : m + 1] = x
            np.negative(x[:, ::-1], out=ext[:, m + 2 :])
            x = np.fft.rfft(ext, out=spec)[:, 1 : m + 1].imag
        return x

    def apply(g: np.ndarray) -> np.ndarray:
        return sine_2d(sine_2d(g.reshape(m, m)) * inv_eig).ravel()

    return apply


def _truncated_pcg(hess, D, g, forcing, precondition, trace):
    """Inexact Newton direction: PCG on H d = -g from d = 0, preconditioned by
    D^{-1/2} P D^{-1/2} (P the p = 2 stiffness inverse), to relative residual
    ``forcing``.  Non-positive curvature on the first step falls back to -P g
    (Steihaug), later it keeps the iterate.  D has a floor for nodes whose
    four cells are flat (the very degenerate plateau)."""
    scale = 1.0 / np.sqrt(np.maximum(D, 1e-3 * float(np.max(D)) + 1e-300))
    d = np.zeros_like(g)
    r = g.copy()
    z = scale * precondition(scale * r)
    rz = _dot(r, z)
    p = -z
    stop = forcing * math.sqrt(_dot(g, g))
    for k in range(_INNER_MAX):
        Hp = hess(p)
        trace.hessian_products += 1
        curv = _dot(p, Hp)
        if not curv > 0:
            return -precondition(g) if k == 0 else d
        d += (rz / curv) * p
        r += (rz / curv) * Hp
        if math.sqrt(_dot(r, r)) <= stop:
            break
        z = scale * precondition(scale * r)
        rz, rz_old = _dot(r, z), rz
        p = (rz / rz_old) * p - z
    return d


def _line_search(objective: _Objective, z, F, g, d, trace: SolveTrace):
    """Armijo backtracking from z along d: (z + t d, F, grad) at the first
    accepted t, or None after 60 halvings.  A decrease below the float
    resolution of F cannot rank a trial; a gradient of at most half the norm
    then decides.  A trial that saturates is rejected."""
    gg, slope, t = _dot(g, g), _dot(g, d), 1.0
    for _bt in range(60):
        try:
            F1, g1 = objective(z + t * d)
        except SaturationError:
            F1 = math.inf
        trace.objective_evals += 1
        resolved = F - F1 > 8 * np.finfo(float).eps * abs(F)
        if F1 <= F + _C1 * t * slope if resolved else F1 <= F and _dot(g1, g1) <= 0.25 * gg:
            return z + t * d, F1, g1
        trace.backtracks += 1
        t *= _BACKTRACK
    return None


def _newton(objective: _Objective, z: np.ndarray, opts: SolveOptions, trace: SolveTrace, precondition):
    """Truncated Newton from z until the gradient test holds, the iterations
    run out or the line search stalls; returns (z, F, grad).  When no step
    along the Newton direction is accepted, the preconditioned gradient
    direction -P g gets its own line search."""
    F, g = objective(z)
    trace.objective_evals += 1
    trace.energies.append(F)
    forcing, gg_prev = _FORCING_MAX, None
    while objective.raw_grad_inf(F, g) > opts.tolerance and trace.iterations < opts.max_iter:
        gg = _dot(g, g)
        if gg_prev is not None:  # Eisenstat-Walker choice 2: gamma = 0.9, alpha = 2
            forcing = min(_FORCING_MAX, 0.9 * gg / gg_prev)
        try:
            d = _truncated_pcg(*objective.hessian(z, F), g, forcing, precondition, trace)
        except SaturationError:  # the Hessian overflows: take the gradient step
            d = -precondition(g)
        step = _line_search(objective, z, F, g, d, trace) or _line_search(
            objective, z, F, g, -precondition(g), trace
        )
        if step is None:
            trace.warnings.append("line search stalled; returning current iterate")
            break
        (z, F, g), gg_prev = step, gg
        trace.iterations += 1
        trace.energies.append(F)
    return z, F, g


def minimize(
    grid: Grid,
    family: IntegrandFamily,
    u0: Optional[DiscreteField] = None,
    opts: SolveOptions = SolveOptions(),
):
    """Minimize the discrete energy over interior nodes; returns (field, trace).

    The minimizer satisfies the Dirichlet constraint exactly and the energy
    is nonincreasing along the trace.  Non-convergence is reported in the
    trace (the achieved gradient norm and the stop reason), not raised.
    """
    trace = SolveTrace()
    u = bilinear_interpolant(grid) if u0 is None else u0
    bvals = grid.boundary_values()
    mask = grid.boundary_mask()
    if not np.allclose(u.values[mask], bvals[mask], rtol=0, atol=1e-12):
        raise ValueError("initial guess violates the boundary constraint")

    # saturation guard: rescale the whole problem until the initial state is
    # comfortably representable, and say so
    if family.log_domain:
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

    objective = _Objective(grid, family)
    z, F, g = _newton(objective, u.values[1:-1, 1:-1].ravel(), opts, trace, _p2_stiffness_inverse(grid.n))

    trace.final_energy = math.exp(F) if objective.log_domain and F <= LOG_MAX else F
    trace.final_grad_norm = objective.raw_grad_inf(F, g)
    trace.converged = trace.final_grad_norm <= opts.tolerance
    ran_out = trace.iterations >= opts.max_iter
    trace.stop_reason = "converged" if trace.converged else "max_iter" if ran_out else "stalled"
    return DiscreteField(grid, objective.assemble(z)), trace


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
        n_outer_cells=int(np.sum(outer_cells)),
        v_integral=v_integral,
    )


# ---------------------------------------------------------------------------
# Direct linear solve for the quadratic energy (oracle for p = 2)
# ---------------------------------------------------------------------------


def _cell_matrix(n: int, h_aa, h_ab, h_bb):
    """D_a^T (h_aa D_a + h_ab D_b) + D_b^T (h_ab D_a + h_bb D_b) over all n^2 nodes
    (row-major) as scipy.sparse CSR: the sum over cells of h_aa a^2 + 2 h_ab a b
    + h_bb b^2 on the diagonals (a, b) of ``_diagonals``.  The weights are scalars
    or (n - 1) x (n - 1) cell arrays; scipy stores no zero that it computes."""
    from scipy import sparse

    up, low = sparse.eye(n - 1, n, 1), sparse.eye(n - 1, n)  # node i + 1, node i of cell i
    Da = sparse.kron(up, up) - sparse.kron(low, low)
    Db = sparse.kron(up, low) - sparse.kron(low, up)
    Haa, Hab, Hbb = (sparse.diags(np.broadcast_to(h, (n - 1, n - 1)).ravel()) for h in (h_aa, h_ab, h_bb))
    return (Da.T @ (Haa @ Da + Hab @ Db) + Db.T @ (Hab @ Da + Hbb @ Db)).tocsr()


def harmonic_direct_solve(grid: Grid) -> DiscreteField:
    """Exact minimizer of the p = 2 discrete energy by a sparse linear solve.

    The stiffness is ``_cell_matrix`` at h_aa = h_bb = 1/2, h_ab = 0: a node
    couples to itself and its four diagonal neighbours, no explicit zeros.  It
    shares no code with the numpy ``_diagonals``/``_scatter`` kernels or the
    sine-transform preconditioner, so it is an oracle for the iterative path.
    SuperLU orders its symmetric positive definite interior by minimum degree.
    """
    from scipy.sparse.linalg import spsolve

    inner = np.flatnonzero(~grid.boundary_mask().ravel())
    K = _cell_matrix(grid.n, 0.5, 0.0, 0.5)[inner]
    u = grid.boundary_values().flatten()  # a copy: boundary may return its own array
    u[inner] = 0.0
    u[inner] = spsolve(K[:, inner].tocsc(), -(K @ u), permc_spec="MMD_AT_PLUS_A")
    return DiscreteField(grid, u.reshape(grid.n, grid.n))


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
