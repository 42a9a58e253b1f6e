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
own Newton steps.  ``minimize``'s start guard is the one place saturation
is handled: it rescales an initial state whose peak cell log-density exceeds
LOG_MAX - 20 by (2 / peak)^(1/2), which brings a log-density quadratic in
|xi| to a peak of 2, with a warning in the trace.  No step raises log E,
which is at least every cell log-density + 2 ln h, so no cell reaches
LOG_MAX while n <= 22,027.  Amplitude sweeps warm-start each amplitude from the previous
solved field, scaled by the amplitude ratio.

Energy, gradient and Hessian-vector assembly and the solver's inner products
reduce with numpy's pairwise summation in a fixed order, never through BLAS,
so results are bit-reproducible run to run and across BLAS thread counts.

Each quantity is computed once where its inputs stay fixed:
- per geometry (side, n, origin): the node and cell-centre coordinates,
  read-only and shared by every ``Grid`` of that geometry, and the p = 2
  preconditioner's eigenvalues per n.  Both caches are bounded
  ``functools.lru_cache``s keyed by these values, hold only read-only
  arrays, are not stored on a ``Grid`` and fill on first use.
  A ``Coefficient`` keeps its values on the shared cell centres, so a sweep
  on one geometry evaluates each coefficient expression once;
- per solve: the boundary data, evaluated by ``minimize`` and handed to the
  objective as its frame;
- per evaluated point: the cell gradients, which the Newton step's Hessian
  reuses for the point the line search accepted.
``field_stats`` computes on the index windows of its balls only.

The module needs numpy only: the p = 2 oracle ``harmonic_direct_solve`` is a
dense eigendecomposition solve, and no code path imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .growth import GrowthTriple, paper_triple
from .integrand import Ball, IntegrandFamily, LOG_MAX

_C1 = 1e-4               # sufficient-decrease constant
_BACKTRACK = 0.5         # step shrink factor
_FORCING_MAX = 0.1       # loosest relative residual of the inner solve
_INNER_MAX = 200         # PCG steps per Newton step
# hess_qf directions (1, 0), (1, 1), (1, -1): H11 and the cell diagonals' blocks
_DIAGONAL_DIRECTIONS = (np.array([1.0, 1.0, 1.0])[:, None, None], np.array([0.0, 1.0, -1.0])[:, None, None])


class GeometryError(ValueError):
    """Requested measurement ball does not fit inside the grid, or holds no
    cell centre or no interior node of it."""


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
        """Node coordinates (X, Y), n x n, indexing "ij": read-only arrays shared
        by every grid of the same side, n and origin."""
        return _coords(self.side, self.n, self.x0, self.y0)[0]

    def cell_coords(self):
        """Cell-centre coordinates (XC, YC), (n - 1) x (n - 1), indexing "ij":
        read-only arrays shared by every grid of the same side, n and origin."""
        return _coords(self.side, self.n, self.x0, self.y0)[1]

    def boundary_values(self) -> np.ndarray:
        """The boundary data on every node, as an array the caller owns."""
        X, Y = self.node_coords()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the test below decides
            vals = np.asarray(self.boundary(X, Y), float)
        if not np.all(np.isfinite(vals[self.boundary_mask()])):
            raise ValueError("boundary data must be finite on all boundary nodes")
        return vals if vals.flags.writeable else vals.copy()  # data "x" returns the shared X itself

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m

    def center(self):
        return self.x0 + self.side / 2, self.y0 + self.side / 2

    def scaled_boundary(self, factor: float) -> "Grid":
        g = self.boundary
        return Grid(self.side, self.n, lambda x, y: factor * g(x, y), self.x0, self.y0)


@functools.lru_cache(maxsize=4)
def _coords(side, n, x0, y0):
    """((X, Y), (XC, YC)) of ``Grid.node_coords`` / ``cell_coords``, read-only."""
    h = side / (n - 1)
    nodes = np.meshgrid(x0 + h * np.arange(n), y0 + h * np.arange(n), indexing="ij")
    cells = np.meshgrid(x0 + h * (np.arange(n - 1) + 0.5), y0 + h * (np.arange(n - 1) + 0.5), indexing="ij")
    for a in (*nodes, *cells):
        a.flags.writeable = False
    return tuple(nodes), tuple(cells)


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
    vals = grid.boundary_values()
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


def _energy(grid: Grid, family: IntegrandFamily, gx, gy, XC, YC):
    """(E, interior gradient as an (n - 2) x (n - 2) array) of discrete_energy,
    from the cell gradients (gx, gy)."""
    vals = family.value(XC, YC, gx, gy)
    wx, wy = family.grad(XC, YC, gx, gy)
    c = grid.h / 2  # the cell's h^2 times the 1/2h of the differences
    return float(np.sum(vals) * grid.h**2), _scatter(c * (wx + wy), c * (wx - wy))


def discrete_energy(grid: Grid, family: IntegrandFamily, u: np.ndarray):
    """(E, G): E = sum over cells of f(x_c, Du_c) h^2 for the nodal values u,
    and G its exact gradient in the nodal values, zero on the boundary nodes
    (Dirichlet constraint)."""
    E, g = _energy(grid, family, *cell_gradients(grid, u), *grid.cell_coords())
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
    energy Hessian for the Newton steps.  ``frame`` holds the boundary values
    (its interior is never read); the cell gradients of the last evaluated
    point are kept, and ``hessian`` reuses them when it is given that same
    array."""

    def __init__(self, grid: Grid, family: IntegrandFamily, frame: np.ndarray):
        self.grid = grid
        self.family = family
        self.log_domain = family.log_domain
        self.XC, self.YC = grid.cell_coords()
        self._frame = frame
        self._last = (None, None, None)  # (evaluated point, gx, gy)

    def assemble(self, interior_flat: np.ndarray) -> np.ndarray:
        u = self._frame.copy()
        u[1:-1, 1:-1] = interior_flat.reshape(self.grid.n - 2, -1)
        return u

    def __call__(self, interior_flat: np.ndarray):
        grid, fam = self.grid, self.family
        gx, gy = cell_gradients(grid, self.assemble(interior_flat))
        self._last = (interior_flat, gx, gy)
        if not self.log_domain:
            E, g = _energy(grid, fam, gx, gy, self.XC, self.YC)
            return E, g.ravel()
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
        """((h_aa, h_ab, h_bb), D): the energy Hessian's cell blocks h^2 f_xixi
        on the cell diagonals (a, b) of ``_diagonals`` (over E in the log
        domain, where ``value`` is log E, so that the Newton step is E's own),
        and per node the mean of the cell slope (H11 + H22) / 2 over its four
        cells, halved and in the blocks' scale: 1 at p = 2.  A cell's block is
        [[q(1, 1), q(1, 0) - q(0, 1)], [., q(1, -1)]] / 4, q the form of
        f_xixi: the cell's h^2 cancels the 1/h^2 of the differences."""
        z, gx, gy = self._last
        if z is not interior_flat:
            gx, gy = cell_gradients(self.grid, self.assemble(interior_flat))
        q11, qpp, qpm = self.family.hess_qf(self.XC, self.YC, gx, gy, *_DIAGONAL_DIRECTIONS)
        scale = 0.25 * (math.exp(-value) if self.log_domain else 1.0)
        blocks = scale * qpp, scale * (2 * q11 - 0.5 * (qpp + qpm)), scale * qpm
        c = (qpp + qpm) * (scale / 8)  # not from the blocks: in the log domain that rounds differently
        return blocks, (c[:-1, :-1] + c[:-1, 1:] + c[1:, :-1] + c[1:, 1:]).ravel()

    def raw_grad_inf(self, value, grad_interior) -> float:
        """Infinity norm of the energy gradient (not the log-energy one); a
        zero gradient is zero in either scale."""
        ginf = float(np.max(np.abs(grad_interior)))
        if not self.log_domain or ginf == 0:
            return ginf
        return math.exp(value) * ginf if value <= LOG_MAX else math.inf


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's pairwise summation, not BLAS ddot: the result must not depend on
    # the BLAS thread count
    return float(np.sum(a * b))


@functools.lru_cache(maxsize=4)
def _p2_inverse_eigenvalues(n: int) -> np.ndarray:
    """1 / eigenvalue of ``_p2_stiffness_inverse``, times the inverse
    transform's normalization, read-only."""
    m = n - 2
    c = np.cos(np.pi * np.arange(1, m + 1) / (n - 1))
    inv_eig = 1.0 / ((2.0 - 2.0 * np.outer(c, c)) * (2 * (m + 1)) ** 2)
    inv_eig.flags.writeable = False
    return inv_eig


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
    signs cancel, on extension and spectrum buffers reused across the calls
    of one map.  The eigenvalues are cached per n; the buffers are not, so
    each solve has its own.
    """
    m = n - 2
    inv_eig = _p2_inverse_eigenvalues(n)
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


def _truncated_pcg(blocks, D, g, forcing, precondition, trace):
    """Inexact Newton direction: PCG on H d = -g from d = 0, H the Hessian of
    the cell ``blocks`` (h_aa, h_ab, h_bb), preconditioned by
    D^{-1/2} P D^{-1/2} (P the p = 2 stiffness inverse), to relative residual
    ``forcing``.  Non-positive curvature on the first step falls back to -P g
    (Steihaug), later it keeps the iterate.  D has a floor for nodes whose
    four cells are flat (the very degenerate plateau)."""
    haa, hab, hbb = blocks
    m = haa.shape[0] - 1
    V = np.zeros((m + 2, m + 2))  # zero-padded direction, one buffer for every product
    scale = 1.0 / np.sqrt(np.maximum(D, 1e-3 * float(np.max(D)) + 1e-300))
    d = np.zeros_like(g)
    r = g.copy()
    z = scale * precondition(scale * r)
    rz = _dot(r, z)
    p = -z
    stop = forcing * math.sqrt(_dot(g, g))
    for k in range(_INNER_MAX):
        V[1:-1, 1:-1] = p.reshape(m, m)
        a, b = _diagonals(V)
        Hp = _scatter(haa * a + hab * b, hab * a + hbb * b).ravel()
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
    accepted t, the point being the array the objective evaluated, or None
    after 60 halvings.  A decrease below the float resolution of F cannot
    rank a trial; a gradient of at most half the norm then decides."""
    gg, slope, t = _dot(g, g), _dot(g, d), 1.0
    for _bt in range(60):
        z1 = z + t * d
        F1, g1 = objective(z1)
        trace.objective_evals += 1
        resolved = F - F1 > 8 * np.finfo(float).eps * abs(F)
        if F1 <= F + _C1 * t * slope if resolved else F1 <= F and _dot(g1, g1) <= 0.25 * gg:
            return z1, F1, g1
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
        d = _truncated_pcg(*objective.hessian(z, F), g, forcing, precondition, trace)
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
    trace (the achieved gradient norm and the stop reason), not raised.  An
    initial guess off the boundary data, or a log-domain one whose peak
    log-density is beyond float range, raises ValueError.
    """
    trace = SolveTrace()
    u = bilinear_interpolant(grid) if u0 is None else u0
    # the objective's frame: only its boundary nodes, the data, are read
    bvals = u.values if u0 is None else grid.boundary_values()
    mask = grid.boundary_mask()
    if not np.allclose(u.values[mask], bvals[mask], rtol=0, atol=1e-12):
        raise ValueError("initial guess violates the boundary constraint")

    # saturation guard: rescale the whole problem until the initial state is
    # comfortably representable, and say so
    if family.log_domain:
        with np.errstate(over="ignore", invalid="ignore"):  # the test below decides
            smax = float(np.max(family.log_value(*grid.cell_coords(), *cell_gradients(grid, u.values))))
        if not math.isfinite(smax):
            raise ValueError("initial state too steep: its peak log-density exceeds float range")
        if smax > LOG_MAX - 20:
            # a log-density quadratic in |xi| peaks at 2 after this rescale,
            # so the gradient tolerance stays reachable in double precision
            factor = (2.0 / smax) ** 0.5
            grid = grid.scaled_boundary(factor)
            bvals = grid.boundary_values()
            u = DiscreteField(grid, factor * u.values)
            trace.rescale_factor = factor
            trace.warnings.append(
                f"exponential energy saturated at the initial state; boundary amplitude "
                f"rescaled by {factor:.6g}"
            )

    objective = _Objective(grid, family, bvals)
    z, F, g = _newton(objective, u.values[1:-1, 1:-1].ravel(), opts, trace, _p2_stiffness_inverse(grid.n))

    trace.final_energy = F if not objective.log_domain else math.exp(F) if F <= LOG_MAX else math.inf
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


def _window(c: float, r: float, h: float, offset: float, lo: int, hi: int) -> slice:
    """The indices lo <= i < hi of the points (i + offset) h within r of c,
    widened by one index on each side against rounding."""
    return slice(max(lo, math.floor((c - r) / h - offset) - 1), min(hi, math.ceil((c + r) / h - offset) + 2))


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

    Ball membership is by cell-center (resp. node) distance to the center;
    a B_rho without a cell centre or an interior node raises GeometryError.
    Only the index windows around B_R's cells and B_rho's interior nodes are
    computed; each sum takes the same elements in the same order as over the
    whole grid.
    """
    if not 0 < rho < R:
        raise GeometryError(f"need 0 < rho < R, got rho={rho}, R={R}")
    cx, cy = center if center is not None else grid.center()
    _check_ball_inside(grid, cx, cy, R)
    if triple is None:
        triple = paper_triple(family, Ball(cx, cy, R))
    h, n = grid.h, grid.n
    ci, cj = _window(cx - grid.x0, R, h, 0.5, 0, n - 1), _window(cy - grid.y0, R, h, 0.5, 0, n - 1)
    ni, nj = _window(cx - grid.x0, rho, h, 0.0, 1, n - 1), _window(cy - grid.y0, rho, h, 0.0, 1, n - 1)
    XC, YC = (a[ci, cj] for a in grid.cell_coords())
    gx, gy = cell_gradients(grid, u.values[ci.start : ci.stop + 1, cj.start : cj.stop + 1])
    dist2 = (XC - cx) ** 2 + (YC - cy) ** 2
    inner_cells = dist2 <= rho * rho
    outer_cells = dist2 <= R * R
    XN, YN = (a[ni, nj] for a in grid.node_coords())
    inner_nodes = (XN - cx) ** 2 + (YN - cy) ** 2 <= rho * rho
    if not (inner_cells.any() and inner_nodes.any()):
        raise GeometryError(f"B_rho holds no cell centre or no interior node: rho = {rho:g}, h = {h:g}")
    tmod = np.hypot(gx, gy)
    sup_grad = float(np.max(tmod[inner_cells]))

    fvals = family.value(XC, YC, gx, gy)
    outer_energy = float(np.sum((1.0 + fvals)[outer_cells]) * h * h)

    # V = 1 + |Du|^(2 gamma) g2(|Du|)^(2 gamma - 1) on inner cells
    g2v = triple.g2(tmod[inner_cells])
    v_integral = float(
        np.sum(1.0 + np.power(tmod[inner_cells], 2 * gamma) * np.power(g2v, 2 * gamma - 1))
        * h
        * h
    )

    # second differences on the window's interior nodes, from it and one more layer
    un = u.values[ni.start - 1 : ni.stop + 1, nj.start - 1 : nj.stop + 1]
    uxx = (un[2:, 1:-1] - 2 * un[1:-1, 1:-1] + un[:-2, 1:-1]) / h**2
    uyy = (un[1:-1, 2:] - 2 * un[1:-1, 1:-1] + un[1:-1, :-2]) / h**2
    uxy = (un[2:, 2:] - un[2:, :-2] - un[:-2, 2:] + un[:-2, :-2]) / (4 * h**2)
    d2 = uxx**2 + 2 * uxy**2 + uyy**2
    dx_n = (un[2:, 1:-1] - un[:-2, 1:-1]) / (2 * h)
    dy_n = (un[1:-1, 2:] - un[1:-1, :-2]) / (2 * h)
    tn = np.hypot(dx_n, dy_n)
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


def harmonic_direct_solve(grid: Grid) -> DiscreteField:
    """Exact minimizer of the p = 2 discrete energy by a direct solve.

    The interior stiffness of ``_p2_stiffness_inverse`` is K = 2 I - S (x) S / 2,
    S the adjacency matrix of a path of n - 2 nodes, so K U = 2 U - S U S / 2
    on the interior values U, and S's eigenvectors Q diagonalise it:
    U = Q ((Q^T R Q) / (2 - lam_i lam_j / 2)) Q^T for the boundary terms R
    (the matrix-decomposition method of Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7, 1970).  A dense symmetric eigensolver and matrix products
    share no code with the ``_diagonals``/``_scatter`` kernels or the
    sine-transform preconditioner, so it is an oracle for the iterative path.
    """
    m = grid.n - 2
    u = grid.boundary_values().copy()  # boundary may return its own array
    u[1:-1, 1:-1] = 0.0
    r = 0.5 * (u[2:, 2:] + u[:-2, :-2] + u[2:, :-2] + u[:-2, 2:])
    lam, Q = np.linalg.eigh(np.eye(m, k=1) + np.eye(m, k=-1))
    u[1:-1, 1:-1] = Q @ ((Q.T @ r @ Q) / (2.0 - 0.5 * np.outer(lam, lam))) @ Q.T
    return DiscreteField(grid, u)


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
    lines.extend(" ".join(map(repr, row)) for row in u.values.tolist())
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
