"""Discrete energies, gradient consistency, the Hessian and preconditioner
kernels, the Newton solve, field statistics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqlab
from pqlab.growth import paper_triple
from pqlab.integrand import (
    LOG_MAX,
    Anisotropic,
    Ball,
    Coefficient,
    DoublePhase,
    Exponential,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
)
from pqlab.solver import (
    DiscreteField,
    FieldStats,
    GeometryError,
    Grid,
    SolveOptions,
    bilinear_interpolant,
    cell_gradients,
    discrete_energy,
    field_stats,
    harmonic_direct_solve,
    load_field,
    minimize,
    save_field,
)
from pqlab.solver import SolveTrace, _Objective, _p2_stiffness_inverse, _truncated_pcg

RNG = np.random.default_rng(411)


def unit_grid(n=17, boundary=lambda x, y: 0.0 * x):
    return Grid(side=1.0, n=n, boundary=boundary)


def nodal_field(grid, fn):
    X, Y = grid.node_coords()
    return DiscreteField(grid, np.asarray(fn(X, Y), float))


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


# --- energies -------------------------------------------------------------------


def test_energy_zero_field_is_zero():
    g = unit_grid()
    u = nodal_field(g, lambda x, y: 0.0 * x)
    assert discrete_energy(g, PLaplacian(2), u.values)[0] == 0.0


def test_energy_affine_field_exact():
    g = unit_grid(21, boundary=lambda x, y: x)
    u = nodal_field(g, lambda x, y: x)
    assert discrete_energy(g, PLaplacian(2), u.values)[0] == pytest.approx(1.0, rel=1e-13)


def test_energy_double_phase_affine_exact():
    g = unit_grid(13, boundary=lambda x, y: x)
    u = nodal_field(g, lambda x, y: x)
    fam = DoublePhase(2.0, 4.0, Coefficient.constant(1.0))
    assert discrete_energy(g, fam, u.values)[0] == pytest.approx(2.0, rel=1e-13)


def test_energy_matches_explicit_loop_accumulation():
    # independent accumulation: plain python loops over cells
    g = unit_grid(9, boundary=lambda x, y: x * y)
    u = nodal_field(g, lambda x, y: x * y + 0.3 * np.sin(3 * x))
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    h = g.h
    total = 0.0
    for i in range(g.n - 1):
        for j in range(g.n - 1):
            xc = (i + 0.5) * h
            yc = (j + 0.5) * h
            gx = (u.values[i + 1, j] + u.values[i + 1, j + 1] - u.values[i, j] - u.values[i, j + 1]) / (2 * h)
            gy = (u.values[i, j + 1] + u.values[i + 1, j + 1] - u.values[i, j] - u.values[i + 1, j]) / (2 * h)
            t = math.hypot(gx, gy)
            total += (t**2 + (xc * xc + yc * yc) * t**3) * h * h
    assert discrete_energy(g, fam, u.values)[0] == pytest.approx(total, rel=1e-13)


def test_energy_saturation_propagates():
    g = unit_grid(9, boundary=lambda x, y: 50.0 * x)
    u = nodal_field(g, lambda x, y: 50.0 * x)
    with pytest.raises(SaturationError):
        discrete_energy(g, Exponential(Coefficient.constant(1.0)), u.values)


# --- gradient consistency --------------------------------------------------------


def grad_families():
    return [
        PLaplacian(2.0),
        PLaplacian(3.0),
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)),
        Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1)),
        PxLaplacian(Coefficient(lambda x, y: 2.0 + 0.2 * x, 0.2)),
        VeryDegenerate(2.0),
    ]


@pytest.mark.parametrize("fam", grad_families(), ids=lambda f: f.kind)
def test_gradient_matches_finite_differences(fam):
    g = unit_grid(11, boundary=lambda x, y: x + 0.5 * y)
    u = nodal_field(g, lambda x, y: x + 0.5 * y)
    u.values[1:-1, 1:-1] += 0.05 * RNG.standard_normal((g.n - 2, g.n - 2))
    G = discrete_energy(g, fam, u.values)[1]
    assert np.all(G[g.boundary_mask()] == 0.0)
    idx = list(zip(*np.where(~g.boundary_mask())))
    step = 1e-6
    for i, j in [idx[k] for k in RNG.choice(len(idx), size=50, replace=False)]:
        up = u.copy()
        um = u.copy()
        up.values[i, j] += step
        um.values[i, j] -= step
        fd = (discrete_energy(g, fam, up.values)[0] - discrete_energy(g, fam, um.values)[0]) / (2 * step)
        scale = max(1.0, abs(fd))
        assert G[i, j] == pytest.approx(fd, abs=1e-6 * scale), (fam.kind, i, j)


def test_gradient_zero_for_constant_field():
    g = unit_grid(9, boundary=lambda x, y: 0 * x + 3.0)
    u = nodal_field(g, lambda x, y: 0 * x + 3.0)
    for fam in grad_families():
        G = discrete_energy(g, fam, u.values)[1]
        assert np.max(np.abs(G)) == 0.0, fam.kind


@pytest.mark.parametrize("n", [12, 33, 129])
def test_direct_harmonic_solve_matches_sparse_stiffness_solve(n):
    # the eigendecomposition solve against a sparse LU of the cell-assembled
    # stiffness, at n = 12 on a grid off the unit square; both forward errors
    # grow with the stiffness's condition number, ~ n^2
    from scipy.sparse.linalg import spsolve

    if n == 12:
        g = Grid(side=0.7, n=12, boundary=lambda x, y: np.exp(x) * np.cos(y) + x * y, x0=-0.3, y0=1.1)
    else:
        g = unit_grid(n, boundary=lambda x, y: np.exp(x) * np.cos(y) + x * y)
    u = harmonic_direct_solve(g).values.ravel()
    inner = np.flatnonzero(~g.boundary_mask().ravel())
    K = _cell_matrix(g.n, 0.5, 0.0, 0.5)[inner]
    K_ii = K[:, inner].tocsc()
    assert np.max(np.abs(K @ u)) <= 1e-13 * np.max(np.abs(K_ii @ u[inner]))
    ref = u.copy()
    ref[inner] = 0.0
    ref[inner] = spsolve(K_ii, -(K @ ref))
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gradient_vanishes_at_direct_harmonic_solve():
    g = unit_grid(17, boundary=lambda x, y: x * x - y * y)
    u = harmonic_direct_solve(g)
    G = discrete_energy(g, PLaplacian(2), u.values)[1]
    assert np.max(np.abs(G)) <= 1e-10


# --- Hessian and preconditioner kernels ---------------------------------------------


def four_corner_grads(w, h):
    gx = (w[1:, :-1] + w[1:, 1:] - w[:-1, :-1] - w[:-1, 1:]) / (2 * h)
    gy = (w[:-1, 1:] + w[1:, 1:] - w[:-1, :-1] - w[1:, :-1]) / (2 * h)
    return gx, gy


def four_corner_forms(grid, family, u):
    """Per cell (q11, q12, q22) of f_xixi at (gx, gy): the off-diagonal by
    polarization of the (1, 0), (0, 1) and (1, 1) forms."""
    XC, YC = grid.cell_coords()
    gx, gy = four_corner_grads(u, grid.h)
    one, zero = np.ones_like(gx), np.zeros_like(gx)
    q11 = family.hess_qf(XC, YC, gx, gy, one, zero)
    q22 = family.hess_qf(XC, YC, gx, gy, zero, one)
    return q11, (family.hess_qf(XC, YC, gx, gy, one, one) - q11 - q22) / 2, q22


def four_corner_hessian(grid, family, u, log_energy=None):
    """The Hessian-vector product and node scaling D assembled on (gx, gy): the
    cell block h^2 f_xixi of ``four_corner_forms``, scattered onto the four
    corners of each cell; both over E when ``log_energy`` is log E."""
    n, h = grid.n, grid.h
    q11, q12, q22 = four_corner_forms(grid, family, u)
    over_E = 1.0 if log_energy is None else math.exp(-log_energy)
    scale = h * h * over_E

    def product(v):
        V = np.zeros((n, n))
        V[1:-1, 1:-1] = v.reshape(n - 2, n - 2)
        vx, vy = four_corner_grads(V, h)
        cx = scale * (q11 * vx + q12 * vy) / (2 * h)
        cy = scale * (q12 * vx + q22 * vy) / (2 * h)
        G = np.zeros((n, n))
        G[1:, :-1] += cx
        G[1:, 1:] += cx
        G[:-1, :-1] -= cx
        G[:-1, 1:] -= cx
        G[:-1, 1:] += cy
        G[1:, 1:] += cy
        G[:-1, :-1] -= cy
        G[1:, :-1] -= cy
        return G[1:-1, 1:-1].ravel()

    c = over_E * (q11 + q22) / 16
    return product, (c[:-1, :-1] + c[:-1, 1:] + c[1:, :-1] + c[1:, 1:]).ravel()


def kernel_families():
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1)
    a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0)
    p_var = Coefficient(lambda x, y: 2.0 + 0.2 * x, 0.2)
    return [
        PLaplacian(2.0),
        PLaplacian(3.5),
        DoublePhase(2.0, 3.0, a_quad),
        MultiPhase(2.0, 3.0, a_quad, 0.7),
        Exponential(a_lin),  # log domain
        PxLaplacian(p_var),
        LogPxLaplacian(p_var),
        VeryDegenerate(2.0),
        Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
        Anisotropic(3.0, base_p=2.5),
    ]


# every case runs the unsmoothed objective; the "-eps=0" suffix keeps the
# test ids stable
@pytest.mark.parametrize("fam", kernel_families(), ids=lambda fam: f"{fam.describe()}-eps=0")
def test_hessian_matches_four_corner_assembly(fam):
    # gradients up to ~2.5 on a 13 x 13 grid: past the plateau of the very
    # degenerate family, far below the exponential's saturation
    g = unit_grid(13, boundary=lambda x, y: 1.2 * x + 0.8 * y)
    rng = np.random.default_rng(7)
    u = bilinear_interpolant(g).values
    u[1:-1, 1:-1] += 0.05 * rng.standard_normal((g.n - 2, g.n - 2))
    objective = _Objective(g, fam, g.boundary_values())
    z = u[1:-1, 1:-1].ravel()
    F = objective(z)[0]
    blocks, D = objective.hessian(z, F)
    ref_product, ref_D = four_corner_hessian(g, fam, u, F if fam.log_domain else None)
    # the sparse assembly of the same forms, polarized onto the cell diagonals:
    # gx, gy = (a + b) / 2h, (a - b) / 2h and the cell's h^2 give
    # h_aa, h_ab, h_bb = (q11 + 2 q12 + q22, q11 - q22, q11 - 2 q12 + q22) / 4
    q11, q12, q22 = four_corner_forms(g, fam, u)
    s = math.exp(-F) if fam.log_domain else 1.0
    K = _cell_matrix(g.n, s * (q11 + 2 * q12 + q22) / 4, s * (q11 - q22) / 4, s * (q11 - 2 * q12 + q22) / 4)
    interior = np.flatnonzero(~g.boundary_mask().ravel())
    K_ii = K[interior][:, interior]
    H_ii = _cell_matrix(g.n, *blocks)[interior][:, interior]
    for _ in range(3):
        v = rng.standard_normal(z.size)
        ref = ref_product(v)
        assert np.max(np.abs(H_ii @ v - ref)) <= 1e-13 * np.max(np.abs(ref)), fam.kind
        assert np.max(np.abs(K_ii @ v - ref)) <= 1e-13 * np.max(np.abs(ref)), fam.kind
    np.testing.assert_allclose(D, ref_D, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref_D)))


def test_hessian_after_another_point_matches_a_fresh_objective():
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    g = unit_grid(13, boundary=lambda x, y: 1.2 * x + 0.8 * y)
    rng = np.random.default_rng(8)
    z1, z2 = (bilinear_interpolant(g).values[1:-1, 1:-1].ravel() + 0.05 * rng.standard_normal(121) for _ in range(2))
    objective = _Objective(g, fam, g.boundary_values())
    F1 = objective(z1)[0]
    F2 = objective(z2)[0]
    # z1 is no longer the last point evaluated, and a copy of z2 is another array
    for z, F in ((z1, F1), (z2, F2), (z2.copy(), F2)):
        blocks, D = objective.hessian(z, F)
        ref_blocks, ref_D = _Objective(g, fam, g.boundary_values()).hessian(z, F)
        for block, ref_block in zip(blocks, ref_blocks, strict=True):
            np.testing.assert_array_equal(block, ref_block)
        np.testing.assert_array_equal(D, ref_D)


def test_inner_solve_direction_solves_the_assembled_hessian():
    # the PCG's own product: at a tight forcing its direction d solves H d = -g
    # for H the sparse assembly of the objective's cell blocks
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    g = unit_grid(13, boundary=lambda x, y: 1.2 * x + 0.8 * y)
    rng = np.random.default_rng(9)
    z = bilinear_interpolant(g).values[1:-1, 1:-1].ravel() + 0.05 * rng.standard_normal(121)
    objective = _Objective(g, fam, g.boundary_values())
    F, grad = objective(z)
    blocks, D = objective.hessian(z, F)
    trace = SolveTrace()
    d = _truncated_pcg(blocks, D, grad, 1e-12, _p2_stiffness_inverse(g.n), trace)
    interior = np.flatnonzero(~g.boundary_mask().ravel())
    H_ii = _cell_matrix(g.n, *blocks)[interior][:, interior]
    assert np.linalg.norm(H_ii @ d + grad) <= 1e-10 * np.linalg.norm(grad)
    assert 1 <= trace.hessian_products < 121


def test_equal_geometries_share_read_only_coordinates():
    a = Grid(1.0, 17, lambda x, y: x)
    b = Grid(1.0, 17, lambda x, y: 2 * y)
    shifted = Grid(1.0, 17, lambda x, y: x, x0=0.25)
    for coords in (Grid.node_coords, Grid.cell_coords):
        assert all(p is q for p, q in zip(coords(a), coords(b)))
        assert not any(arr.flags.writeable for arr in coords(a))
        assert not np.shares_memory(coords(a)[0], coords(shifted)[0])
        np.testing.assert_array_equal(coords(shifted)[0], coords(a)[0] + 0.25)
    # boundary data "x" hands back a copy the caller may write, not the shared X
    vals = a.boundary_values()
    assert vals.flags.writeable and not np.shares_memory(vals, a.node_coords()[0])
    np.testing.assert_array_equal(vals, a.node_coords()[0])


def test_solves_interleaved_across_n_are_bit_identical():
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    opts = SolveOptions(tolerance=1e-9)

    def solve(n):
        return minimize(Grid(1.0, n, lambda x, y: np.sin(3 * x) + y), fam, opts=opts)[0].values

    first = solve(65)
    solve(129)
    np.testing.assert_array_equal(solve(65), first)


def test_preconditioner_does_not_alias_its_workspace():
    apply_inverse = _p2_stiffness_inverse(17)
    x, y = RNG.standard_normal((2, 15 * 15))
    a = apply_inverse(x)
    kept = a.copy()
    b = apply_inverse(y)
    np.testing.assert_array_equal(a, kept)
    assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(apply_inverse(x), kept)


# --- minimize --------------------------------------------------------------------


def test_minimize_zero_boundary_zero_iterations():
    g = unit_grid(17)
    u0 = nodal_field(g, lambda x, y: 0.0 * x)
    for fam in (PLaplacian(2.0), DoublePhase(2.0, 3.0, Coefficient.constant(0.5))):
        u, trace = minimize(g, fam, u0)
        assert trace.iterations == 0
        assert trace.converged
        np.testing.assert_array_equal(u.values, u0.values)


def test_minimize_p2_matches_direct_solve():
    # exp(x) cos(y) is not separable: the initial interpolant is far from
    # the solution and the conjugate gradient loop has real work to do
    g = unit_grid(33, boundary=lambda x, y: np.exp(x) * np.cos(y))
    oracle = harmonic_direct_solve(g)
    assert np.max(np.abs(bilinear_interpolant(g).values - oracle.values)) >= 1e-3
    u, trace = minimize(g, PLaplacian(2), opts=SolveOptions(tolerance=5e-9, max_iter=40000))
    assert trace.converged
    assert np.max(np.abs(u.values - oracle.values)) <= 1e-8


def test_preconditioner_inverts_direct_solve_stiffness():
    # the DST-I inverse must not depend on side or origin, as the stiffness does not
    g = Grid(side=0.7, n=12, boundary=lambda x, y: 0.0 * x, x0=-0.3, y0=1.1)
    interior = np.flatnonzero(~g.boundary_mask().ravel())
    K_ii = _cell_matrix(g.n, 0.5, 0.0, 0.5)[interior][:, interior].toarray()
    apply_inverse = _p2_stiffness_inverse(g.n)
    product = np.column_stack([apply_inverse(col) for col in K_ii.T])
    np.testing.assert_allclose(product, np.eye(interior.size), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [8, 9, 33, 130])
def test_preconditioner_matches_scipy_sine_transforms(n):
    # the numpy real-FFT DST-I against scipy.fft's, which it replaces
    from scipy.fft import dstn, idstn

    m = n - 2
    c = np.cos(np.pi * np.arange(1, m + 1) / (n - 1))
    g = np.random.default_rng(n).standard_normal((m, m))
    ref = idstn(dstn(g, type=1) / (2.0 - 2.0 * np.outer(c, c)), type=1).ravel()
    got = _p2_stiffness_inverse(n)(g.ravel())
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_minimize_p2_converges_in_two_iterations():
    g = Grid(side=0.7, n=65, boundary=lambda x, y: np.exp(x) * np.cos(y), x0=-0.3, y0=1.1)
    u, trace = minimize(g, PLaplacian(2), opts=SolveOptions(tolerance=1e-10))
    assert trace.converged
    assert trace.iterations <= 2
    oracle = harmonic_direct_solve(g)
    assert np.max(np.abs(u.values - oracle.values)) <= 1e-12


def test_minimize_iterations_do_not_grow_with_n():
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    iters = []
    for n in (33, 65, 129):
        g = unit_grid(n, boundary=lambda x, y: np.sin(3 * x) + y)
        _, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-5))
        assert trace.converged
        iters.append(trace.iterations)
    assert max(iters) - min(iters) <= 3, iters


_FIELD_DIGEST = """
import hashlib
import numpy as np
from pqlab.integrand import Coefficient, DoublePhase
from pqlab.solver import Grid, SolveOptions, minimize
g = Grid(1.0, 129, lambda x, y: np.sin(3 * x) + y)
fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
u, _ = minimize(g, fam, opts=SolveOptions(tolerance=1e-7))
print(hashlib.sha256(u.values.tobytes()).hexdigest())
"""


def test_minimize_bit_identical_across_blas_threads():
    # 127^2 interior values: long enough for a threaded BLAS dot product
    src = str(Path(pqlab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", _FIELD_DIGEST], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_minimize_affine_boundary_recovers_affine():
    g = unit_grid(21, boundary=lambda x, y: x + y)
    u, trace = minimize(g, PLaplacian(2), opts=SolveOptions(tolerance=1e-10))
    X, Y = g.node_coords()
    assert trace.converged
    assert np.max(np.abs(u.values - (X + Y))) <= 1e-9


def test_minimize_energy_descent_along_trace():
    g = unit_grid(21, boundary=lambda x, y: np.sin(3 * x) + y)
    for fam in (
        PLaplacian(3.0),
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)),
        Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1)),
    ):
        _, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-7, max_iter=4000))
        en = np.array(trace.energies)
        assert np.all(np.diff(en) <= 0.0), fam.kind


def test_minimize_exponential_beats_affine_interpolant():
    g = unit_grid(33, boundary=lambda x, y: 0.5 * (x + y))
    fam = Exponential(Coefficient.constant(1.0))
    u, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-9, max_iter=8000))
    assert trace.converged
    affine = bilinear_interpolant(g)
    assert trace.final_energy <= discrete_energy(g, fam, affine.values)[0] * (1 + 1e-12)


def test_minimize_exponential_autorescale_on_saturation():
    g = unit_grid(17, boundary=lambda x, y: 60.0 * (x + y))
    fam = Exponential(Coefficient.constant(1.0))
    u, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-9, max_iter=8000))
    assert trace.rescale_factor < 1.0
    assert trace.warnings
    assert trace.converged
    # the returned problem (rescaled) still satisfies its own boundary data
    bv = u.grid.boundary_values()
    np.testing.assert_allclose(u.values[u.grid.boundary_mask()], bv[u.grid.boundary_mask()])


@pytest.mark.parametrize(
    "a, boundary, opts, rescaled",
    [
        (
            Coefficient.constant(1.0),
            lambda x, y: 16.8 * (x + y) + np.sin(3 * x) * y,  # peak log-density 675.3
            SolveOptions(max_iter=50),
            False,
        ),
        (  # the amplitude-80 member of the validator's rescaled-member sweep
            Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1),
            lambda x, y: 80 * (0.35 * (x + y)),
            SolveOptions(tolerance=1e-5, max_iter=30000),
            True,
        ),
    ],
    ids=["just-under-the-guard", "amplitude-80"],
)
def test_log_domain_solve_never_saturates_after_the_start_guard(a, boundary, opts, rescaled):
    # no accepted step raises log E, and log E >= s_c + 2 ln h for every cell, so
    # no cell log-density s_c passes the guarded start's peak by more than
    # 2 ln(n - 1): the Hessian of a later step cannot saturate
    fam = Exponential(a)
    u, trace = minimize(Grid(1.0, 17, boundary), fam, opts=opts)

    def peak(values):
        return float(np.max(fam.log_value(*u.grid.cell_coords(), *cell_gradients(u.grid, values))))

    start = peak(bilinear_interpolant(u.grid).values)
    assert (trace.rescale_factor < 1.0) == rescaled and (rescaled or start >= 670)
    assert trace.iterations > 0 and np.all(np.diff(trace.energies) <= 0.0)
    assert peak(u.values) <= start + 2 * math.log(16) <= LOG_MAX - 20 + 2 * math.log(16)


def test_log_domain_newton_steps_at_large_energy():
    # E ~ 1e284: the node scaling D of the inner solve is in the Hessian's
    # 1/E scale, or its curvature p.Hp underflows to 0 and every step falls
    # back to -P g (275 steps and 2,941 backtracks in that case)
    g = Grid(1.0, 17, lambda x, y: 18 * (x + y) + 0.2 * x * y)
    _, trace = minimize(g, Exponential(Coefficient.constant(1.0)), opts=SolveOptions(max_iter=400))
    assert trace.final_energy > 1e280
    assert trace.iterations <= 30 and trace.backtracks <= 300
    assert np.all(np.diff(trace.energies) <= 0.0)


def test_minimize_comparison_principle_p3():
    g = unit_grid(17, boundary=lambda x, y: np.clip(x * y * 1.5, 0.0, 1.0))
    u, trace = minimize(g, PLaplacian(3.0), opts=SolveOptions(tolerance=3e-8))
    assert trace.converged
    assert u.values.min() >= -1e-6 and u.values.max() <= 1.0 + 1e-6


def test_minimize_all_catalog_families_smoke():
    from pqlab.integrand import LogPxLaplacian, MultiPhase

    pfun = Coefficient(lambda x, y: 2.0 + 0.2 * x, 0.2, "2+0.2*x")
    a = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
    g = unit_grid(17, boundary=lambda x, y: np.sin(2 * x) + 0.5 * y)
    for fam in (LogPxLaplacian(pfun), MultiPhase(2.0, 3.0, a, 0.5), PxLaplacian(pfun)):
        u, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-6, max_iter=8000))
        assert trace.converged, fam.kind
        en = np.array(trace.energies)
        assert np.all(np.diff(en) <= 0.0), fam.kind


def test_minimize_very_degenerate_runs_stages():
    g = unit_grid(17, boundary=lambda x, y: 0.4 * (x + y))
    u, trace = minimize(g, VeryDegenerate(2.0), opts=SolveOptions(tolerance=1e-8))
    assert trace.stages == 1
    assert trace.objective_evals == trace.stages + trace.iterations + trace.backtracks
    # boundary slope 0.4 sqrt(2) < 1: the interpolant is already a global
    # minimizer (zero energy); the solver must finish with zero energy
    assert trace.final_energy <= 1e-15


def test_minimize_very_degenerate_past_plateau():
    # |Du| reaches ~6 > 1: Newton runs on the unsmoothed energy, whose
    # Hessian vanishes on the cells still inside the plateau
    g = unit_grid(33, boundary=lambda x, y: 2 * np.sin(3 * x) + y)
    _, trace = minimize(g, VeryDegenerate(2.0), opts=SolveOptions(tolerance=1e-6))
    assert trace.converged, (trace.final_grad_norm, trace.warnings)
    assert trace.iterations >= 1
    assert np.all(np.diff(trace.energies) <= 0.0)
    assert trace.objective_evals == trace.stages + trace.iterations + trace.backtracks


@pytest.mark.parametrize(
    "p, tolerance, max_iter, reason",
    [
        (2.0, 1e-9, 100, "converged"),
        (4.0, 1e-8, 1, "max_iter"),
        # far below the float floor of the energy and of its gradient
        (4.0, 1e-30, 1000, "stalled"),
    ],
)
def test_minimize_stop_reasons(p, tolerance, max_iter, reason):
    g = unit_grid(17, boundary=lambda x, y: np.sin(3 * x) + y)
    _, trace = minimize(g, PLaplacian(p), opts=SolveOptions(tolerance=tolerance, max_iter=max_iter))
    assert trace.stop_reason == reason
    assert trace.converged == (reason == "converged")
    assert (reason == "stalled") == any("stalled" in w for w in trace.warnings)
    # one first evaluation, one accepted trial per step, and the
    # rejected trials, stalled line searches included
    assert trace.objective_evals == trace.stages + trace.iterations + trace.backtracks
    if reason == "stalled":  # 60 halvings along each of the two directions
        assert trace.backtracks >= 120
    assert trace.hessian_products >= trace.iterations >= 1


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_p_harmonic_oracle_second_order(p):
    # u = |x - x*|^((p - 2)/(p - 1)) is p-harmonic away from x* = (-0.5, -0.5),
    # which lies outside the square; the discrete minimizers converge to it
    # at second order in the max norm
    def exact(x, y):
        return np.hypot(x + 0.5, y + 0.5) ** ((p - 2) / (p - 1))

    errs = []
    for n in (33, 65, 129, 257):
        g = unit_grid(n, boundary=exact)
        u, trace = minimize(g, PLaplacian(p), opts=SolveOptions(tolerance=1e-10))
        assert trace.converged, (n, trace.final_grad_norm, trace.warnings)
        X, Y = g.node_coords()
        errs.append(float(np.max(np.abs(u.values - exact(X, Y)))))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(3)]
    assert min(orders) >= 1.8, (errs, orders)


def test_mesh_error_order_vs_exact_harmonic():
    # boundary exp(x) cos(y) is harmonic but not cubic: truncation visible
    errs = []
    ns = [9, 17, 33]
    for n in ns:
        g = unit_grid(n, boundary=lambda x, y: np.exp(x) * np.cos(y))
        u = harmonic_direct_solve(g)
        X, Y = g.node_coords()
        errs.append(float(np.max(np.abs(u.values - np.exp(X) * np.cos(Y)))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.8 and order2 >= 1.8, (errs, order1, order2)


# --- field stats -----------------------------------------------------------------


def test_field_stats_affine():
    g = unit_grid(33, boundary=lambda x, y: x)
    u = nodal_field(g, lambda x, y: x)
    st = field_stats(g, PLaplacian(2), u, rho=0.2, R=0.4)
    assert st.sup_grad == pytest.approx(1.0, rel=1e-12)
    assert st.w22_weighted == 0.0
    assert st.w22_unweighted == 0.0


def test_field_stats_outer_energy_against_loop():
    g = unit_grid(33, boundary=lambda x, y: x * x - y * y)
    u = harmonic_direct_solve(g)
    st = field_stats(g, PLaplacian(2), u, rho=0.2, R=0.4)
    # second, independently coded accumulation of (1 + |Du|^2) h^2 on B_R
    h = g.h
    total = 0.0
    count = 0
    for i in range(g.n - 1):
        for j in range(g.n - 1):
            xc, yc = (i + 0.5) * h, (j + 0.5) * h
            if (xc - 0.5) ** 2 + (yc - 0.5) ** 2 <= 0.4**2:
                gx = (u.values[i + 1, j] + u.values[i + 1, j + 1] - u.values[i, j] - u.values[i, j + 1]) / (2 * h)
                gy = (u.values[i, j + 1] + u.values[i + 1, j + 1] - u.values[i, j] - u.values[i + 1, j]) / (2 * h)
                total += (1.0 + gx * gx + gy * gy) * h * h
                count += 1
    assert st.n_outer_cells == count
    assert st.outer_energy == pytest.approx(total, rel=1e-13)


def test_field_stats_p2_weight_is_constant_two():
    g = unit_grid(33, boundary=lambda x, y: x * x - y * y)
    u = harmonic_direct_solve(g)
    st = field_stats(g, PLaplacian(2), u, rho=0.25, R=0.45)
    assert st.w22_weighted == pytest.approx(2.0 * st.w22_unweighted, rel=1e-12)
    assert st.g1_at_zero == pytest.approx(2.0)


def test_field_stats_very_degenerate_skips_plateau_exactly():
    g = unit_grid(25, boundary=lambda x, y: 0.3 * x)
    u = nodal_field(g, lambda x, y: 0.3 * x + 0.02 * np.sin(7 * x * y))
    st = field_stats(g, VeryDegenerate(2.0), u, rho=0.2, R=0.4)
    # |Du| < 1 everywhere: the weighted integrand must vanish identically
    assert st.sup_grad < 1.0
    assert st.w22_weighted == 0.0
    assert st.w22_unweighted > 0.0


def whole_grid_field_stats(grid, family, u, rho, R, center, triple, gamma=1.0):
    """field_stats' formula on every cell and interior node, then masked, with
    coordinates built here."""
    cx, cy = center
    h, n = grid.h, grid.n
    XC, YC = np.meshgrid(grid.x0 + h * (np.arange(n - 1) + 0.5), grid.y0 + h * (np.arange(n - 1) + 0.5), indexing="ij")
    XN, YN = np.meshgrid(grid.x0 + h * np.arange(n), grid.y0 + h * np.arange(n), indexing="ij")
    gx, gy = cell_gradients(grid, u.values)
    dist2 = (XC - cx) ** 2 + (YC - cy) ** 2
    inner_cells, outer_cells = dist2 <= rho * rho, dist2 <= R * R
    inner_nodes = (XN[1:-1, 1:-1] - cx) ** 2 + (YN[1:-1, 1:-1] - cy) ** 2 <= rho * rho
    tmod = np.hypot(gx, gy)
    g2v = triple.g2(tmod[inner_cells])
    un = u.values
    uxx = (un[2:, 1:-1] - 2 * un[1:-1, 1:-1] + un[:-2, 1:-1]) / h**2
    uyy = (un[1:-1, 2:] - 2 * un[1:-1, 1:-1] + un[1:-1, :-2]) / h**2
    uxy = (un[2:, 2:] - un[2:, :-2] - un[:-2, 2:] + un[:-2, :-2]) / (4 * h**2)
    d2 = uxx**2 + 2 * uxy**2 + uyy**2
    tn = np.hypot((un[2:, 1:-1] - un[:-2, 1:-1]) / (2 * h), (un[1:-1, 2:] - un[1:-1, :-2]) / (2 * h))
    return FieldStats(
        sup_grad=float(np.max(tmod[inner_cells])),
        w22_weighted=float(np.sum((triple.g1(tn) * d2)[inner_nodes]) * h * h),
        outer_energy=float(np.sum((1.0 + family.value(XC, YC, gx, gy))[outer_cells]) * h * h),
        w22_unweighted=float(np.sum(d2[inner_nodes]) * h * h),
        g1_at_zero=float(triple.g1(0.0)),
        n_outer_cells=int(np.sum(outer_cells)),
        v_integral=float(
            np.sum(1.0 + np.power(tmod[inner_cells], 2 * gamma) * np.power(g2v, 2 * gamma - 1)) * h * h
        ),
    )


@pytest.mark.parametrize(
    "side, n, x0, y0, center, rho, R",
    [
        (1.0, 33, 0.0, 0.0, (0.5, 0.5), 0.2, 0.4),          # centred
        (1.0, 33, 0.0, 0.0, (0.5, 0.5), 0.25, 0.5),         # B_R touches all four edges
        (1.0, 33, 0.0, 0.0, (0.3, 0.62), 0.1, 0.3),         # B_R touches the left edge
        (2.0, 41, -1.3, 0.7, (-0.2, 1.85), 0.3, 0.55),      # shifted origin, off-centre
        (2.0, 41, -1.3, 0.7, (-0.3, 1.7), 0.05, 0.5),       # rho = one h
        (1.0, 33, 0.0, 0.0, (0.5, 0.5), 0.0625, 0.4),       # rho = two h
    ],
)
def test_field_stats_windows_match_the_whole_grid(side, n, x0, y0, center, rho, R):
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: 1.0 + np.exp(np.sin(3 * x) * y), 3.0))
    g = Grid(side, n, lambda x, y: np.sin(2 * x) + x * y, x0, y0)
    u = bilinear_interpolant(g)
    u.values[1:-1, 1:-1] += 0.1 * np.random.default_rng(n).standard_normal((n - 2, n - 2))
    triple = paper_triple(fam, Ball(*center, R))
    st = field_stats(g, fam, u, rho, R, center=center, triple=triple, gamma=1.3)
    assert st == whole_grid_field_stats(g, fam, u, rho, R, center, triple, gamma=1.3)


def test_field_stats_geometry_error():
    g = unit_grid(17, boundary=lambda x, y: x)
    u = nodal_field(g, lambda x, y: x)
    with pytest.raises(GeometryError):
        field_stats(g, PLaplacian(2), u, rho=0.3, R=0.8)
    with pytest.raises(GeometryError):
        field_stats(g, PLaplacian(2), u, rho=0.5, R=0.4)
    # a node sits at the centre, but no cell centre lies within rho of it
    with pytest.raises(GeometryError, match=r"no cell centre or no interior node: rho = 0.001, h = 0.0625"):
        field_stats(g, PLaplacian(2), u, rho=1e-3, R=0.4)


# --- field files -----------------------------------------------------------------


def test_field_file_round_trip_bit_identical(tmp_path):
    g = unit_grid(17, boundary=lambda x, y: np.sin(x) * y)
    u = nodal_field(g, lambda x, y: np.sin(x) * y)
    u.values[1:-1, 1:-1] += RNG.standard_normal((g.n - 2, g.n - 2))
    path = tmp_path / "field.txt"
    save_field(path, u, family_id="p_laplacian(p=2)")
    back = load_field(path)
    assert back.grid.n == g.n and back.grid.side == g.side
    np.testing.assert_array_equal(back.values, u.values)
    # a second write of the loaded field is byte-identical
    path2 = tmp_path / "field2.txt"
    save_field(path2, back, family_id="p_laplacian(p=2)")
    assert path.read_text().split("\n")[6:] == path2.read_text().split("\n")[6:]
