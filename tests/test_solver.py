"""Discrete energies, gradient consistency, the NCG solve, field statistics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqlab
from pqlab.integrand import (
    Coefficient,
    DoublePhase,
    Exponential,
    PLaplacian,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
)
from pqlab.solver import (
    DiscreteField,
    GeometryError,
    Grid,
    SolveOptions,
    bilinear_interpolant,
    discrete_energy,
    field_stats,
    harmonic_direct_solve,
    load_field,
    minimize,
    save_field,
)
from pqlab.solver import _p2_stiffness, _p2_stiffness_inverse

RNG = np.random.default_rng(411)


def unit_grid(n=17, boundary=lambda x, y: 0.0 * x):
    return Grid(side=1.0, n=n, boundary=boundary)


def nodal_field(grid, fn):
    X, Y = grid.node_coords()
    return DiscreteField(grid, np.asarray(fn(X, Y), float))


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
        discrete_energy(g, Exponential(Coefficient.constant(1.0), 2.0), u.values)


# --- gradient consistency --------------------------------------------------------


def grad_families():
    return [
        PLaplacian(2.0),
        PLaplacian(3.0),
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)),
        Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1), 2.0),
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


def test_gradient_vanishes_at_direct_harmonic_solve():
    g = unit_grid(17, boundary=lambda x, y: x * x - y * y)
    u = harmonic_direct_solve(g)
    G = discrete_energy(g, PLaplacian(2), u.values)[1]
    assert np.max(np.abs(G)) <= 1e-10


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
    K_ii = _p2_stiffness(g)[interior][:, interior].toarray()
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
        Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1), 2.0),
    ):
        _, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-7, max_iter=4000))
        en = np.array(trace.energies)
        assert np.all(np.diff(en) <= 0.0), fam.kind


def test_minimize_exponential_beats_affine_interpolant():
    g = unit_grid(33, boundary=lambda x, y: 0.5 * (x + y))
    fam = Exponential(Coefficient.constant(1.0), 2.0)
    u, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-9, max_iter=8000))
    assert trace.converged
    affine = bilinear_interpolant(g)
    assert trace.final_energy <= discrete_energy(g, fam, affine.values)[0] * (1 + 1e-12)


def test_minimize_exponential_autorescale_on_saturation():
    g = unit_grid(17, boundary=lambda x, y: 60.0 * (x + y))
    fam = Exponential(Coefficient.constant(1.0), 2.0)
    u, trace = minimize(g, fam, opts=SolveOptions(tolerance=1e-9, max_iter=8000))
    assert trace.rescale_factor < 1.0
    assert trace.warnings
    assert trace.converged
    # the returned problem (rescaled) still satisfies its own boundary data
    bv = u.grid.boundary_values()
    np.testing.assert_allclose(u.values[u.grid.boundary_mask()], bv[u.grid.boundary_mask()])


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
    assert trace.stages >= 2
    # boundary slope 0.4 sqrt(2) < 1: the interpolant is already a global
    # minimizer (zero energy); the solver must finish with zero energy
    assert trace.final_energy <= 1e-15


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
    # the first evaluation and at least one trial per accepted step
    assert trace.objective_evals >= trace.iterations + 1
    assert trace.hessian_products >= trace.iterations >= 1


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_p_harmonic_oracle_second_order(p):
    # u = |x - x*|^((p - 2)/(p - 1)) is p-harmonic away from x* = (-0.5, -0.5),
    # which lies outside the square; the discrete minimizers converge to it
    # at second order in the max norm
    def exact(x, y):
        return np.hypot(x + 0.5, y + 0.5) ** ((p - 2) / (p - 1))

    errs = []
    for n in (33, 65, 129):
        g = unit_grid(n, boundary=exact)
        u, trace = minimize(g, PLaplacian(p), opts=SolveOptions(tolerance=1e-10))
        assert trace.converged, (n, trace.final_grad_norm, trace.warnings)
        X, Y = g.node_coords()
        errs.append(float(np.max(np.abs(u.values - exact(X, Y)))))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
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


def test_field_stats_geometry_error():
    g = unit_grid(17, boundary=lambda x, y: x)
    u = nodal_field(g, lambda x, y: x)
    with pytest.raises(GeometryError):
        field_stats(g, PLaplacian(2), u, rho=0.3, R=0.8)
    with pytest.raises(GeometryError):
        field_stats(g, PLaplacian(2), u, rho=0.5, R=0.4)


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
