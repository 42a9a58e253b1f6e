"""Density catalog: hand-computed values, finite-difference oracles, Hessian identities."""

import math
from pathlib import Path

import numpy as np
import pytest

from pqlab.integrand import (
    Anisotropic,
    Ball,
    Coefficient,
    DoublePhase,
    Exponential,
    IntegrandFamily,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    ProfileDomainError,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
    radial_bounds,
)

RNG = np.random.default_rng(20240811)


def catalog_families():
    one = Coefficient.constant(1.0)
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, lipschitz=0.1, source="0.5+0.1*x")
    a_quad = Coefficient(lambda x, y: x * x + y * y, lipschitz=3.0, source="x^2+y^2")
    p_var = Coefficient(lambda x, y: 2.0 + 0.25 * (x + 1) / 2, lipschitz=0.125, source="2+0.25*(x+1)/2")
    return [
        PLaplacian(2.0),
        PLaplacian(3.5),
        Exponential(a_lin),
        PxLaplacian(p_var),
        LogPxLaplacian(p_var),
        DoublePhase(2.0, 3.0, a_quad),
        MultiPhase(2.0, 3.0, a_quad, 0.7),
        VeryDegenerate(2.0),
        VeryDegenerate(3.0),
        Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
        Anisotropic(3.0, base_p=2.5),
    ]


def fd_grad(family, x, xi, step):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        g[i] = (family.value(*x, *(xi + e)) - family.value(*x, *(xi - e))) / (2 * step)
    return g


# --- hand-evaluated examples -------------------------------------------------


def test_eval_f_plaplacian_quadratic():
    assert PLaplacian(2).value(0.3, 0.4, 3.0, 4.0) == pytest.approx(25.0)


def test_eval_f_exponential_at_zero():
    fam = Exponential(Coefficient.constant(1.0))
    assert fam.value(0.1, 0.2, 0.0, 0.0) == pytest.approx(1.0)


def test_eval_f_double_phase_hand_value():
    # |xi|^p + a |xi|^q at xi = (1, 0), p=2, q=4, a = 0.5: 1 + 0.5 = 1.5
    fam = DoublePhase(2.0, 4.0, Coefficient.constant(0.5))
    assert fam.value(0.0, 0.0, 1.0, 0.0) == pytest.approx(1.5)


def test_eval_f_exponential_saturates_not_inf():
    fam = Exponential(Coefficient.constant(1.0))
    with pytest.raises(SaturationError):
        fam.value(0.0, 0.0, 40.0, 0.0)


def test_grad_plaplacian_p2():
    np.testing.assert_allclose(PLaplacian(2).grad(0.0, 0.0, 3.0, 4.0), [6.0, 8.0])


def test_grad_zero_at_origin_for_radial_families():
    for fam in catalog_families():
        if not fam.radial:
            continue
        g = fam.grad(0.4, 0.6, 0.0, 0.0)
        np.testing.assert_allclose(g, [0.0, 0.0], err_msg=fam.describe())


def test_grad_exponential_hand_value():
    # d/dxi exp(|xi|^2) at (1, 0) is (2e, 0)
    fam = Exponential(Coefficient.constant(1.0))
    np.testing.assert_allclose(fam.grad(0.0, 0.0, 1.0, 0.0), [2 * math.e, 0.0], rtol=1e-12)


def test_gradient_matches_finite_differences_on_catalog():
    # analytic gradient vs central differences, 100 random probes per family
    for fam in catalog_families():
        for _ in range(100):
            x = RNG.uniform(0.1, 0.9, size=2)
            r = RNG.uniform(0.1, 5.0)
            th = RNG.uniform(0, 2 * math.pi)
            xi = np.array([r * math.cos(th), r * math.sin(th)])
            if fam.kind == "very_degenerate" and abs(r - 1.0) < 0.05:
                continue  # kink of (t-1)_+ breaks the FD oracle only at t = 1
            step = 1e-5 * max(1.0, r)
            ana = np.array(fam.grad(*x, *xi), float)
            num = fd_grad(fam, x, xi, step)
            scale = max(1.0, float(np.linalg.norm(ana)))
            np.testing.assert_allclose(ana, num, atol=1e-6 * scale, err_msg=fam.describe())


# --- Hessian quadratic form --------------------------------------------------


def test_plaplacian_identity_p2_constant():
    for _ in range(10):
        xi = RNG.normal(size=2)
        if np.linalg.norm(xi) < 1e-3:
            continue
        assert PLaplacian(2).hess_qf(0.0, 0.0, *xi, 1.0, 0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_plaplacian_aligned_and_orthogonal(p):
    xi = np.array([1.0, 0.0])
    par = PLaplacian(p).hess_qf(0.0, 0.0, *xi, 1.0, 0.0)
    perp = PLaplacian(p).hess_qf(0.0, 0.0, *xi, 0.0, 1.0)
    assert par == pytest.approx(p * (p - 1), rel=1e-12)
    assert perp == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.5])
def test_plaplacian_identity_general(p):
    # QF == p [ |xi|^2 |lam|^2 + (p-2) (xi.lam)^2 ] |xi|^(p-4)
    fam = PLaplacian(p)
    for _ in range(50):
        xi = RNG.normal(size=2)
        lam = RNG.normal(size=2)
        t = np.linalg.norm(xi)
        if t < 1e-3:
            continue
        expected = p * (t**2 * lam @ lam + (p - 2) * (xi @ lam) ** 2) * t ** (p - 4)
        got = fam.hess_qf(0.0, 0.0, *xi, *lam)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_hessian_sandwich_on_radial_catalog():
    # radial_bounds.lower |lam|^2 <= QF <= radial_bounds.upper |lam|^2
    for fam in catalog_families():
        if not fam.radial:
            continue
        for _ in range(60):
            x = RNG.uniform(0.1, 0.9, size=2)
            t = RNG.uniform(0.05, 4.0)
            th = RNG.uniform(0, 2 * math.pi)
            xi = t * np.array([math.cos(th), math.sin(th)])
            lam = RNG.normal(size=2)
            lo, up, _ = radial_bounds(fam, x, t)
            qf = fam.hess_qf(*x, *xi, *lam)
            lam2 = float(lam @ lam)
            slack = 1e-12 * max(1.0, abs(up) * lam2)
            assert lo * lam2 - slack <= qf <= up * lam2 + slack, fam.describe()


def test_convexity_spot_check():
    for fam in catalog_families():
        for _ in range(40):
            x = RNG.uniform(0.1, 0.9, size=2)
            xi = RNG.normal(size=2) * RNG.uniform(0.1, 3.0)
            lam = RNG.normal(size=2)
            if np.linalg.norm(xi) < 1e-6:
                xi = np.array([0.5, 0.1])
            qf = fam.hess_qf(*x, *xi, *lam)
            assert qf >= -1e-12, fam.describe()


def masked_radial_qf(fam, x, y, gx, gy, lx, ly):
    """The radial Hessian form with t = 0 masked out before dividing."""
    t = np.hypot(gx, gy)
    s = fam.profile_slope(x, y, t)
    r = fam.profile_dtt(x, y, t)
    s_lam2 = s * (lx * lx + ly * ly)
    aligned = np.where(t > 0, ((gx * lx + gy * ly) / np.where(t > 0, t, 1.0)) ** 2, 0.0)
    return np.where(t > 0, (r - s) * aligned + s_lam2, s_lam2)


def test_radial_hess_qf_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(12)
    X = rng.uniform(0.1, 0.9, (5, 1, 1, 1))
    Y = rng.uniform(0.1, 0.9, (5, 1, 1, 1))
    T = np.concatenate([[0.0, 1e-300], np.geomspace(1e-3, 4.0, 30)])[None, :, None, None]
    th = rng.uniform(0, 2 * math.pi, (1, 1, 4, 1))
    GX, GY = T * np.cos(th), T * np.sin(th)
    LX, LY = rng.normal(size=(2, 1, 1, 1, 6))
    for fam in catalog_families():
        if not fam.radial:
            continue
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for args in ((X, Y, GX, GY, LX, LY), (0.3, 0.4, 0.0, 0.0, 1.0, -2.0), (0.3, 0.4, 0.6, -0.8, 1.0, -2.0)):
                got = np.asarray(fam.hess_qf(*args))
                ref = np.asarray(masked_radial_qf(fam, *args))
                assert got.shape == ref.shape, fam.describe()
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), fam.describe()


# --- radial bounds and profile cases -----------------------------------------


class SubquadraticPower(PLaplacian):
    """t^p for 1 < p < 2, which the catalog p-Laplacian refuses."""

    def __init__(self, p):
        self.p = float(p)


def test_radial_bounds_power_p_ge_2():
    lo, up, case = radial_bounds(PLaplacian(3.0), (0.2, 0.3), 2.0)
    assert case == "ii"
    assert lo == pytest.approx(3 * 2.0)        # p t^(p-2)
    assert up == pytest.approx(6 * 2.0)        # p (p-1) t^(p-2)


def test_radial_bounds_power_p_below_2_is_case_iii():
    lo, up, case = radial_bounds(SubquadraticPower(1.5), (0.0, 0.0), 1.0)
    assert case == "iii"
    assert lo == pytest.approx(1.5 * 0.5)      # g_tt = p (p-1) t^(p-2)
    assert up == pytest.approx(1.5)            # g_t / t


def test_radial_bounds_exponential():
    t = 1.3
    lo, up, case = radial_bounds(Exponential(Coefficient.constant(1.0)), (0.4, 0.5), t)
    assert case == "ii"
    assert lo == pytest.approx(2 * math.exp(t * t), rel=1e-12)
    assert up == pytest.approx((4 * t * t + 2) * math.exp(t * t), rel=1e-12)


def test_radial_bounds_requires_positive_t():
    with pytest.raises(ProfileDomainError):
        radial_bounds(PLaplacian(3.0), (0, 0), 0.0)


def test_radial_bounds_rejects_non_radial_family():
    # the anisotropic density has no radial profile: a typed rejection, not an AttributeError
    fam = Anisotropic(3.0, base_p=2.5)
    with pytest.raises(ProfileDomainError):
        radial_bounds(fam, (0.2, 0.3), 1.0)


def test_bare_family_is_not_radial():
    # a family that subclasses IntegrandFamily directly supplies no profile
    class Bare(IntegrandFamily):
        kind = "bare"

    assert IntegrandFamily.radial is False and Bare.radial is False
    with pytest.raises(ProfileDomainError):
        radial_bounds(Bare(), (0.2, 0.3), 1.0)


GOLDEN_PROFILES = Path(__file__).with_name("golden_power_sum_profiles.txt")


def power_sum_profile_lines():
    """describe() and the three profile arrays of every power-sum family, one
    line of repr() values per array: repr round-trips a double and keeps the
    sign of zero."""
    a = Coefficient(lambda x, y: x * x + y * y, lipschitz=3.0, source="x^2+y^2")
    X = np.array([[0.0], [0.3], [0.9]])
    Y = np.array([[0.0], [0.7], [0.2]])
    T = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 7.0, 40.0, 300.0])
    fams = [SubquadraticPower(1.5)] + [PLaplacian(p) for p in (2.0, 2.5, 3.0, 4.0, 7.3)]
    fams += [DoublePhase(p, q, a) for p, q in ((2.0, 3.0), (2.0, 4.0), (2.5, 3.7), (3.0, 3.0))]
    fams += [MultiPhase(2.0, 3.0, a, b) for b in (0.5, 0.0)]
    lines = []
    for fam in fams:
        lines.append(f"[{fam.describe()}]")
        for name in ("profile_value", "profile_dtt", "profile_slope"):
            with np.errstate(divide="ignore"):  # t^(p-2) at t = 0 for p < 2
                vals = np.broadcast_to(getattr(fam, name)(X, Y, T), (X.size, T.size))
            lines.append(name + " " + " ".join(repr(float(v)) for v in vals.ravel()))
    return lines


def test_power_sum_profiles_match_golden():
    # recorded from the code before p-Laplacian, double phase and multi phase
    # shared one power-sum profile; compared exactly, sign of zero included
    assert power_sum_profile_lines() == GOLDEN_PROFILES.read_text().splitlines()


def test_multi_phase_third_exponent_is_derived():
    fam = MultiPhase(2.0, 3.0, Coefficient.constant(0.0), 1.0)
    assert fam.r == pytest.approx(4.0)
    # with a == 0 and b = 1: f = t^2 + t^4
    assert fam.value(0.0, 0.0, 2.0, 0.0) == pytest.approx(4.0 + 16.0)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        PLaplacian(1.5)
    with pytest.raises(ValueError):
        DoublePhase(3.0, 2.0, Coefficient.constant(0.0))
    with pytest.raises(ValueError):
        MultiPhase(2.0, 3.0, Coefficient.constant(0.0), -1.0)
    with pytest.raises(ValueError):
        Anisotropic(1.0, base_p=2.0)


def test_very_degenerate_zero_inside_unit_ball():
    fam = VeryDegenerate(2.0)
    assert fam.value(0.0, 0.0, 0.5, 0.5) == 0.0
    np.testing.assert_array_equal(fam.grad(0.0, 0.0, 0.5, 0.5), [0.0, 0.0])
    assert fam.hess_qf(0.0, 0.0, 0.5, 0.5, 1.0, 1.0) == 0.0


def test_coefficient_range_on_ball():
    a = Coefficient(lambda x, y: x + y, lipschitz=math.sqrt(2), source="x+y")
    lo, hi = a.range_on_ball(Ball(0.0, 0.0, 1.0))
    assert lo == pytest.approx(-math.sqrt(2), abs=5e-3)
    assert hi == pytest.approx(math.sqrt(2), abs=5e-3)


def test_coefficient_memo_answers_only_for_the_same_frozen_arrays():
    calls = []

    def fn(x, y):
        calls.append(1)
        return x + 2 * y

    def frozen(a):
        a = np.array(a, float)
        a.flags.writeable = False
        return a

    coef = Coefficient(fn, 2.0)
    X, Y = frozen(RNG.standard_normal((5, 5))), frozen(RNG.standard_normal((5, 5)))
    first = coef(X, Y)
    assert coef(X, Y) is first and len(calls) == 1 and not first.flags.writeable
    # equal values in other arrays, writeable arrays and read-only views all evaluate
    others = (frozen(X), Y), (X.copy(), Y.copy()), (X[:], Y[:])
    for x, y in others:
        np.testing.assert_array_equal(coef(x, y), X + 2 * Y)
    assert len(calls) == 1 + len(others)
    # the kept arrays, made writeable, are not trusted
    coef(X, Y)
    X.flags.writeable = True
    X += 1.0
    np.testing.assert_array_equal(coef(X, Y), X + 2 * Y)
    assert len(calls) == 3 + len(others)
