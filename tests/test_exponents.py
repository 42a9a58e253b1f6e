"""Exponent recipes, admissibility regions, and the iteration bookkeeping."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab.exponents import (
    MU_UNBOUNDED,
    ExponentParams,
    ParamRejection,
    anisotropic_params,
    auto_exponential_params,
    auto_px_params,
    default_params,
    double_phase_params,
    exponential_params,
    is_rejected,
    lambda_sequence,
    moser_exponents,
    nu_upper_bound,
    px_delta,
    select_mu_nu,
    sobolev_context,
)

F = Fraction


# --- default recipe -----------------------------------------------------------


def test_default_params_simplest_choice():
    p = default_params(3, 2, 0)
    assert (p.alpha, p.beta, p.gamma) == (2, 1, 1)
    assert p.two_star == F(6)
    assert p.bounds_ok()


def test_default_params_rejects_delta_at_bound():
    # n = 3: delta must stay below 4/(n(n-2)) = 4/3
    with pytest.raises(ValueError):
        default_params(3, 2, F(4, 3))


def test_default_params_n4_worked_example():
    p = default_params(4, F(22, 10), F(1, 10))
    assert p.beta == F(12, 10)
    assert p.gamma == F(11, 10)
    assert p.bounds_ok()


def test_n2_context_default_has_slack():
    ctx = sobolev_context(2, alpha=2, gamma=1)
    assert ctx.two_star == 8
    ctx2 = sobolev_context(2, alpha=4, gamma=1)
    assert ctx2.two_star == 12


# --- anisotropic and double phase regions --------------------------------------


def test_anisotropic_params_examples():
    ok = anisotropic_params(2, F(5, 2), 3)
    assert ok.alpha == F(5, 2) and ok.beta == F(5, 4) and ok.gamma == 1

    rej = anisotropic_params(2, 4, 3)
    assert is_rejected(rej)
    assert rej.bound == F(5, 3)

    eq = anisotropic_params(3, 3, 5)
    assert eq.alpha == 2 and eq.beta == 1


def test_anisotropic_region_exact_sweep():
    for n in (2, 3, 4, 5):
        bound = F(1) + F(2, n)
        for k in range(100, 201):
            ratio = F(k, 100)
            got = anisotropic_params(100, k, n)
            assert is_rejected(got) == (ratio >= bound), (n, ratio)


def test_double_phase_params_examples():
    ok = double_phase_params(2, 3, 4)
    assert not is_rejected(ok)
    assert ok.alpha == 4 and ok.gamma == 1

    rej = double_phase_params(2, 4, 4)
    assert is_rejected(rej)
    assert rej.bound == F(2)

    same = double_phase_params(3, 3, 3)
    assert same.alpha == 2


def test_double_phase_region_exact_sweep():
    for n in (3, 4, 5):
        bound = F(n, n - 2)
        for k in range(100, 201):
            ratio = F(k, 100)
            got = double_phase_params(100, k, n)
            assert is_rejected(got) == (ratio >= bound), (n, ratio)
    # n = 2: no upper bound on the ratio
    for k in range(100, 201, 10):
        assert not is_rejected(double_phase_params(100, k, 2))


def test_double_phase_beta_choices():
    pure = double_phase_params(2, 3, 2)
    aux = double_phase_params(2, 3, 2, third_phase=True)
    assert pure.beta == F(3, 2)
    assert aux.beta == 1


# --- variable exponent and exponential recipes ---------------------------------


def test_px_delta_values():
    assert float(px_delta(2, 1.01, 0.01)) == pytest.approx(0.04 / 2.04, rel=1e-12)
    assert float(px_delta(3, F(11, 10), F(5, 100))) == pytest.approx(0.4 / 4.6, rel=1e-12)
    # theta -> 1+, omega -> 0+ drives delta -> 0
    assert float(px_delta(2, 1 + 1e-9, 1e-9)) < 1e-8


def test_exponential_params_accept_and_reject():
    ok = exponential_params(F(24, 10), F(105, 100), F(2, 100), n=3)
    assert not is_rejected(ok)
    assert ok.beta == F(122, 100)
    assert ok.theta == F(105, 100)

    # alpha/2 - theta = 0: margin condition fails
    rej = exponential_params(F(24, 10), F(12, 10), F(2, 100), n=3)
    assert is_rejected(rej)

    # boundary values are rejected outright: the class needs strict margins
    assert is_rejected(exponential_params(2, 1, 0))


def test_auto_recipes_accept_small_oscillation():
    ep = auto_exponential_params(F(515, 1000), F(585, 1000), n=2)
    assert not is_rejected(ep)
    assert ep.bounds_ok()

    pp = auto_px_params(2, F(21, 10), n=2)
    assert not is_rejected(pp)
    assert pp.bounds_ok()


def test_auto_recipes_reject_steep_oscillation():
    # theta ~ 1.7: no admissible region remains; the recipes say so
    ep = auto_exponential_params(F(1, 2), F(85, 100), n=2)
    assert is_rejected(ep)
    pp = auto_px_params(2, F(33, 10), n=2)
    assert is_rejected(pp)


# --- lambda sequence ------------------------------------------------------------


def test_lambda_sequence_n3_alpha2():
    p = default_params(3, 2, 0)
    assert lambda_sequence(p, 3) == (0, 2, 8)


def test_lambda_sequence_n4_alpha2():
    p = default_params(4, 2, 0)
    assert lambda_sequence(p, 3) == (0, 1, 3)


def test_lambda_sequence_k1_is_zero():
    p = default_params(5, F(21, 10), F(1, 20))
    assert lambda_sequence(p, 1) == (0,)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 6),
    anum=st.integers(0, 40),
    dnum=st.integers(0, 20),
)
def test_lambda_recursion_matches_closed_form_exact(n, anum, dnum):
    # random admissible rational (alpha, delta): exact arithmetic throughout
    dmax = min(F(4, n * (n - 2)), F(2, n))
    delta = dmax * dnum / 21
    alpha = 2 + (2 + F(4, n) - 2 * delta - 2) * anum / 41
    p = default_params(n, alpha, delta)
    lams = lambda_sequence(p, 12)
    ts, g = p.two_star, p.gamma
    front = (ts - alpha - 2 * (g - 1)) / (ts - 2)
    for k, lam in enumerate(lams, start=1):
        assert lam == front * ((ts / 2) ** (k - 1) - 1)
    for k in range(len(lams) - 1):
        assert ts * (lams[k] + 1) - alpha + 2 == 2 * (lams[k + 1] + g)


# --- (nu, mu) selection and thetas ----------------------------------------------


def test_moser_exponents_worked_example():
    p = ExponentParams(2, 1, 1, 0, sobolev_context(3))
    s = moser_exponents(p, nu=1, mu=6)
    assert s.theta0 == 12
    assert s.theta3 == 5
    assert s.theta1 == 5
    assert s.theta2 == 12
    assert s.theta4 == 14


def test_moser_exponents_mu_unbounded_limits():
    p = ExponentParams(2, 1, 1, 0, sobolev_context(3))
    s = moser_exponents(p, nu=1, mu=MU_UNBOUNDED)
    assert s.theta3 == 3  # 2*/2 at n = 3
    assert s.theta0 == 6
    assert s.theta4 == 8


def test_moser_exponents_rejects_mu_at_pole():
    p = ExponentParams(2, 1, 1, 0, sobolev_context(3))
    with pytest.raises(ValueError):
        moser_exponents(p, nu=1, mu=3)  # mu must exceed 2*/2 = 3


def test_moser_exponents_rejects_inconsistent_beta():
    p = ExponentParams(2, F(3, 2), 1, 0, sobolev_context(3))
    with pytest.raises(ValueError):
        moser_exponents(p, nu=1, mu=6)  # (mu-1)/(mu-nu) = 1 != 3/2


def test_select_mu_nu_beta_one_sentinel():
    p = default_params(3, 2, 0)
    nu, mu = select_mu_nu(p)
    assert nu == 1 and mu == MU_UNBOUNDED
    s = moser_exponents(p, nu, mu)
    assert s.theta3 == 3


def test_select_mu_nu_explicit_nu():
    # alpha = 3, n = 3: nu ranges over [1, 2); mu solves (beta nu - 1)/(beta - 1)
    p = ExponentParams(3, F(5, 4), 1, 0, sobolev_context(3))
    nu, mu = select_mu_nu(p, nu=F(3, 2))
    assert nu == F(3, 2) and mu == F(7, 2)
    assert (mu - 1) / (mu - nu) == p.beta
    moser_exponents(p, nu, mu)
    # the interval is open at 2*/(alpha - 2 + 2 gamma) = 2
    assert is_rejected(select_mu_nu(p, nu=2))


def test_select_mu_nu_default_finds_valid_pair():
    p = ExponentParams(2, F(3, 2), 1, 0, sobolev_context(3))
    out = select_mu_nu(p)
    assert not is_rejected(out)
    nu, mu = out
    assert 1 <= nu < nu_upper_bound(p)
    assert mu > F(3)
    assert (mu - 1) / (mu - nu) == p.beta


def test_select_mu_nu_round_trip_beta():
    for beta_num in (11, 13, 15, 19, 25):
        p = ExponentParams(2, F(beta_num, 10), 1, 0, sobolev_context(3))
        out = select_mu_nu(p)
        assert not is_rejected(out), beta_num
        nu, mu = out
        assert abs(float((mu - 1) / (mu - nu)) - float(p.beta)) <= 1e-12


def test_select_mu_nu_rejects_unattainable_beta():
    # alpha = 3, gamma = 1, n = 3: nu < 2, so beta < (3-1)/(3-2) = 2
    p = ExponentParams(3, F(5, 2), 1, 0, sobolev_context(3))
    out = select_mu_nu(p)
    assert is_rejected(out)
    assert out.bound == 2


def test_select_mu_nu_passes_a_rejection_through():
    rejected = ParamRejection("double_phase_params", "q/p outside the admissible range")
    assert select_mu_nu(rejected) is rejected


def test_theta_positivity_sample():
    rng_betas = [F(1), F(11, 10), F(3, 2), F(2)]
    for n in (2, 3, 4):
        for b in rng_betas:
            alpha = F(2) if b <= 1 else 2 * (b)  # keep beta = alpha/2 pairing loose
            p = ExponentParams(
                alpha, b, 1, 0, sobolev_context(n, alpha=alpha, gamma=1), theta=None
            )
            out = select_mu_nu(p)
            if is_rejected(out):
                continue
            nu, mu = out
            s = moser_exponents(p, nu, mu)
            assert float(s.theta1) > 1 and float(s.theta3) > 1
            assert s.theta4 == 2 + s.theta0


# --- one number type: floats are converted once at every entry point ------------


def _limited(x):
    return Fraction(x).limit_denominator(10**9)


@pytest.mark.parametrize(
    "recipe, args",
    [
        (default_params, (2, 2.6, 0.05)),
        (anisotropic_params, (2.0, 2.5, 2)),
        (double_phase_params, (2.0, 2.5, 3)),
        (exponential_params, (3.1, 1.05, 0.1)),
        (auto_px_params, (2.55, 2.65)),
        (auto_exponential_params, (0.55, 0.6)),
    ],
    ids=["default", "anisotropic", "double_phase", "exponential", "auto_px", "auto_exponential"],
)
def test_float_inputs_give_the_fraction_result(recipe, args):
    # floats used to run the algebra in floats with a guard band
    exact = recipe(*(_limited(a) if isinstance(a, float) else a for a in args))
    got = recipe(*args)
    assert not is_rejected(got) and got == exact
    fields = [got.alpha, got.beta, got.gamma, got.delta, got.two_star]
    assert all(type(v) is Fraction for v in fields + ([got.theta] if got.theta is not None else []))
    sched = moser_exponents(got, *select_mu_nu(got))
    assert all(type(v) is Fraction for v in (sched.nu, sched.mu, sched.theta0, sched.theta1, *sched.lambdas))


def test_float_nu_and_mu_are_converted():
    p = default_params(3, 2, 0)  # beta = 1: mu unbounded, nu free in [1, 3/2)
    assert select_mu_nu(p, nu=1.2) == (F(6, 5), MU_UNBOUNDED)
    sched = moser_exponents(p, 1.2, MU_UNBOUNDED)
    assert (sched.nu, sched.theta0) == (F(6, 5), F(5))
    q = ExponentParams(F(5, 2), F(3, 2), 1, 0, sobolev_context(3))
    assert moser_exponents(q, 2.0, 4.0) == moser_exponents(q, F(2), F(4))


def test_float_at_a_strict_boundary_is_decided_exactly():
    # q/p = 5/3 is the anisotropic bound at n = 3
    assert is_rejected(anisotropic_params(3.0, 5.0, 3))
    assert px_delta(2, 1.01, 0.01) == px_delta(2, F(101, 100), F(1, 100))
