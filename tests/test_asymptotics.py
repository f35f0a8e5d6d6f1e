"""Fixed-point constants against closed forms, and the CLT harness."""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from slithercode import CltReport, ConstantsReport, clt_check, constants, gaussian_cdf, solve_fixed_point

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
ROOT5 = math.sqrt(5.0)


# --- solver -----------------------------------------------------------------


def test_solver_residual_guarantee():
    t = solve_fixed_point(lambda t: math.exp(-t))
    assert abs(t - math.exp(-t)) <= 1e-14
    assert t == pytest.approx(0.567143290409784, abs=1e-12)


@pytest.mark.parametrize(
    "g, closed",
    (
        (lambda t: 0.5 + 0.5 * (1 - t) ** 2, 2 - ROOT2),
        (lambda t: (1 - t / 2) ** 2, 4 - 2 * ROOT3),
        (lambda t: 1 / (1 + t), (ROOT5 - 1) / 2),
    ),
)
def test_solver_matches_closed_forms(g, closed):
    assert solve_fixed_point(g) == pytest.approx(closed, abs=1e-12)


def test_solver_requires_a_bracket():
    with pytest.raises(ValueError, match="change sign"):
        solve_fixed_point(lambda t: t + 1.0)


def test_solver_accepts_endpoint_roots():
    assert solve_fixed_point(lambda t: t * t) == 0.0


# --- normal cdf -------------------------------------------------------------


def test_gaussian_cdf_basics():
    assert gaussian_cdf(0.0) == 0.5
    assert gaussian_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    for x in (-2.5, -0.3, 0.7, 4.0):
        assert gaussian_cdf(x) + gaussian_cdf(-x) == pytest.approx(1.0, abs=1e-12)
    xs = [-3, -1, 0, 1, 3]
    assert all(gaussian_cdf(a) < gaussian_cdf(b) for a, b in zip(xs, xs[1:]))


# --- constants --------------------------------------------------------------


def test_constants_satisfy_their_equations():
    c = constants()
    assert abs(c.rho - math.exp(-c.rho)) <= 1e-12
    assert abs(c.t0 - (1 + c.t0) * math.exp(-c.t0)) <= 1e-12
    assert c.sigma2 == pytest.approx(
        (c.rho - c.rho**2 - c.rho**3) / (1 + c.rho) ** 2, abs=1e-15)
    assert c.path_cover_coeff == pytest.approx(
        1 - (2 - (c.t0 + 2) * math.exp(-c.t0)), abs=1e-15)


def test_constants_match_closed_forms():
    c = constants()
    assert c.full_binary_mean == pytest.approx(2 - ROOT2, abs=1e-12)
    assert c.binary_lr_mean == pytest.approx(4 - 2 * ROOT3, abs=1e-12)
    assert c.plane_mean == pytest.approx((ROOT5 - 1) / 2, abs=1e-12)
    assert c.full_binary_variance_coeff == pytest.approx(8.5 - 6 * ROOT2, abs=1e-10)


def test_constants_frozen_digits():
    c = constants()
    assert c.rho == pytest.approx(0.567143290409784, abs=1e-12)
    assert c.sigma2 == pytest.approx(0.025680322293649, abs=1e-12)
    assert c.t0 == pytest.approx(0.806465994236327, abs=1e-12)
    assert c.path_cover_coeff == pytest.approx(0.252898972664606, abs=1e-12)


def test_t0_against_decimal_bisection():
    # independent of the float solver: bisect t - (1+t)exp(-t) at 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(150):
            mid = (lo + hi) / 2
            if mid - (1 + mid) * (-mid).exp() < 0:
                lo = mid
            else:
                hi = mid
        assert abs(Decimal(constants().t0) - lo) <= Decimal("1e-12")
        # the root rounds to 0.80647 at five digits, and is more than half a
        # unit of the fifth digit away from the truncation 0.80646
        assert Decimal("0.806465") <= lo < Decimal("0.806475")
        assert abs(lo - Decimal("0.80646")) > Decimal("5e-6")


def test_constants_json_digits():
    j = constants().to_json_dict()
    assert set(j) == {
        "rho", "sigma2", "full_binary_mean", "full_binary_variance_coeff",
        "binary_lr_mean", "plane_mean", "t0", "path_cover_coeff"}
    assert j["rho"].startswith("0.56714329040978")


# --- clt harness ------------------------------------------------------------


def test_clt_preconditions():
    with pytest.raises(ValueError, match="n >= 100"):
        clt_check(50, 20_000, seed=1)
    with pytest.raises(ValueError, match="trials >= 10000"):
        clt_check(500, 500, seed=1)


def test_clt_small_run_is_sane_and_deterministic():
    rep = clt_check(100, 10_000, seed=42)
    assert rep == clt_check(100, 10_000, seed=42)
    assert rep.mean_over_n == pytest.approx(rep.mean / 100)
    assert rep.variance_over_n == pytest.approx(rep.variance / 100)
    assert 0.0 <= rep.ks_fitted <= rep.ks_distance <= 0.1
    assert abs(rep.mean_over_n - rep.rho) < 0.02
    j = rep.to_json_dict()
    assert list(j)[-2:] == ["ks_distance", "ks_fitted"]


@pytest.mark.parametrize("seed", ("7", np.uint64(7)), ids=("str", "uint64"))
def test_clt_reports_the_seed_it_ran_with(seed):
    # the caller's value was reported: '7', and a uint64 that json.dumps refused
    rep = clt_check(100, 10_000, seed)
    assert type(rep.seed) is int and rep.seed == 7
    assert json.loads(json.dumps(rep.to_json_dict()))["seed"] == 7
