"""Limit constants and the central-limit sanity check.

The mean independence number of a uniform random labelled tree is rho*n +
O(1) where rho = 0.5671... solves t = exp(-t); the variance grows like
sigma^2 * n with sigma^2 = (rho - rho^2 - rho^3)/(1+rho)^2.  Each card-deck
family has its own mean constant, solving t = g(t) for the family's
generating equation.  All constants here are produced by one bisection
solver and cross-checked in the tests against closed forms where those
exist (2 - sqrt(2), 4 - 2*sqrt(3), (sqrt(5)-1)/2, 17/2 - 6*sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .codec import prefix_alpha
from .games import DEALS, run_trials
from .trees import _strict_int


def solve_fixed_point(g) -> float:
    """Solve t = g(t) on [0, 1] by bisection down to adjacent floats.

    Requires t - g(t) to change sign across the bracket.  Returns the end
    with the smaller |t - g(t)|, and guarantees |t - g(t)| <= 1e-14.
    """
    lo, hi = 0.0, 1.0
    f = lambda t: t - g(t)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("t - g(t) does not change sign on the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    t, ft = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    if abs(ft) > 1e-14:
        raise ArithmeticError(f"fixed point not converged: residual {ft:.3e}")
    return t


def gaussian_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class ConstantsReport:
    rho: float
    sigma2: float
    full_binary_mean: float
    full_binary_variance_coeff: float
    binary_lr_mean: float
    plane_mean: float
    t0: float
    path_cover_coeff: float

    def to_json_dict(self) -> dict:
        return {f.name: f"{getattr(self, f.name):.15g}" for f in fields(self)}


def constants() -> ConstantsReport:
    """Evaluate every limit constant from its defining equation.

    Closed forms are NOT substituted here; they live in the tests as the
    independent check.
    """
    rho = solve_fixed_point(lambda t: math.exp(-t))
    sigma2 = (rho - rho ** 2 - rho ** 3) / (1 + rho) ** 2

    # per-family mean constants: fraction of vertices that are P-positions
    fb = solve_fixed_point(lambda t: 0.5 + 0.5 * (1 - t) ** 2)
    lr = solve_fixed_point(lambda t: (1 - t / 2) ** 2)
    plane = solve_fixed_point(lambda t: 1 / (1 + t))

    # full-binary variance: reciprocal of the curvature sum at the saddle
    # (m, a) = (1/2, fb) of the per-n exponent
    m, a = 0.5, fb
    curve = (1 / (a - m) + 4 / (2 * a - 2 * m) + 9 / (4 * m - 3 * a)
             - 1 / a - 1 / (2 * m - a))
    fb_var = 1 / curve

    # comply-variant asymptotics: t0 solves t = (1+t)exp(-t); the minimum
    # path cover number of a uniform tree grows like path_cover_coeff * n
    t0 = solve_fixed_point(lambda t: (1 + t) * math.exp(-t))
    path_cover_coeff = (t0 + 2) * math.exp(-t0) - 1

    return ConstantsReport(rho=rho, sigma2=sigma2, full_binary_mean=fb,
                           full_binary_variance_coeff=fb_var, binary_lr_mean=lr,
                           plane_mean=plane, t0=t0,
                           path_cover_coeff=path_cover_coeff)


@dataclass(frozen=True)
class CltReport:
    n: int
    trials: int
    seed: int
    mean: float
    variance: float
    mean_over_n: float
    variance_over_n: float
    rho: float
    sigma2: float
    ks_distance: float
    ks_fitted: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def clt_sizes(n: int, trials: int) -> tuple[int, int]:
    """n and trials as _strict_int reads them; ValueError below clt_check's minima,
    n >= 100 and trials >= 10000.  A caller can check them before drawing a seed."""
    n, trials = _strict_int(n, "n"), _strict_int(trials, "trials")
    if n < 100:
        raise ValueError(f"clt check needs n >= 100, got {n}")
    if trials < 10_000:
        raise ValueError(f"clt check needs trials >= 10000, got {trials}")
    return n, trials


def clt_check(n: int, trials: int, seed: int, threads: int | None = None) -> CltReport:
    """Sample the dice game and compare against the limiting normal law.

    The statistic lives on the integer lattice, so the empirical CDF is
    compared with the lattice discretization of N(rho*n, sigma^2*n): both
    CDFs are evaluated at cell boundaries v + 1/2.  Comparing against the
    continuous CDF directly would report the half-cell discretization
    artifact, about phi(0)/(2*sigma*sqrt(n)), swamping any real deviation.
    threads accepts only None or 1, as in run_trials.
    """
    n, trials = clt_sizes(n, trials)
    deal = DEALS["dice"](n)
    hist = run_trials(lambda rng: prefix_alpha(deal(rng), n), trials, seed,
                      n=n, parameter="alpha", threads=threads)

    cons = constants()
    values = sorted(hist.counts)

    def lattice_ks(mu: float, sd: float) -> float:
        ks = gaussian_cdf((values[0] - 0.5 - mu) / sd)  # empirical CDF still 0 there
        cum = 0
        for v in range(values[0], values[-1] + 1):
            cum += hist.counts.get(v, 0)
            ks = max(ks, abs(cum / trials - gaussian_cdf((v + 0.5 - mu) / sd)))
        return ks

    # ks_distance: against the limiting law N(rho*n, sigma2*n);
    # ks_fitted: against the Gaussian with the sample's own mean and sd,
    # isolating shape error from the O(1) drift of the finite-n mean.
    ks_asym = lattice_ks(cons.rho * n, math.sqrt(cons.sigma2 * n))
    ks_fit = lattice_ks(hist.mean(), math.sqrt(hist.variance()))

    return CltReport(n=n, trials=trials, seed=hist.seed,
                     mean=hist.mean(), variance=hist.variance(),
                     mean_over_n=hist.mean() / n, variance_over_n=hist.variance() / n,
                     rho=cons.rho, sigma2=cons.sigma2, ks_distance=ks_asym,
                     ks_fitted=ks_fit)
