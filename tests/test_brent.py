"""The package's Brent root finder against scipy's, which serves as the
test oracle (the same floats after the same number of function
evaluations), the level search built on it, and the sup rho0'/rho0 that
`profile_bounds` finds against closed forms and scipy's bounded minimizer."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from rtspect import brent, profiles, spectrum
from rtspect.errors import SolverError
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import PhysicalParams, make_profile, profile_bounds


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _both(own, oracle, seen):
    """A stand-in for `own` that also runs `oracle` on the same problem
    and records (own result, own evaluations, oracle's, oracle's)."""
    def run(f, *args, **kwargs):
        g, own_calls = _counted(f)
        h, oracle_calls = _counted(f)
        got = own(g, *args, **kwargs)
        seen.append((got, len(own_calls),
                     oracle(h, *args, **kwargs), len(oracle_calls)))
        return got
    return run


def _hex(result):
    return tuple(map(float.hex, np.atleast_1d(result)))


def _assert_same(seen):
    assert seen
    for got, n_got, ref, n_ref in seen:
        assert _hex(got) == _hex(ref)
        assert n_got == n_ref


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2 * x - 5, 0.0, 4.0),
    (math.sin, 3.0, 4.0),
    (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
    (lambda x: math.atan(x - 0.3), -1e3, 7.0),
    (lambda x: math.cos(x) - x, 1.0, 0.0),
    (lambda x: math.tanh(x - 1.0) + 0.1 * (x - 1.0)**3, -2.0, 3.3),
    (lambda x: x - 1e-12, -1.0, 1.0),
])
@pytest.mark.parametrize("xtol", [2e-12, 1e-3, 1e-14])
def test_root_finder_is_scipys(f, a, b, xtol):
    seen = []
    _both(brent.brentq, scipy_brentq, seen)(f, a, b, xtol=xtol)
    _assert_same(seen)


def test_root_finder_is_scipys_at_the_fixture_roots(monkeypatch, bump_profile,
                                                    tanh_profile, params):
    # solve_dispersion on both fixtures, and the level search behind the
    # truncation points and both limit_box ends of the tanh profile
    seen = []
    for module in (spectrum, brent):
        monkeypatch.setattr(module, "brentq",
                            _both(brent.brentq, scipy_brentq, seen))
    for profile in (bump_profile, tanh_profile):
        pipe = Pipeline(profile, params, SolverOptions(n_elements=64)).build()
        for n in (1, 2):
            pipe.solve_mode_index(n)
    assert len(seen) >= 8
    _assert_same(seen)


def test_root_finder_errors():
    with pytest.raises(ValueError, match="different signs"):
        brent.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brent.brentq(lambda x: math.nan if x > 0.2 else x, -1.0, 1.0)
    with pytest.raises(SolverError, match="did not converge in 3 steps"):
        brent.brentq(math.sin, 3.0, 4.0, xtol=1e-15, maxiter=3)
    # a root of multiplicity 5 runs out of steps in scipy's brentq too
    with pytest.raises(SolverError, match="in 100 steps"):
        brent.brentq(lambda x: (x - 1.0)**5, -2.0, 3.3)
    with pytest.raises(RuntimeError, match="100 iterations"):
        scipy_brentq(lambda x: (x - 1.0)**5, -2.0, 3.3)
    # an exact zero at an end is returned as it is
    assert brent.brentq(math.sin, 0.0, 1.0) == 0.0


def test_level_search_never_returns_below_its_start():
    # the smallest t >= start with f(t) <= 0: start itself when f(start)
    # <= 0, which used to give start - scale/2
    assert brent.monotone_level(lambda t: -1.0 - t, 0.0, 1.0) == 0.0
    assert brent.monotone_level(lambda t: 0.5 - t, 2.0, 1.0) == 2.0
    t = brent.monotone_level(lambda t: 0.5 - t, 0.0, 1.0)
    assert 0.5 <= t <= 0.5 + 1e-11


def _ulps(got, ref):
    return abs(got - ref) / math.ulp(ref)


@pytest.mark.parametrize("rho_minus, rho_plus", [
    (1.0, 3.0), (1.0, 1.2), (0.5, 10.0), (2.0, 2.5)])
def test_tanh_bounds_are_the_closed_form(rho_minus, rho_plus):
    # rho0'/rho0 = (h/ell)(1 - t^2)/(m + h t) in t = tanh(x/ell), with
    # m, h the mean and half the jump: its maximum is at
    # t* = (sqrt(rho+ rho-) - m)/h
    m, h = 0.5 * (rho_plus + rho_minus), 0.5 * (rho_plus - rho_minus)
    root = math.sqrt(rho_plus * rho_minus)
    t_star = (root - m) / h
    for ell, g in itertools.product((0.3, 1.0, 4.0), (1.0, 9.81)):
        bounds = profile_bounds(
            make_profile("tanh", rho_minus=rho_minus, rho_plus=rho_plus,
                         ell=ell), PhysicalParams(g=g, mu=1.0, k=1.0))
        sup = (h / ell) * (1.0 - t_star**2) / root
        assert _ulps(bounds.lambda_max, math.sqrt(g * sup)) <= 4
        assert abs(bounds.x_peak - ell * math.atanh(t_star)) <= 5e-8 * ell


def _scipy_max(f, profile):
    """(x, f(x)) at the maximum by scipy's bounded minimizer, on the two
    steps around the maximum of the 4096-point grid over the box."""
    lo, hi = profiles.limit_box(profile)
    grid = np.linspace(lo, hi, 4096)
    i = int(np.argmax(f(grid)))
    res = minimize_scalar(lambda t: -float(f(t)), method="bounded",
                          bounds=(grid[max(i - 1, 0)], grid[min(i + 1, 4095)]),
                          options={"xatol": 1e-12 * max(1.0, hi - lo)})
    return float(res.x), -float(res.fun)


def test_bounds_are_scipys_bounded_minimizer(params):
    xs = np.linspace(-3.0, 3.0, 25)
    family = [make_profile("bump", rho_minus=rho_minus, rho_plus=rho_plus,
                           a=a)
              for (rho_minus, rho_plus), a in itertools.product(
                  ((1.0, 3.0), (1.0, 1.2), (0.5, 10.0)), (0.5, 1.0, 2.0))]
    family.append(make_profile("tabulated", samples=list(zip(
        xs, 2.0 + np.tanh(xs) + 0.1 * np.arctan(3.0 * xs)))))
    for profile in family:
        own = profile_bounds(profile, params)
        x_peak, r_peak = _scipy_max(
            lambda t: profile.drho(t) / profile.rho(t), profile)
        x_rho_m, rho_m = _scipy_max(profile.drho, profile)
        assert _ulps(own.L0, 1.0 / r_peak) <= 2
        assert _ulps(own.lambda_max, math.sqrt(params.g * r_peak)) <= 2
        assert _ulps(own.rho_m, rho_m) <= 2
        assert abs(own.x_peak - x_peak) <= 1e-7 * profile.scale
        assert abs(own.x_rho_m - x_rho_m) <= 1e-7 * profile.scale
