"""The package's Brent root finder and bounded minimizer against scipy's,
which serve as test oracles: the same floats after the same number of
function evaluations."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from rtspect import brent, outer_general, profiles, spectrum
from rtspect.errors import SolverError
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import make_profile, profile_bounds


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _scipy_minimize(f, a, b, xatol):
    res = minimize_scalar(f, method="bounded", bounds=(a, b),
                          options={"xatol": xatol})
    return float(res.x), float(res.fun)


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
    # solve_dispersion on both fixtures, the truncation points' monotone
    # levels and both limit_box ends of the tanh profile
    seen = []
    for module in (spectrum, outer_general, profiles):
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


def test_minimizer_is_scipys(monkeypatch, params):
    # profile_bounds of three families: both refined maxima and the
    # limit_box ends they start from
    seen = []
    monkeypatch.setattr(profiles, "minimize_bounded",
                        _both(brent.minimize_bounded, _scipy_minimize, seen))
    xs = np.linspace(-3.0, 3.0, 25)
    family = (make_profile("tanh", rho_minus=1.0, rho_plus=3.0, ell=1.0),
              make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0),
              make_profile("tabulated", samples=list(zip(
                  xs, 2.0 + np.tanh(xs) + 0.1 * np.arctan(3.0 * xs)))))
    for profile in family:
        own = profile_bounds(profile, params)
        with monkeypatch.context() as m:
            m.setattr(profiles, "brentq", scipy_brentq)
            m.setattr(profiles, "minimize_bounded", _scipy_minimize)
            ref = profile_bounds(profile, params)
        assert _hex(list(vars(own).values())) == _hex(list(vars(ref).values()))
    assert len(seen) == 2 * len(family)
    _assert_same(seen)
