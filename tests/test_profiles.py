import math

import numpy as np
import pytest

from rtspect.errors import ProfileError
from rtspect.profiles import (COMPACT, INCREASING, DensityProfile,
                              PhysicalParams, make_profile, profile_bounds,
                              validate)


def golden_max(f, a, b, tol=1e-13):
    # independent 1-D maximizer used as the oracle for sup rho0'/rho0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_tanh_midpoint_is_mean_of_limits():
    p = make_profile("tanh", rho_minus=1.0, rho_plus=3.0, ell=1.0)
    assert p.rho(0.0) == pytest.approx(2.0, abs=1e-14)


def test_bump_gradient_support_and_center():
    p = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    assert p.drho(1.0) == 0.0 and p.drho(-1.0) == 0.0
    # amplitude is fixed by int drho = rho_plus - rho_minus
    xs = np.linspace(-1, 1, 20001)
    mass = np.trapezoid(p.drho(xs), xs)
    assert mass == pytest.approx(2.0, rel=1e-8)
    amp = p.drho(0.0) / math.exp(-1.0)
    assert p.drho(0.0) == pytest.approx(amp * math.exp(-1.0))
    assert p.rho(2.5) == pytest.approx(3.0, abs=1e-13)


def test_tabulated_rejects_non_monotone_with_index():
    with pytest.raises(ProfileError, match="index 2"):
        make_profile("tabulated", samples=[(-1, 1.0), (0, 2.0), (1, 1.5)])


def test_rejects_inverted_limits():
    with pytest.raises(ProfileError):
        make_profile("tanh", rho_minus=3.0, rho_plus=1.0, ell=1.0)


def test_params_consistency():
    with pytest.raises(ProfileError):
        PhysicalParams(g=1.0, mu=1.0, k=1.0, k1=1.0, k2=1.0)
    p = PhysicalParams(g=1.0, mu=1.0, k=math.sqrt(2.0), k1=1.0, k2=1.0)
    assert p.k1 == 1.0
    with pytest.raises(ProfileError):
        PhysicalParams(g=-1.0, mu=1.0, k=1.0)
    # nan is not positive either; the check names the value it rejects
    with pytest.raises(ProfileError, match="k must be positive, got nan"):
        PhysicalParams(g=1.0, mu=1.0, k=math.nan)


def test_tanh_bounds_match_golden_oracle(tanh_profile, tanh_bounds):
    f = lambda x: float(tanh_profile.drho(x) / tanh_profile.rho(x))
    x_star = golden_max(f, -3.0, 1.0)
    sup_oracle = f(x_star)
    # closed form for this profile: sup sech^2(x)/(2 + tanh x) = 4 - 2 sqrt(3)
    assert sup_oracle == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), rel=1e-12)
    assert 1.0 / tanh_bounds.L0 == pytest.approx(sup_oracle, rel=1e-10)
    assert tanh_bounds.lambda_max == pytest.approx(math.sqrt(sup_oracle), rel=1e-10)
    # the bound squares back to g/L0 exactly up to round-off
    assert tanh_bounds.lambda_max**2 * tanh_bounds.L0 == pytest.approx(1.0, rel=1e-12)


def test_bump_sup_sits_inside_support(bump_profile, bump_bounds):
    lo, hi = bump_profile.support
    assert lo < bump_bounds.x_peak < hi
    assert bump_profile.drho(hi + 0.5) == 0.0


def test_lambda_max_scales_with_sqrt_g(tanh_profile):
    b1 = profile_bounds(tanh_profile, PhysicalParams(g=1.0, mu=1.0, k=1.0))
    b2 = profile_bounds(tanh_profile, PhysicalParams(g=2.0, mu=1.0, k=1.0))
    assert b2.lambda_max == pytest.approx(math.sqrt(2.0) * b1.lambda_max, rel=1e-12)


def test_tabulated_translation_leaves_L0(params):
    xs = np.linspace(-2.0, 2.0, 41)
    rho = 2.0 + np.tanh(xs)
    base = make_profile("tabulated", samples=list(zip(xs, rho)))
    shifted = make_profile("tabulated", samples=list(zip(xs + 0.37, rho)))
    l0a = profile_bounds(base, params).L0
    l0b = profile_bounds(shifted, params).L0
    assert abs(l0a - l0b) <= 1e-10 * l0a


@pytest.mark.parametrize("family,kw", [
    ("tanh", dict(rho_minus=1.0, rho_plus=3.0, ell=1.0)),
    ("bump", dict(rho_minus=1.0, rho_plus=3.0, a=1.0)),
])
def test_pointwise_invariants(family, kw):
    p = make_profile(family, **kw)
    xs = np.linspace(-8, 8, 3001)
    r = p.rho(xs)
    assert np.all(r > 0)
    assert np.all(r >= p.rho_minus - 1e-12) and np.all(r <= p.rho_plus + 1e-12)
    assert np.all(p.drho(xs) >= 0)


def test_tanh_plain_centered_difference_consistency(tanh_profile):
    # smooth analytic family: the second-order difference itself meets 1e-6
    xs = np.linspace(-6.0, 6.0, 501)
    h = 1e-4 * np.maximum(1.0, np.abs(xs))
    fd = (tanh_profile.rho(xs + h) - tanh_profile.rho(xs - h)) / (2 * h)
    d = tanh_profile.drho(xs)
    rel = np.abs(fd - d) / np.maximum(np.abs(d), np.abs(fd))
    assert rel.max() <= 1e-6


def test_validate_passes_families(tanh_profile, bump_profile):
    assert validate(tanh_profile).passed
    assert validate(bump_profile).passed


def test_validate_flags_mislabeled_kind(bump_profile):
    mislabeled = DensityProfile(
        kind=INCREASING, rho=bump_profile.rho, drho=bump_profile.drho,
        rho_minus=bump_profile.rho_minus, rho_plus=bump_profile.rho_plus,
        scale=bump_profile.scale, family="bump")
    rep = validate(mislabeled)
    assert not rep.passed


def test_bounds_reject_flat_profile(params):
    flat = DensityProfile(kind=COMPACT, rho=lambda x: np.full_like(
        np.asarray(x, dtype=float), 2.0), drho=lambda x: np.zeros_like(
        np.asarray(x, dtype=float)), rho_minus=2.0, rho_plus=2.0,
        support=(-1.0, 1.0))
    with pytest.raises(ProfileError):
        profile_bounds(flat, params)
