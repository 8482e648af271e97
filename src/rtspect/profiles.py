"""Equilibrium density profiles and the growth-rate bound they induce.

A profile is the background density rho0(x) of a heavy-over-light viscous
two-fluid column, increasing from rho_minus at -inf to rho_plus at +inf.
Two families of behaviour are distinguished: profiles whose gradient is
supported on a bounded interval (constant density outside), and profiles
with rho0' > 0 everywhere.  The two cases feed different boundary-condition
machinery downstream, so the classification is part of the data and is
never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brent import monotone_level
from .errors import ProfileError

COMPACT = "compact-gradient"
INCREASING = "strictly-increasing"

# Relative closeness to the limits used to pick the search box for sup rho0'/rho0.
_LIMIT_TOL = 1e-8
_SUP_GRID = 4096
# points per round of the zoom onto a grid maximum
_ZOOM_POINTS = 65
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# samples `validate` checks the invariants at
_VALIDATE_GRID = 2001


@dataclass(frozen=True)
class PhysicalParams:
    """Gravity g, dynamic viscosity mu and transverse wavenumber k = |(k1, k2)|."""

    g: float
    mu: float
    k: float
    k1: float | None = None
    k2: float | None = None

    def __post_init__(self):
        for name, value in (("g", self.g), ("mu", self.mu), ("k", self.k)):
            if not value > 0:
                raise ProfileError(f"{name} must be positive, got {value!r}")
        if self.k1 is None:
            object.__setattr__(self, "k1", self.k)
            object.__setattr__(self, "k2", 0.0)
        if abs(self.k1**2 + self.k2**2 - self.k**2) > 1e-12 * self.k**2:
            raise ProfileError("(k1, k2) inconsistent with k: need k^2 = k1^2 + k2^2")


@dataclass(frozen=True)
class DensityProfile:
    """Background density rho0 with its derivative and limits.

    rho and drho are vectorized callables.  For kind == COMPACT, drho
    vanishes outside support = (lo, hi) and rho equals its limits there;
    for kind == INCREASING, drho > 0 everywhere.  scale is a characteristic
    length used for truncation searches and diagnostics.
    """

    kind: str
    rho: Callable[[np.ndarray], np.ndarray]
    drho: Callable[[np.ndarray], np.ndarray]
    rho_minus: float
    rho_plus: float
    support: tuple | None = None
    scale: float = 1.0
    family: str = "custom"
    knots: tuple = ()

    @property
    def delta(self):
        return self.rho_plus - self.rho_minus


@dataclass(frozen=True)
class ProfileBounds:
    """sup rho0'/rho0 packaged as L0 and the growth-rate ceiling sqrt(g/L0).

    x_peak maximizes rho0'/rho0; x_rho_m maximizes rho0', whose maximum is
    rho_m.  Both come from a zoom that stops at Brent's rule, within about
    sqrt(eps)|x| + xatol/3: about 1e-8 at the bump's x = -0.37, and
    xatol/3 near x = 0.  L0, rho_m and lambda_max are unaffected, because
    the location error enters them quadratically.
    """

    L0: float
    rho_m: float
    lambda_max: float
    x_peak: float
    x_rho_m: float


@dataclass(frozen=True)
class ProfileReport:
    passed: bool
    checks: tuple


# The one 5-point Gauss-Legendre panel rule, mapped to [0, 1]; the bump
# table, the Hermite assembly and the Picard panels all integrate with it.
_GL_XI, _GL_WEIGHT = np.polynomial.legendre.leggauss(5)
GL5_NODES = 0.5 * (_GL_XI + 1.0)
GL5_WEIGHTS = 0.5 * _GL_WEIGHT


def _bump_integrand(u):
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(-1.0 / (1.0 - u**2))
    return np.where(np.abs(u) < 1.0, vals, 0.0)


def _bump_gradient_table():
    # Cumulative integral of exp(-1/(1-u^2)) at fixed panel edges; arbitrary
    # points get a partial-panel Gauss rule on top, so evaluation is exact to
    # round-off (a spline here leaks ~1e-7 into finite-difference checks).
    edges = np.linspace(-1.0, 1.0, 2049)
    width = np.diff(edges)[:, None]
    pts = edges[:-1, None] + width * GL5_NODES
    panel = (width * GL5_WEIGHTS * _bump_integrand(pts)).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return edges, cum


_BUMP_EDGES, _BUMP_CUMTAB = _bump_gradient_table()
_BUMP_MASS = float(_BUMP_CUMTAB[-1])


def _bump_cumulative(u):
    u = np.asarray(u, dtype=float)
    j = np.clip(np.searchsorted(_BUMP_EDGES, u, side="right") - 1,
                0, len(_BUMP_EDGES) - 2)
    a = _BUMP_EDGES[j][..., None]
    width = u[..., None] - a
    pts = a + width * GL5_NODES
    partial = (width * GL5_WEIGHTS * _bump_integrand(pts)).sum(axis=-1)
    return _BUMP_CUMTAB[j] + partial


def make_profile(family, *, rho_minus=None, rho_plus=None, ell=None, a=None,
                 samples=None):
    """Construct a density profile from one of the supported families.

    family: "tanh" (strictly increasing, length ell), "bump" (compact
    gradient on [-a, a], C-infinity), or "tabulated" (monotone shape-
    preserving interpolant of (x, rho) samples, constant beyond the data,
    so its support is (first x, last x); the limits are read off the
    samples and the rho_minus/rho_plus arguments are ignored).
    """
    if family != "tabulated":
        if rho_minus is None or rho_plus is None:
            raise ProfileError(f"{family} family needs rho_minus and rho_plus")
        if rho_minus <= 0 or rho_plus <= 0:
            raise ProfileError("density limits must be positive")
        if rho_minus >= rho_plus:
            raise ProfileError("need rho_minus < rho_plus for an unstable profile")

    if family == "tanh":
        if ell is None or ell <= 0:
            raise ProfileError("tanh family needs a positive length ell")
        mid = 0.5 * (rho_plus + rho_minus)
        half = 0.5 * (rho_plus - rho_minus)
        ell = float(ell)

        def rho(x, mid=mid, half=half, ell=ell):
            return mid + half * np.tanh(np.asarray(x, dtype=float) / ell)

        def drho(x, half=half, ell=ell):
            return (half / ell) / np.cosh(np.asarray(x, dtype=float) / ell) ** 2

        return DensityProfile(INCREASING, rho, drho, float(rho_minus),
                              float(rho_plus), scale=ell, family="tanh")

    if family == "bump":
        if a is None or a <= 0:
            raise ProfileError("bump family needs a positive half-width a")
        a = float(a)
        amp = (rho_plus - rho_minus) / (a * _BUMP_MASS)

        def drho(x, a=a, amp=amp):
            u = np.atleast_1d(np.asarray(x, dtype=float)) / a
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            out[inside] = amp * np.exp(-1.0 / (1.0 - u[inside] ** 2))
            return out if np.ndim(x) else out[0]

        def rho(x, a=a, amp=amp, lo=float(rho_minus)):
            u = np.clip(np.asarray(x, dtype=float) / a, -1.0, 1.0)
            return lo + amp * a * _bump_cumulative(u)

        return DensityProfile(COMPACT, rho, drho, float(rho_minus),
                              float(rho_plus), support=(-a, a), scale=a,
                              family="bump")

    if family == "tabulated":
        if samples is None:
            raise ProfileError("tabulated family needs (x, rho) samples")
        xs = np.asarray([p[0] for p in samples], dtype=float)
        rs = np.asarray([p[1] for p in samples], dtype=float)
        if len(xs) < 3:
            raise ProfileError("tabulated family needs at least 3 samples")
        if np.any(np.diff(xs) <= 0):
            raise ProfileError("tabulated abscissas must be strictly increasing")
        drops = np.nonzero(np.diff(rs) < 0)[0]
        if drops.size:
            raise ProfileError(
                f"tabulated density not monotone at sample index {drops[0] + 1}")
        if rs[0] <= 0:
            raise ProfileError("tabulated density must be positive")
        if rs[-1] <= rs[0]:
            raise ProfileError("need rho(last) > rho(first) for an unstable profile")
        # only tabulated profiles read scipy.interpolate
        from scipy.interpolate import PchipInterpolator
        interp = PchipInterpolator(xs, rs, extrapolate=False)
        dinterp = interp.derivative()
        x0, x1 = xs[0], xs[-1]

        def rho(x, interp=interp, x0=x0, x1=x1):
            xc = np.clip(np.asarray(x, dtype=float), x0, x1)
            return interp(xc)

        def drho(x, dinterp=dinterp, x0=x0, x1=x1):
            xa = np.asarray(x, dtype=float)
            xc = np.clip(xa, x0, x1)
            return np.where((xa >= x0) & (xa <= x1), dinterp(xc), 0.0)

        return DensityProfile(COMPACT, rho, drho, float(rs[0]), float(rs[-1]),
                              support=(float(x0), float(x1)),
                              scale=float(x1 - x0) / 2.0,
                              family="tabulated", knots=tuple(xs))

    raise ProfileError(f"unknown profile family '{family}'")


def limit_box(profile, rel_tol=_LIMIT_TOL):
    """Interval outside which rho0 sits within rel_tol*(rho+ - rho-) of its
    limits: on each half line, the level search (`brent.monotone_level`)
    from t = 0 in the outward coordinate t = sign*x."""
    if profile.kind == COMPACT and profile.support is not None:
        return profile.support
    tol = rel_tol * profile.delta

    def end(sign, lim):
        return sign * monotone_level(
            lambda t: sign * (lim - float(profile.rho(sign * t))) - tol,
            0.0, profile.scale)
    return end(-1.0, profile.rho_minus), end(1.0, profile.rho_plus)


def _refined_max(f, grid, vals, xatol):
    """(x, f(x)) at the maximum of f near the grid maximizer of `vals`.

    Resamples the two grid steps around the maximizer, then each round the
    two steps around the last round's maximizer x, until those are no wider
    than Brent's stopping distance 2*(sqrt(eps)|x| + xatol/3).
    """
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    while True:
        xs = np.linspace(lo, hi, _ZOOM_POINTS)
        fs = f(xs)
        j = int(np.argmax(fs))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, _ZOOM_POINTS - 1)]
        if hi - lo <= 2.0 * (_SQRT_EPS * abs(xs[j]) + xatol / 3.0):
            return float(xs[j]), float(fs[j])


def profile_bounds(profile, params):
    """Locate sup rho0'/rho0 and sup rho0', hence the bound sqrt(g/L0).

    Any growth rate of the linearized problem is real and lies below
    lambda_max = sqrt(g * sup(rho0'/rho0)); this caps every root bracket
    downstream.  The supremum is found on a 4096-point grid over the box
    where the profile is numerically at its limits (`limit_box`), then
    refined by resampling the two grid steps around the grid maximum, 65
    points a round (the ratio is smooth and unimodal for all families).
    A profile that approaches its limits too slowly for the box raises
    TruncationError.
    """
    x_lo, x_hi = limit_box(profile)
    grid = np.linspace(x_lo, x_hi, _SUP_GRID)
    drho = profile.drho(grid)
    xatol = 1e-12 * max(1.0, x_hi - x_lo)
    x_peak, r_peak = _refined_max(lambda t: profile.drho(t) / profile.rho(t),
                                  grid, drho / profile.rho(grid), xatol)
    if r_peak <= 0:
        raise ProfileError("profile has no positive density gradient")
    x_rho_m, dmax = _refined_max(profile.drho, grid, drho, xatol)
    return ProfileBounds(L0=1.0 / r_peak, rho_m=dmax,
                         lambda_max=math.sqrt(params.g * r_peak),
                         x_peak=x_peak, x_rho_m=x_rho_m)


def validate(profile):
    """Sample the profile invariants and report the worst violations.

    The finite-difference consistency check is skipped within a few steps of
    interpolation knots for tabulated profiles (the interpolant is only C1
    there, so a centered difference straddling a knot is not meaningful).
    """
    x_lo, x_hi = limit_box(profile, rel_tol=1e-6)
    pad = 5.0 * profile.scale
    xs = np.linspace(x_lo - pad, x_hi + pad, _VALIDATE_GRID)
    r = profile.rho(xs)
    d = profile.drho(xs)
    delta = profile.delta

    checks = []

    tol_r = 1e-10 * delta
    in_range = (r >= profile.rho_minus - tol_r) & (r <= profile.rho_plus + tol_r)
    overshoot = np.max(np.maximum(profile.rho_minus - r, r - profile.rho_plus))
    checks.append(("rho within [rho_minus, rho_plus]", bool(in_range.all()),
                   f"worst overshoot {overshoot:.3e}"))
    checks.append(("rho0' >= 0", bool((d >= -tol_r / profile.scale).all()),
                   f"min rho0' = {np.min(d):.3e}"))

    if profile.kind == INCREASING:
        ok_pos = bool((d > 0).all())
        checks.append(("rho0' > 0 everywhere (strictly increasing kind)", ok_pos,
                       f"min rho0' = {float(np.min(d)):.3e}"))
    elif profile.kind == COMPACT:
        lo, hi = profile.support or (0.0, 0.0)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        outside = np.abs(xs - mid) >= half * (1.0 + 1e-12)
        ok_out = bool((np.abs(d[outside]) <= tol_r / profile.scale).all())
        checks.append(("rho0' = 0 outside its support (compact kind)", ok_out,
                       f"max |rho0'| outside = {float(np.max(np.abs(d[outside]))):.3e}"))
    else:
        checks.append(("known kind", False, f"unknown kind '{profile.kind}'"))

    fd_xs = xs[1:-1:4]
    if profile.knots:
        # keep clear of knots: the interpolant is only C1 there
        knots = np.asarray(profile.knots)
        dist = np.min(np.abs(fd_xs[:, None] - knots[None, :]), axis=1)
        fd_xs = fd_xs[dist > 3e-4 * np.maximum(1.0, np.abs(fd_xs))]
    # Richardson-extrapolated centered differences at the base step
    # 1e-4*max(1,|x|): plain second-order differences cannot reach 1e-6
    # near the flat edge of bump-type gradients, where |f'''/f'| blows up.
    h = 1e-4 * np.maximum(1.0, np.abs(fd_xs))
    fd_h = (profile.rho(fd_xs + h) - profile.rho(fd_xs - h)) / (2.0 * h)
    fd_h2 = (profile.rho(fd_xs + h / 2) - profile.rho(fd_xs - h / 2)) / h
    fd = (4.0 * fd_h2 - fd_h) / 3.0
    dref = profile.drho(fd_xs)
    dscale = float(np.max(np.abs(profile.drho(xs))))
    denom = np.maximum(np.maximum(np.abs(dref), np.abs(fd)), 1e-3 * dscale)
    rel = np.abs(fd - dref) / denom
    fd_err = float(np.max(rel)) if rel.size else 0.0
    checks.append(("drho consistent with centered differences",
                   fd_err <= 1e-6, f"worst relative error {fd_err:.3e}"))

    passed = all(ok for _, ok, _ in checks)
    return ProfileReport(passed=passed, checks=tuple(checks))
