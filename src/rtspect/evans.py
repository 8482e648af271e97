"""Independent growth-rate finder by compound-matrix shooting.

A growth rate is a lambda at which the plane of solutions decaying at +inf
meets the plane decaying at -inf.  Both planes are integrated toward a
matching point as 2-vectors in wedge coordinates (the standard stiffness
cure: raw columns collapse onto the dominant direction, the wedge of the
pair does not), and the Evans value is their 4-form pairing there.  This
path shares nothing with the Galerkin machinery: it integrates the second
compound of the mode equation's companion system, a fixed 6x6 structure
written out from three coefficients, with an adaptive Runge-Kutta pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import SolverError, StiffnessError
from .profiles import COMPACT

# wedge basis ordering
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_RENORM_AT = 1e6
# relative tolerance of every wedge integration (absolute: 1e-2 of it)
_RTOL = 1e-10
# one fixed rule over the whole window for the integral of the removed shift
_SHIFT_XI, _SHIFT_W = np.polynomial.legendre.leggauss(128)


@dataclass(frozen=True)
class EvansSample:
    lam: float
    value: float            # signed, rescaled pairing at the matching point
    scale_exponent: float   # log of the positive factor removed from value

    @property
    def sign(self):
        return math.copysign(1.0, self.value) if self.value != 0 else 0.0

    @property
    def log_magnitude(self):
        return math.log(abs(self.value)) + self.scale_exponent \
            if self.value != 0 else -math.inf


def _wedge_of(u, v):
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in _PAIRS])


def _pairing(a, b):
    """Coefficient of e0^e1^e2^e3 in a ^ b."""
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])


def _wedge_rhs(profile, params, lam, x, w, direction):
    """(u ^ v)' for U' = A(x) U, minus direction * (k + sigma0(x)) * (u ^ v).

    U = (phi, phi', phi'', phi''') and A is the companion matrix of the mode
    equation: a shift, plus the last row (a0, a1, a2, 0) that solves the
    equation for phi''''.  The induced action Au ^ v + u ^ Av is written
    out in `_PAIRS` order.  direction is +1 forward, -1 backward and 0 for
    no shift.
    """
    k, mu = params.k, params.mu
    rho = float(profile.rho(x))
    drho = float(profile.drho(x))
    a0 = -lam * k**2 * rho / mu - k**4 + drho * params.g * k**2 / (lam * mu)
    a1 = drho * lam / mu
    a2 = lam * rho / mu + 2.0 * k**2
    s = direction * (k + math.sqrt(k * k + lam * rho / mu))
    w01, w02, w03, w12, w13, w23 = w
    return np.array([w02 - s * w01,
                     w03 + w12 - s * w02,
                     a1 * w01 + a2 * w02 + w13 - s * w03,
                     w13 - s * w12,
                     -a0 * w01 + a2 * w12 + w23 - s * w13,
                     -a0 * w02 - a1 * w12 - s * w23])


def _decay_rates(profile, params, lam, side):
    k, mu = params.k, params.mu
    rho = profile.rho_plus if side == "right" else profile.rho_minus
    sig = math.sqrt(k * k + lam * rho / mu)
    return k, sig


def _initial_plane(profile, params, lam, side):
    k, sig = _decay_rates(profile, params, lam, side)
    if side == "right":
        u = np.array([1.0, -k, k * k, -k**3])
        v = np.array([1.0, -sig, sig * sig, -sig**3])
    else:
        u = np.array([1.0, k, k * k, k**3])
        v = np.array([1.0, sig, sig * sig, sig**3])
    w = _wedge_of(u, v)
    nrm = np.linalg.norm(w)
    return w / nrm, math.log(nrm)


def _integrate(profile, params, lam, x_from, x_to, w0):
    """Shifted wedge integration with running renormalization.

    The growth-dominant rate of the target plane is +-(k + sigma0), which is
    removed as a running shift so the state stays O(1); the log of the
    renormalizations is returned, and `_shift_integral` gives the log of
    the removed shift.
    """
    direction = 1.0 if x_to > x_from else -1.0

    def rhs(x, w):
        return _wedge_rhs(profile, params, lam, x, w, direction)

    n_seg = max(2, int(abs(x_to - x_from) / 8.0))
    xs = np.linspace(x_from, x_to, n_seg + 1)
    w = w0.copy()
    log_scale = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        sol = solve_ivp(rhs, (a, b), w, method="RK45",
                        rtol=_RTOL, atol=_RTOL * 1e-2, dense_output=False)
        if not sol.success:
            raise StiffnessError(f"wedge integration failed on [{a:.3g}, {b:.3g}]: "
                                 f"{sol.message}; reduce the step / tolerance")
        w = sol.y[:, -1]
        nrm = np.linalg.norm(w)
        if nrm > _RENORM_AT or nrm < 1.0 / _RENORM_AT:
            w /= nrm
            log_scale += math.log(nrm)
    return w, log_scale


def _shift_integral(profile, params, lam, x_minus, x_plus):
    """int_{x_minus}^{x_plus} (k + sigma0) dx, the log of the positive
    factor the shifted integrations from both ends remove together."""
    k, mu = params.k, params.mu
    half, mid = 0.5 * (x_plus - x_minus), 0.5 * (x_plus + x_minus)
    rho = np.asarray(profile.rho(mid + half * _SHIFT_XI), dtype=float)
    return half * float(_SHIFT_W @ (k + np.sqrt(k * k + lam * rho / mu)))


def _matching_bounds(profile):
    if profile.kind == COMPACT:
        pad = 1e-3 * profile.a
        return -profile.a - pad, profile.a + pad
    from .profiles import limit_box
    lo, hi = limit_box(profile, rel_tol=1e-10)
    return lo, hi


def evans_function(profile, params, lam, match_x=None):
    """Signed Evans value at one lambda.

    Integrates the decaying 2-plane backward from the right truncation
    point and forward from the left one to the matching point (midpoint by
    default) and pairs them.  Zero exactly at growth rates; the sign is
    continuous along lambda scans.
    """
    if lam <= 0:
        raise SolverError("Evans function needs lambda > 0")
    x_minus, x_plus = _matching_bounds(profile)
    m = 0.5 * (x_minus + x_plus) if match_x is None else float(match_x)

    w_r, log_r0 = _initial_plane(profile, params, lam, "right")
    w_l, log_l0 = _initial_plane(profile, params, lam, "left")
    w_r, log_r = _integrate(profile, params, lam, x_plus, m, w_r)
    w_l, log_l = _integrate(profile, params, lam, x_minus, m, w_l)
    raw = _pairing(w_l, w_r)
    shift = _shift_integral(profile, params, lam, x_minus, x_plus)
    return EvansSample(lam=float(lam), value=float(raw),
                       scale_exponent=log_r + log_l + log_r0 + log_l0 + shift)


def find_roots(profile, params, scan_grid, tol=1e-10):
    """Refine every sign change of the Evans value over `scan_grid` by
    Brent's method; each root is returned within tol/2 (plus round-off)."""
    grid = np.sort(np.asarray(scan_grid, dtype=float))
    vals = {lam: evans_function(profile, params, lam).value for lam in grid}

    def value(lam):
        # brentq starts by evaluating both scan points again
        if lam not in vals:
            vals[lam] = evans_function(profile, params, lam).value
        return vals[lam]

    roots = []
    for a, b in zip(grid[:-1], grid[1:]):
        if vals[a] == 0.0 or vals[a] * vals[b] < 0:
            roots.append(brentq(value, a, b, xtol=0.5 * tol))
    if vals[grid[-1]] == 0.0:
        roots.append(float(grid[-1]))
    return roots
