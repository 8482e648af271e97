"""Independent growth-rate finder by compound-matrix shooting.

A growth rate is a lambda at which the plane of solutions decaying at +inf
meets the plane decaying at -inf.  Both planes are integrated toward a
matching point as 2-vectors in wedge coordinates (the standard stiffness
cure: raw columns collapse onto the dominant direction, the wedge of the
pair does not), and the Evans value is their 4-form pairing there.  This
path shares nothing with the Galerkin machinery: it integrates the second
compound of the mode equation's companion system, a fixed 6x6 structure
written out from three coefficients, with the 8th-order Dormand-Prince
pair.  The system is linear in the state and cheap per lambda, so both
sides of an array of lambdas are integrated as one state: a scan, and
each round of the root refinement, is one integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import SolverError, StiffnessError
from .profiles import COMPACT, limit_box

# wedge basis ordering
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_RENORM_AT = 1e6
# relative tolerance of every wedge integration, per lambda (absolute: 1e-2
# of it)
_RTOL = 1e-10
# one fixed rule over the whole window for the integral of the removed shift
_SHIFT_XI, _SHIFT_W = np.polynomial.legendre.leggauss(128)
# interior points per open bracket in each round of the root refinement:
# a round shrinks every bracket 16-fold
_SECTIONS = 15
# relative bracket width below which a round could add no new float
_ROUNDOFF = 4 * np.finfo(float).eps


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
    no shift.  lam may be an array of m lambdas with w of shape (6, m), or
    (6, 2, m) with x and direction (2, 1) columns, one row per side; rho
    and rho' are evaluated once for all of them.
    """
    k = params.k
    rho = profile.rho(x) / params.mu
    drho = profile.drho(x) / params.mu
    lam_rho = lam * rho
    a0 = -k**2 * lam_rho - k**4 + drho * params.g * k**2 / lam
    a1 = drho * lam
    a2 = lam_rho + 2.0 * k**2
    s = direction * (k + np.sqrt(k * k + lam_rho))
    w01, w02, w03, w12, w13, w23 = w
    return np.array([w02,
                     w03 + w12,
                     a1 * w01 + a2 * w02 + w13,
                     w13,
                     a2 * w12 + w23 - a0 * w01,
                     -a0 * w02 - a1 * w12]) - s * w


def _decay_rates(profile, params, lam, side):
    k, mu = params.k, params.mu
    rho = profile.rho_plus if side == "right" else profile.rho_minus
    sig = np.sqrt(k * k + lam * rho / mu)
    return k, sig


def _initial_plane(profile, params, lam, side):
    """Unit wedge of the decaying pair at the truncation point, one column
    per lambda, and the log of the norm removed."""
    k, sig = _decay_rates(profile, params, lam, side)
    r = -1.0 if side == "right" else 1.0
    u = np.array([1.0, r * k, k * k, r * k**3])
    v = np.array([np.ones_like(sig), r * sig, sig * sig, r * sig**3])
    w = _wedge_of(u, v)
    nrm = np.linalg.norm(w, axis=0)
    return w / nrm, np.log(nrm)


def _integrate(profile, params, lam, x_ends, match, w0):
    """Shifted wedge integration with running renormalization of both
    sides in one state w0 (6, 2, m), one column per side and lambda.

    Side j runs from x_ends[j] to `match` as t runs from 0 to 1, so its
    right-hand side is scaled by its span match - x_ends[j].  The
    growth-dominant rate of each target plane is +-(k + sigma0), which is
    removed as a running shift so the state stays O(1); the log of the
    renormalizations is returned per (side, lambda), and `_shift_integral`
    gives the log of the removed shift.  solve_ivp's error norm is the RMS
    over all 12m components, so both tolerances are divided by sqrt(2m):
    each side of each lambda then stays within the single-lambda tolerance.
    """
    x0 = np.asarray(x_ends, dtype=float)[:, None]
    span = match - x0
    direction = np.sign(span)
    shape = w0.shape
    scale = math.sqrt(w0[0].size)

    def rhs(t, y):
        return (span * _wedge_rhs(profile, params, lam, x0 + t * span,
                                  y.reshape(shape), direction)).ravel()

    n_seg = max(2, int(np.max(np.abs(span)) / 8.0))
    ts = np.linspace(0.0, 1.0, n_seg + 1)
    w, log_scale = w0, np.zeros(shape[1:])
    for a, b in zip(ts[:-1], ts[1:]):
        sol = solve_ivp(rhs, (a, b), w.ravel(), method="DOP853",
                        rtol=_RTOL / scale, atol=_RTOL * 1e-2 / scale)
        if not sol.success:
            sides = " and ".join(f"[{p:.3g}, {q:.3g}]" for p, q in
                                 zip((x0 + a * span).flat, (x0 + b * span).flat))
            raise StiffnessError(
                f"wedge integration failed on {sides} for lambda "
                f"in [{np.min(lam):.6g}, {np.max(lam):.6g}]: {sol.message}")
        w = sol.y[:, -1].reshape(shape)
        nrm = np.linalg.norm(w, axis=0)
        nrm = np.where((nrm > _RENORM_AT) | (nrm < 1.0 / _RENORM_AT), nrm, 1.0)
        w = w / nrm
        log_scale += np.log(nrm)
    return w, log_scale


def _shift_integral(profile, params, lam, x_minus, x_plus):
    """int_{x_minus}^{x_plus} (k + sigma0) dx per lambda, the log of the
    positive factor the shifted integrations from both ends remove
    together."""
    k, mu = params.k, params.mu
    half, mid = 0.5 * (x_plus - x_minus), 0.5 * (x_plus + x_minus)
    rho = np.asarray(profile.rho(mid + half * _SHIFT_XI), dtype=float)
    return half * ((k + np.sqrt(k * k + np.multiply.outer(lam, rho) / mu))
                   @ _SHIFT_W)


def _matching_bounds(profile):
    if profile.kind == COMPACT:
        pad = 1e-3 * profile.a
        return -profile.a - pad, profile.a + pad
    lo, hi = limit_box(profile, rel_tol=1e-10)
    return lo, hi


def evans_function(profile, params, lam, match_x=None):
    """Signed Evans value at one lambda, or at each of a 1-D array of them.

    Integrates the decaying 2-plane forward from the left truncation point
    and backward from the right one to the matching point (midpoint by
    default) and pairs them.  Zero exactly at growth rates; the sign is
    continuous along lambda scans.  A scalar lam gives one `EvansSample`;
    an array gives a tuple of them, from one integration of both sides of
    all lambdas together (a scalar is the batch of one).  Each side of
    each lambda is integrated to the same tolerance as on its own, so
    values differ from single calls only at that level.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or lams.size == 0:
        raise SolverError("Evans function needs a scalar or a non-empty "
                          "1-D array of lambdas")
    if not np.all(lams > 0):
        raise SolverError("Evans function needs lambda > 0")
    x_minus, x_plus = _matching_bounds(profile)
    m = 0.5 * (x_minus + x_plus) if match_x is None else float(match_x)

    w_l, log_l0 = _initial_plane(profile, params, lams, "left")
    w_r, log_r0 = _initial_plane(profile, params, lams, "right")
    w, log_w = _integrate(profile, params, lams, (x_minus, x_plus), m,
                          np.stack([w_l, w_r], axis=1))
    raw = _pairing(w[:, 0], w[:, 1])
    shift = _shift_integral(profile, params, lams, x_minus, x_plus)
    exponent = log_w[1] + log_w[0] + log_r0 + log_l0 + shift
    samples = tuple(EvansSample(lam=float(l), value=float(v),
                                scale_exponent=float(e))
                    for l, v, e in zip(lams, raw, exponent))
    return samples if np.ndim(lam) else samples[0]


def _signs(profile, params, lams):
    return np.array([s.sign for s in evans_function(profile, params, lams)])


def find_roots(profile, params, scan_grid, tol=1e-10):
    """Every sign change of the Evans value over `scan_grid`, refined by
    batched k-section.

    The scan is one batched evaluation.  Each round then evaluates
    `_SECTIONS` equally spaced interior points of every open bracket in one
    batched call and keeps the first sign change in each; an exact zero
    closes its bracket.  A bracket is open while it is wider than tol (plus
    round-off), and each root is returned as its midpoint, so within tol/2
    (plus round-off) of a sign change.  A scan point where the value is
    exactly zero is returned as it is.
    """
    grid = np.sort(np.asarray(scan_grid, dtype=float))
    s = _signs(profile, params, grid)
    # one bracket [lo, hi] per root, in grid order, with the sign s_lo at
    # lo; an exact zero is a closed bracket of width 0
    starts = np.flatnonzero((s == 0) | (s * np.append(s[1:], 0.0) < 0))
    lo = grid[starts]
    hi = np.where(s[starts] == 0, lo,
                  grid[np.minimum(starts + 1, grid.size - 1)])
    s_lo = s[starts]
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    while True:
        live = np.flatnonzero(hi - lo > tol + _ROUNDOFF * np.abs(hi))
        if live.size == 0:
            return [float(r) for r in 0.5 * (lo + hi)]
        pts = lo[live, None] + (hi - lo)[live, None] * frac
        q = np.column_stack([lo[live], pts, hi[live]])
        s_pts = _signs(profile, params, pts.ravel()).reshape(pts.shape)
        sq = np.column_stack([s_lo[live], s_pts, -s_lo[live]])
        # every sign before the first change equals s_lo, so the first
        # change is a sign flip or an exact zero
        i = np.argmax(sq[:, 1:] != sq[:, :-1], axis=1)
        rows = np.arange(live.size)
        hi[live] = q[rows, i + 1]
        lo[live] = np.where(sq[rows, i + 1] == 0, hi[live], q[rows, i])
