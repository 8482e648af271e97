"""Global modes: inner Galerkin solution glued to decaying tails.

A dispersion root gives the inner coefficients on the window; past each
endpoint the mode is a combination b1 U_a + b2 U_b of the two decaying
solutions on that side.  Both profile kinds hand out those two as one pair
per side, from the slice builder's tail source (`tails.pairs(lam)`), read
through one interface (`samples_at`, both solutions at once, `reach` and
`eval_limit`): the closed-form `ExponentialPair` for compact-gradient
profiles (`spectrum.CompactTails`), the sampled Picard `DecayingPair` for
strictly increasing ones (`outer_general`).  The amplitudes match (phi, phi') at the
endpoints, which is exact by construction, while the continuity of phi''
and phi''' across the endpoints is then a consequence of the boundary
closure and converges with the mesh.  Modes are normalized to sup |phi| = 1
with the sign fixed at the density-gradient maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import gauss_points
from .errors import ExtrapolationError, GluingError


@dataclass
class Tail:
    """b1 U_a + b2 U_b past one window end, phases referenced at that end."""

    side: str
    amps: tuple                    # (b1, b2)
    pair: object                   # (U_a, U_b), one decaying pair
    phase0: np.ndarray             # (2,), their phases at the window end

    @property
    def reach(self):
        """Far end of the span scanned for sup |phi| and residuals."""
        return self.pair.reach

    def eval(self, x):
        """(phi, phi', phi'', phi''') at points x past the window end."""
        limit = self.pair.eval_limit
        beyond = x > limit if self.side == "right" else x < limit
        if np.any(beyond):
            raise ExtrapolationError(
                "evaluation beyond the truncated outer grid; enlarge X_max")
        v = self.pair.samples_at(x)
        u = v[..., :4] * np.exp(-(v[..., 4] - self.phase0))[..., None]
        vals = self.amps[0] * u[..., 0, :] + self.amps[1] * u[..., 1, :]
        return tuple(vals[..., j] for j in range(4))

    def fourth_derivative(self, x):
        """phi'''' at x, from the solutions' samples and their slopes."""
        v, dv = self.pair.samples_at(x), self.pair.samples_at(x, 1)
        e = np.exp(-(v[..., 4] - self.phase0))
        d = dv[..., 3] - dv[..., 4] * v[..., 3]
        b1, b2 = self.amps
        return b1 * e[..., 0] * d[..., 0] + b2 * e[..., 1] * d[..., 1]


@dataclass
class GlobalMode:
    """A characteristic pair (lambda_n, phi_n) evaluable on the whole line."""

    lam: float
    n: int
    space: object
    dofs: np.ndarray
    bc: np.ndarray                 # (8,) n_ij at x_minus, then x_plus
    outer_left: Tail
    outer_right: Tail
    x_minus: float
    x_plus: float
    x_mid: float
    norm_scale: float = 1.0

    def tail(self, side):
        return self.outer_right if side == "right" else self.outer_left

    def eval(self, x):
        """(phi, phi', phi'', phi''') at x, piecewise inner/outer."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x).astype(float)
        out = np.zeros((4, xv.size))
        inner = (xv >= self.x_minus) & (xv <= self.x_plus)
        if inner.any():
            for j in range(4):
                out[j, inner] = self.space.evaluate(self.dofs, xv[inner], j)
        for side, mask in (("right", xv > self.x_plus), ("left", xv < self.x_minus)):
            if mask.any():
                vals = self.tail(side).eval(xv[mask])
                for j in range(4):
                    out[j, mask] = vals[j]
        if scalar:
            return tuple(float(out[j, 0]) for j in range(4))
        return tuple(out[j] for j in range(4))


def glue_mode(point, space, bc, outer, x_mid=0.0):
    """Extend a dispersion eigenvector by decaying tails into a global mode.

    bc and outer are a tail source's n_ij row (8,) and `pairs(lam)`,
    {"right": pair, "left": pair}, at the point's lambda.
    The tail amplitudes match (phi, phi') at the endpoints exactly; the
    mode is then normalized to sup |phi| = 1 with phi(x_mid) >= 0 (falling
    back to the slope when the mode vanishes at x_mid).
    """
    dofs = np.asarray(point.dofs, dtype=float).copy()
    if not np.any(np.abs(dofs) > 0):
        raise GluingError("trivial inner solution cannot be glued into a mode")
    x_minus, x_plus = space.mesh.x_minus, space.mesh.x_plus
    mode = GlobalMode(
        lam=point.lam, n=point.n, space=space, dofs=dofs, bc=bc,
        outer_left=glue_tail("left", outer["left"], x_minus, dofs[0], dofs[1]),
        outer_right=glue_tail("right", outer["right"], x_plus,
                              dofs[-2], dofs[-1]),
        x_minus=x_minus, x_plus=x_plus, x_mid=x_mid)
    _normalize(mode)
    return mode


def glue_tail(side, pair, x_end, phi_end, dphi_end):
    """Tail through (phi, phi') = (phi_end, dphi_end) at the window end."""
    v = pair.samples_at(x_end)                      # (2, 5)
    A = v[:, :2].T
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-10 * (np.linalg.norm(A[0]) * np.linalg.norm(A[1]) + 1e-300):
        raise GluingError(f"gluing system singular at x={x_end:.4g}")
    b1, b2 = np.linalg.solve(A, np.array([phi_end, dphi_end]))
    return Tail(side, (float(b1), float(b2)), pair, v[:, 4].copy())


def _normalize(mode):
    xs_in = np.unique(np.concatenate(
        [mode.space.mesh.nodes,
         mode.space.quad_x.ravel()]))
    phi_in = mode.space.evaluate(mode.dofs, xs_in, 0)
    peak = float(np.max(np.abs(phi_in)))
    for tail, x0, x1 in ((mode.outer_right, mode.x_plus, mode.outer_right.reach),
                         (mode.outer_left, mode.outer_left.reach, mode.x_minus)):
        xs = np.linspace(x0, x1, 200)
        vals = tail.eval(xs)[0]
        peak = max(peak, float(np.max(np.abs(vals))))
    if peak == 0.0:
        raise GluingError("mode vanishes identically")
    sign_ref = float(mode.space.evaluate(mode.dofs, mode.x_mid, 0))
    if abs(sign_ref) < 1e-8 * peak:
        sign_ref = float(mode.space.evaluate(mode.dofs, mode.x_mid, 1))
    s = -1.0 if sign_ref < 0 else 1.0
    scale = s / peak
    mode.dofs *= scale
    mode.norm_scale = scale
    for tail in (mode.outer_left, mode.outer_right):
        tail.amps = (tail.amps[0] * scale, tail.amps[1] * scale)


def _ends(mode):
    """(side, x_end, its n_ij as Python floats) at both window ends."""
    n = mode.bc.tolist()
    return (("left", mode.x_minus, n[:4]), ("right", mode.x_plus, n[4:]))


def gluing_jumps(mode):
    """Relative jumps of phi..phi''' across both endpoints (inner vs tail).

    phi and phi' are nodal unknowns, compared raw.  The inner phi'' and
    phi''' at the junction are the variationally consistent fluxes of the C1
    discretization, recovered through the boundary closure from the
    superconvergent endpoint pair (raw cubic traces of second and third
    derivatives converge only at O(h^2) and O(h) and would mask the gluing
    quality entirely).
    """
    out = {}
    for side, x_e, (n11, n12, n21, n22) in _ends(mode):
        p = float(mode.space.evaluate(mode.dofs, x_e, 0))
        dp = float(mode.space.evaluate(mode.dofs, x_e, 1))
        inner = [p, dp, -n11 * p - n12 * dp, -n21 * p - n22 * dp]
        tail = [float(v[0]) for v in mode.tail(side).eval(np.array([x_e]))]
        for j in range(4):
            scale = max(abs(inner[j]), abs(tail[j]), 1e-300)
            out[(side, j)] = abs(inner[j] - tail[j]) / scale
    return out


def raw_trace_defects(mode):
    """Boundary-closure residual of the raw cubic traces (mesh diagnostic).

    |n11 phi + n12 phi' + phi''| and |n21 phi + n22 phi' + phi'''| with all
    quantities read directly off the end elements; decreases like O(h^2) and
    O(h) under refinement.
    """
    out = {}
    for side, x_e, (n11, n12, n21, n22) in _ends(mode):
        vals = [float(mode.space.evaluate(mode.dofs, x_e, j)) for j in range(4)]
        r1 = n11 * vals[0] + n12 * vals[1] + vals[2]
        r2 = n21 * vals[0] + n22 * vals[1] + vals[3]
        out[(side, 2)] = abs(r1) / max(abs(vals[2]), 1e-300)
        out[(side, 3)] = abs(r2) / max(abs(vals[3]), 1e-300)
    return out


def _window_test(c, w):
    """C1 window sin^2(pi (x - c + w) / (2w)) on [c-w, c+w] and derivatives."""
    f = math.pi / (2.0 * w)

    def u(x):
        return np.clip((np.asarray(x) - c + w) * f, 0.0, math.pi)

    return (lambda x: np.sin(u(x)) ** 2, lambda x: f * np.sin(2.0 * u(x)),
            lambda x: 2.0 * f * f * np.cos(2.0 * u(x)))


def ode_residual(mode, profile, params, rho_m):
    """Scaled sup-norm defect of the mode equation.

    Inside (and straddling) the window the equation is tested in weak form
    against 24 smooth C1 window functions, which are not in the trial
    space: each station reports
      | lam^2 int rho0 (k^2 phi th + phi' th')
        + lam mu int (phi'' th'' + 2k^2 phi' th' + k^4 phi th)
        - g k^2 int rho0' phi th | / (g k^2 rho_m sup|phi| int th).
    Smooth tests pair with the L2 error of the Galerkin solution, so this
    defect shrinks far faster than pointwise derivative errors (a pointwise
    fourth derivative of a cubic is meaningless).  Outside the window the
    strong residual is evaluated directly at 200 points per side: closed
    tails are exact, sampled tails differentiate their cubic Hermite
    interpolants.  Returns
    (total, inner, outer).
    """
    lam, k, mu, g = mode.lam, params.k, params.mu, params.g
    scale = g * k**2 * rho_m
    span = mode.x_plus - mode.x_minus
    w = span / 16.0
    reach_r, reach_l = mode.outer_right.reach, mode.outer_left.reach
    centers = np.linspace(max(mode.x_minus - 0.5 * w, reach_l + 1.01 * w),
                          min(mode.x_plus + 0.5 * w, reach_r - 1.01 * w),
                          24)
    nodes = mode.space.mesh.nodes
    inner_res = 0.0
    for c in centers:
        th, dth, d2th = _window_test(c, w)
        breaks = [c - w, c + w]
        breaks += [t for t in nodes if c - w < t < c + w]
        breaks += [e for e in (mode.x_minus, mode.x_plus) if c - w < e < c + w]
        xq, wq = gauss_points(breaks)
        phi, dphi, d2phi, _ = mode.eval(xq)
        rho = np.asarray(profile.rho(xq))
        drho = np.asarray(profile.drho(xq))
        r = float((wq * (lam**2 * rho * (k**2 * phi * th(xq) + dphi * dth(xq))
                         + lam * mu * (d2phi * d2th(xq)
                                       + 2 * k**2 * dphi * dth(xq)
                                       + k**4 * phi * th(xq))
                         - g * k**2 * drho * phi * th(xq))).sum())
        mass = float((wq * th(xq)).sum())
        inner_res = max(inner_res, abs(r) / (scale * mass))

    outer_res = 0.0
    for side in ("left", "right"):
        x0 = mode.x_plus if side == "right" else reach_l
        x1 = reach_r if side == "right" else mode.x_minus
        pad = 1e-6 * (x1 - x0)
        xs = np.linspace(x0 + pad, x1 - pad, 200)
        p, dp, d2p, d3p = mode.tail(side).eval(xs)
        d4p = mode.tail(side).fourth_derivative(xs)
        rr = np.asarray(profile.rho(xs))
        dr = np.asarray(profile.drho(xs))
        res = (-lam**2 * (rr * k**2 * p - dr * dp - rr * d2p)
               - lam * mu * (d4p - 2 * k**2 * d2p + k**4 * p)
               + g * k**2 * dr * p)
        outer_res = max(outer_res, float(np.max(np.abs(res)) / scale))
    return max(inner_res, outer_res), inner_res, outer_res


@dataclass
class PerturbationField:
    """Velocity, density and pressure amplitudes of one normal mode."""

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    zeta: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    q: np.ndarray
    P0: np.ndarray | None = None


def reconstruct_fields(mode, profile, params, grid, with_background=False):
    """Linearized perturbation amplitudes along `grid`.

    zeta = -rho0' phi / lam; the horizontal velocities eliminate the
    pressure through psi = -k1 phi'/k^2, theta = -k2 phi'/k^2, and
    q = (mu phi''' - (lam rho0 + mu k^2) phi') / k^2.  These satisfy the
    divergence-free relation k1 psi + k2 theta + phi' = 0 identically.
    """
    lam, k = mode.lam, params.k
    grid = np.asarray(grid, dtype=float)
    phi, dphi, d2phi, d3phi = mode.eval(grid)
    rho = np.asarray(profile.rho(grid))
    drho = np.asarray(profile.drho(grid))
    zeta = -drho * phi / lam
    psi = -params.k1 * dphi / k**2
    theta = -params.k2 * dphi / k**2
    q = (params.mu * d3phi - (lam * rho + params.mu * k**2) * dphi) / k**2
    P0 = None
    if with_background:
        # P0' = -g rho0, anchored at P0(0) = 0
        xs = np.sort(np.unique(np.concatenate([[0.0], grid])))
        fine = np.linspace(xs[0], xs[-1], 4097)
        vals = np.asarray(profile.rho(fine))
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (vals[1:] + vals[:-1]) * np.diff(fine))])
        base = np.interp(0.0, fine, cum)
        P0 = -params.g * (np.interp(grid, fine, cum) - base)
    return PerturbationField(x=grid, phi=phi, dphi=dphi, d2phi=d2phi,
                             d3phi=d3phi, zeta=zeta, psi=psi, theta=theta,
                             q=q, P0=P0)
