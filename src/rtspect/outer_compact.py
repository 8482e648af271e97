"""Closed-form decaying tails and boundary closures for compact-gradient profiles.

Outside the support of rho0' the mode equation has constant coefficients and
the solutions decaying at +inf are spanned by exp(-k(x-a)) and
exp(-tau_plus(x-a)) with tau = sqrt(k^2 + lambda*rho/mu); mirrored at -inf.
Membership in that span is encoded as two linear relations on
(phi, phi', phi'', phi''') at each endpoint, which close the problem on
[-a, a].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, SolverError
from .profiles import COMPACT

# tau - k below this multiple of k makes {e^{-kx}, e^{-tau x}} numerically
# collinear; root brackets never reach this region, so reject outright.
DEGENERATE_REL = 1e-8


@dataclass(frozen=True)
class CompactOuterBasis:
    """Decay rates of the constant-coefficient tails at both ends."""

    k: float
    lam: float
    nu_minus: float
    nu_plus: float
    tau_minus: float
    tau_plus: float
    a: float

    def tau(self, side):
        return self.tau_plus if side == "right" else self.tau_minus


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Coefficients of n11*phi + n12*phi' + phi'' = 0, n21*phi + n22*phi' + phi''' = 0."""

    end: str  # "left" | "right"
    x: float
    n11: float
    n12: float
    n21: float
    n22: float

    def as_tuple(self):
        return (self.n11, self.n12, self.n21, self.n22)


def compact_outer_basis(profile, params, lam):
    """Decay rates tau_pm = sqrt(k^2 + lam*rho_pm/mu) for a compact-gradient profile."""
    if lam <= 0:
        raise SolverError("outer basis needs lambda > 0")
    if profile.kind != COMPACT:
        raise SolverError("compact outer basis needs a compact-gradient profile")
    k = params.k
    nu_m = profile.rho_minus / params.mu
    nu_p = profile.rho_plus / params.mu
    return CompactOuterBasis(
        k=k, lam=lam, nu_minus=nu_m, nu_plus=nu_p,
        tau_minus=math.sqrt(k * k + lam * nu_m),
        tau_plus=math.sqrt(k * k + lam * nu_p),
        a=float(profile.a))


def exponential_closure(end, x, k, tau):
    """Relations annihilating the tail span {e^{-k|x|}, e^{-tau|x|}} at one end."""
    s = 1.0 if end == "right" else -1.0
    return BoundaryCoeffs(end, x, n11=k * tau, n12=s * (k + tau),
                          n21=-s * k * tau * (k + tau),
                          n22=-(k * k + k * tau + tau * tau))


def compact_bc_coeffs(basis):
    """Endpoint relations annihilating the decaying spans at -a and +a."""
    return (exponential_closure("left", -basis.a, basis.k, basis.tau_minus),
            exponential_closure("right", basis.a, basis.k, basis.tau_plus))


def extension_coeffs(phi_end, dphi_end, basis, side):
    """Tail amplitudes (A1, A2) matching (phi, phi') at the endpoint.

    Right tail: phi = A1 e^{-k(x-a)} + A2 e^{-tau(x-a)}, so phi'(a) carries
    -k and -tau; left tail: phi = A1 e^{k(x+a)} + A2 e^{tau(x+a)}.
    """
    k = basis.k
    tau = basis.tau(side)
    if tau - k < DEGENERATE_REL * k:
        raise DegenerateBasisError(
            f"tau - k = {tau - k:.3e} at lambda = {basis.lam:.6e}: "
            "outer exponentials numerically collinear")
    if side == "right":
        a1 = (tau * phi_end + dphi_end) / (tau - k)
        a2 = -(k * phi_end + dphi_end) / (tau - k)
    else:
        a1 = (tau * phi_end - dphi_end) / (tau - k)
        a2 = (dphi_end - k * phi_end) / (tau - k)
    return a1, a2


def eval_outer(a1, a2, basis, side, x):
    """(phi, phi', phi'', phi''') of the tail at x (right: x >= a, left: x <= -a)."""
    x = np.asarray(x, dtype=float)
    k = basis.k
    tau = basis.tau(side)
    if side == "right":
        if np.any(x < basis.a * (1 - 1e-12) - 1e-300):
            raise SolverError("right tail evaluated inside (-a, a)")
        s = x - basis.a
        rk, rt = -k, -tau
    else:
        if np.any(x > -basis.a * (1 - 1e-12) + 1e-300):
            raise SolverError("left tail evaluated inside (-a, a)")
        s = x + basis.a
        rk, rt = k, tau
    ek = np.exp(rk * s)
    et = np.exp(rt * s)
    out = tuple(a1 * rk**j * ek + a2 * rt**j * et for j in range(4))
    return out


def outer_fourth_derivative(a1, a2, basis, side, x):
    """Analytic phi'''' of the tail (exact; used by residual diagnostics)."""
    x = np.asarray(x, dtype=float)
    k = basis.k
    tau = basis.tau(side)
    s = x - basis.a if side == "right" else x + basis.a
    rk, rt = (-k, -tau) if side == "right" else (k, tau)
    return a1 * rk**4 * np.exp(rk * s) + a2 * rt**4 * np.exp(rt * s)
