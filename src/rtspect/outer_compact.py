"""Closed-form decaying tails and boundary closures for compact-gradient profiles.

Outside the support of rho0' the mode equation has constant coefficients and
the solutions decaying at +inf are spanned by exp(-k(x-a)) and
exp(-tau_plus(x-a)) with tau = sqrt(k^2 + lambda*rho/mu); mirrored at -inf.
Membership in that span is encoded as two linear relations on
(phi, phi', phi'', phi''') at each endpoint, which close the problem on
[-a, a].  The spanning exponentials are also offered as decaying solutions
read exactly like the sampled ones of `outer_general` (a constant
phase-normalized vector and a linear phase), so that modes glue and
evaluate both profile kinds through one interface.
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


class PhaseNormalized:
    """Reading of a decaying solution U(x) = e^{-phase(x)} normalized(x).

    Subclasses supply samples_at(x, nu): the nu-th x-derivative of
    (normalized, phase), shape (..., 5); `reach` (how far out the tail is
    scanned) and `eval_limit` (the last x at which it may be evaluated).
    """

    def normalized_at(self, x):
        return self.samples_at(x)[..., :4]

    def phase_at(self, x):
        return self.samples_at(x)[..., 4]

    def raw_at(self, x):
        return np.exp(-self.phase_at(x))[..., None] * self.normalized_at(x)


@dataclass(frozen=True)
class ExponentialSolution(PhaseNormalized):
    """e^{-rate |x - x_end|} past one end of the support of rho0'.

    The normalized vector is the constant (1, -+rate, rate^2, -+rate^3)
    (upper signs on the right) and the phase is rate*|x - x_end|; the
    solution is exact arbitrarily far out.
    """

    side: str
    rate: float
    x_end: float
    reach: float
    eval_limit: float

    def samples_at(self, x, nu=0):
        x = np.asarray(x, dtype=float)
        s = 1.0 if self.side == "right" else -1.0
        r = self.rate
        out = np.zeros(x.shape + (5,))
        if nu == 0:
            out[..., :4] = (1.0, -s * r, r * r, -s * r**3)
            out[..., 4] = s * r * (x - self.x_end)
        elif nu == 1:
            out[..., 4] = s * r
        return out


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


def compact_decaying_solutions(basis):
    """The decaying pairs {e^{-k|x-+a|}, e^{-tau|x-+a|}} on both sides.

    Keyed like `OuterSolutions.solve`: {"right": {"U1+", "U2+"},
    "left": {"U3-", "U4-"}}, slow rate k first.
    """
    k = basis.k
    out = {}
    for side, names, tau, x_end, s in (
            ("right", ("U1+", "U2+"), basis.tau_plus, basis.a, 1.0),
            ("left", ("U3-", "U4-"), basis.tau_minus, -basis.a, -1.0)):
        if tau - k < DEGENERATE_REL * k:
            raise DegenerateBasisError(
                f"tau - k = {tau - k:.3e} at lambda = {basis.lam:.6e}: "
                "outer exponentials numerically collinear")
        reach = x_end + s * 12.0 / k      # sup |phi| scan: 12 slow lengths
        out[side] = {name: ExponentialSolution(side, rate, x_end, reach,
                                               s * math.inf)
                     for name, rate in zip(names, (k, tau))}
    return out


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
