"""Closed-form decaying tails and boundary closures for compact-gradient profiles.

Outside the support of rho0' the mode equation has constant coefficients and
the solutions decaying at +inf are spanned by exp(-k(x-a)) and
exp(-tau_plus(x-a)) with tau = sqrt(k^2 + lambda*rho/mu); mirrored at -inf.
Membership in that span is encoded as two linear relations on
(phi, phi', phi'', phi''') at each endpoint, which close the problem on
[-a, a]: `exponential_closure` gives one end's four n_ij, and
`spectrum.CompactTails` joins both ends into the (8,) row of a tail source.
The spanning exponentials on each side are also offered as one
`ExponentialPair`, read exactly like the sampled `DecayingPair` of
`outer_general` (per solution a constant phase-normalized vector and a
linear phase), so that modes glue and evaluate both profile kinds through
one interface.
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
    tau_minus: float
    tau_plus: float
    a: float


@dataclass(frozen=True)
class ExponentialPair:
    """e^{-k |x - x_end|} and e^{-tau |x - x_end|} past one end of the
    support of rho0', slow first: rates = (k, tau).

    samples_at(x, nu) is the nu-th x-derivative of each solution's
    phase-normalized vector, the constant (1, -+rate, rate^2, -+rate^3)
    (upper signs on the right), and its phase rate |x - x_end|: shape
    (..., 2, 5), like `outer_general.DecayingPair`.  The solutions are
    exact arbitrarily far out; `reach` is how far out a mode scans them.
    """

    side: str
    rates: tuple
    x_end: float
    reach: float
    eval_limit: float

    def samples_at(self, x, nu=0):
        x = np.asarray(x, dtype=float)
        s = 1.0 if self.side == "right" else -1.0
        out = np.zeros(x.shape + (2, 5))
        for i, r in enumerate(self.rates):
            if nu == 0:
                out[..., i, :4] = (1.0, -s * r, r * r, -s * r**3)
                out[..., i, 4] = s * r * (x - self.x_end)
            elif nu == 1:
                out[..., i, 4] = s * r
        return out


def compact_outer_basis(profile, params, lam):
    """Decay rates tau_pm = sqrt(k^2 + lam*rho_pm/mu) for a compact-gradient profile."""
    if lam <= 0:
        raise SolverError("outer basis needs lambda > 0")
    if profile.kind != COMPACT:
        raise SolverError("compact outer basis needs a compact-gradient profile")
    k = params.k
    return CompactOuterBasis(
        k=k, lam=lam,
        tau_minus=math.sqrt(k * k + lam * (profile.rho_minus / params.mu)),
        tau_plus=math.sqrt(k * k + lam * (profile.rho_plus / params.mu)),
        a=float(profile.a))


def compact_decaying_solutions(basis):
    """The decaying pairs {e^{-k|x-+a|}, e^{-tau|x-+a|}} on both sides.

    Shaped like `OuterSolutions.solve`: {"right": ExponentialPair,
    "left": ExponentialPair}, slow rate k first.
    """
    k = basis.k
    out = {}
    for side, tau, x_end, s in (("right", basis.tau_plus, basis.a, 1.0),
                                ("left", basis.tau_minus, -basis.a, -1.0)):
        if tau - k < DEGENERATE_REL * k:
            raise DegenerateBasisError(
                f"tau - k = {tau - k:.3e} at lambda = {basis.lam:.6e}: "
                "outer exponentials numerically collinear")
        reach = x_end + s * 12.0 / k      # sup |phi| scan: 12 slow lengths
        out[side] = ExponentialPair(side, (k, tau), x_end, reach, s * math.inf)
    return out


def exponential_closure(end, k, tau):
    """(n11, n12, n21, n22), shape (4,), of the relations
    n11*phi + n12*phi' + phi'' = 0, n21*phi + n22*phi' + phi''' = 0 that
    annihilate the tail span {e^{-k|x|}, e^{-tau|x|}} at one end."""
    s = 1.0 if end == "right" else -1.0
    return np.array([k * tau, s * (k + tau), -s * k * tau * (k + tau),
                     -(k * k + k * tau + tau * tau)])
