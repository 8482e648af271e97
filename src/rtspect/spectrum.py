"""Eigenvalue curves gamma_n(lambda) and the dispersion roots gamma_n = lambda/(g k^2).

The reduced problem at fixed lambda is the symmetric-definite pencil
M_rho c = gamma K c, with K and M_rho banded; its positive eigenvalues
gamma_1 >= gamma_2 >= ... play the role of the compact-operator spectrum,
and a growth rate is any lambda with gamma_n(lambda) = lambda / (g k^2).
A `SliceBuilder` closes the window with the n_ij of one tail source:
`CompactTails`, the closed-form exponential tails of compact-gradient
profiles, defined here, or `outer_general.BoundaryFit` for strictly
increasing ones.  The same source hands out the decaying pairs
that glue a mode and the slopes dn_ij/dlambda, whose endpoint-form
derivative E' (`endpoint_derivative`) feeds `monotone_margin` and the
derivative check.  One root search serves every profile
(`solve_dispersion`): f_n = g k^2 gamma_n - lambda is scanned on a grid over
the bracket, Brent's method refines every sign change, and the tail source
checks every root; a check that refines the fit starts the search again.
Where each curve decreases, f_n has at most one root and a two-point scan
(the bracket ends) suffices.  The paper proves that for compact-gradient
profiles; for strictly increasing ones `monotone_margin` certifies it on
sampled lambdas, and an uncertified profile keeps the finer scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.blas import dsbmv, dtbsv
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .assembly import (BANDWIDTH, assemble_forms, assemble_volume,
                       coercivity_check, endpoint_derivative)
from .brent import brentq
from .errors import (BracketError, DegenerateBasisError, RankError,
                     SolverError, StepSizeError)
from .outer_general import _sigma0
from .profiles import COMPACT

DEFAULT_TOL = 1e-8
SCAN_POINTS = 64


@dataclass
class SpectrumSlice:
    """Largest pencil eigenvalues at one lambda, vectors M_rho-orthonormal."""

    lam: float
    gammas: np.ndarray            # descending, length n_max
    vectors: np.ndarray           # (n_dofs, n_max)
    margin: float = math.nan      # coercivity margin, set by SliceBuilder
    forms: object = field(default=None, repr=False)


@dataclass
class DispersionPoint:
    n: int
    lam: float
    residual: float
    dofs: np.ndarray
    gamma: float
    margin: float = math.nan


@dataclass
class ModeCount:
    eps_star: float
    b: np.ndarray      # b_n = grid-infimum of gamma_n
    N: int


def gamma_spectrum(forms, n_max):
    """n_max largest eigenpairs of M_rho c = gamma K c.

    With K = L L^T from the banded Cholesky factorization, the pencil is the
    standard symmetric problem A y = gamma y, A = L^-1 M_rho L^-T, c = L^-T y.
    Lanczos (ARPACK `eigsh`, started from a fixed vector so that every run
    takes the same steps) finds the top n_max pairs, applying A by two
    banded triangular solves (BLAS dtbsv) and one banded product (dsbmv).
    Returned vectors are renormalized to c^T M_rho c = 1, the natural
    scaling for the compact-operator eigenfunctions.  RankError when n_max
    exceeds the rank of M_rho, which the builder's volume forms hold.
    """
    if n_max > forms.volume.rank:
        raise RankError(f"requested {n_max} eigenpairs but the weighted mass "
                        f"matrix has numerical rank {forms.volume.rank}")
    L, info = dpbtrf(forms.K_band, lower=1)
    if info != 0:
        raise SolverError(f"K is not positive definite at lambda={forms.lam:.6g}")
    M = forms.M_band
    n = L.shape[1]

    def apply(y):
        z = dtbsv(BANDWIDTH, L, y.ravel(), lower=1, trans=1)
        return dtbsv(BANDWIDTH, L, dsbmv(BANDWIDTH, 1.0, M, z, lower=1), lower=1)

    op = LinearOperator((n, n), matvec=apply, dtype=float)
    try:
        w, y = eigsh(op, k=n_max, which="LA", v0=np.ones(n), tol=0)
    except ArpackNoConvergence as exc:
        raise SolverError(f"Lanczos found {len(exc.eigenvalues)} of {n_max} "
                          f"pencil eigenpairs at lambda={forms.lam:.6g}") from exc
    order = np.argsort(w)[::-1]
    gam = w[order]
    # c = L^-T y is K-orthonormal; c^T M_rho c = gamma then
    vec = dtbtrs(L, y[:, order], uplo="L", trans="T")[0] / np.sqrt(gam)
    return SpectrumSlice(lam=forms.lam, gammas=gam, vectors=vec, forms=forms)


# tau - k below this multiple of k makes {e^{-kx}, e^{-tau x}} numerically
# collinear; root brackets never reach this region, so reject outright.
DEGENERATE_REL = 1e-8


@dataclass(frozen=True)
class ExponentialPair:
    """e^{-k |x - x_end|} and e^{-tau |x - x_end|} past one end of the
    support of rho0', slow first: rates = (k, tau).

    samples_at(x, nu) is the nu-th x-derivative of each solution's
    phase-normalized vector, the constant (1, -+rate, rate^2, -+rate^3)
    (upper signs on the right), and its phase rate |x - x_end|: shape
    (..., 2, 5), like `outer_general.DecayingPair`, so that modes glue and
    evaluate both profile kinds through one interface.  The solutions are
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


def exponential_closure(end, k, tau):
    """(n11, n12, n21, n22), shape (4,), of the relations
    n11*phi + n12*phi' + phi'' = 0, n21*phi + n22*phi' + phi''' = 0 that
    annihilate the tail span {e^{-k|x|}, e^{-tau|x|}} at one end."""
    s = 1.0 if end == "right" else -1.0
    return np.array([k * tau, s * (k + tau), -s * k * tau * (k + tau),
                     -(k * k + k * tau + tau * tau)])


def compact_outer_basis(profile, params, lam):
    """(tau_minus, tau_plus), `_sigma0` at rho_minus and rho_plus: the fast
    decay rates past -a and a, at one lambda > 0 or an array of them."""
    if np.count_nonzero(lam <= 0):
        raise SolverError("outer basis needs lambda > 0")
    return tuple(_sigma0(rho, params, lam)
                 for rho in (profile.rho_minus, profile.rho_plus))


class CompactTails:
    """Tail source of a compact-gradient profile, the exact exponentials
    past the ends of `window` = (lo, hi), the support of rho0'.  Outside it
    the mode equation has constant coefficients, and the solutions decaying
    past hi are spanned by e^{-k(x-hi)} and e^{-tau_plus(x-hi)}, mirrored
    past lo.  Called at lambda it gives the n_ij that close the problem on
    the window as one (8,) row, (n11, n12, n21, n22) at lo and then at hi
    (`exponential_closure`), `pairs(lam)` the `ExponentialPair` of each
    side and `slopes(lams)` the closed-form dn_ij/dlambda."""

    def __init__(self, profile, params):
        if profile.kind != COMPACT:
            raise SolverError("compact tails need a compact-gradient profile")
        self.profile = profile
        self.params = params
        self.window = profile.support

    def __call__(self, lam):
        k = self.params.k
        tau_m, tau_p = compact_outer_basis(self.profile, self.params, lam)
        return np.concatenate([exponential_closure("left", k, tau_m),
                               exponential_closure("right", k, tau_p)])

    def pairs(self, lam):
        """{"right": ExponentialPair, "left": ExponentialPair}, shaped like
        `OuterSolutions.solve`."""
        k, (lo, hi) = self.params.k, self.window
        tau_m, tau_p = compact_outer_basis(self.profile, self.params, lam)
        out = {}
        for side, tau, s, end in (("right", tau_p, 1.0, hi),
                                  ("left", tau_m, -1.0, lo)):
            if tau - k < DEGENERATE_REL * k:
                raise DegenerateBasisError(
                    f"tau - k = {tau - k:.3e} at lambda = {lam:.6e}: "
                    "outer exponentials numerically collinear")
            reach = end + s * 12.0 / k    # sup |phi| scan: 12 slow lengths
            out[side] = ExponentialPair(side, (k, tau), end, reach,
                                        s * math.inf)
        return out

    n_nodes = 0     # nothing is fitted, so nothing is ever refined

    def check(self, _lam):
        """Nothing to check or refine: the closures are exact."""

    def slopes(self, lams):
        """dn_ij/dlambda (m, 8) at the lambdas (m,), left then right like
        `BoundaryFit.slopes`: the n_ij of `exponential_closure` are
        polynomials in tau, and dtau/dlambda = rho/(2 mu tau)."""
        k, mu, out = self.params.k, self.params.mu, []
        for s, rho, tau in zip(
                (-1.0, 1.0), (self.profile.rho_minus, self.profile.rho_plus),
                compact_outer_basis(self.profile, self.params, lams)):
            d = rho / (2.0 * mu * tau)
            out += [k * d, s * d, -s * k * (k + 2.0 * tau) * d,
                    -(k + 2.0 * tau) * d]
        return np.stack(out, axis=-1)


class SliceBuilder:
    """Callable lambda -> SpectrumSlice with caching; owns the tail source.

    `tails` (`CompactTails`, or `outer_general.BoundaryFit` for increasing
    profiles) gives the n_ij at lambda when called, one (8,) row, left end
    then right; the pairs that glue a mode (`tails.pairs(lam)`), a
    `check(lam)` that `solve_dispersion` runs at every root and the slopes
    dn_ij/dlambda (`tails.slopes(lams)`, (m, 8), the same layout).  The
    n_ij hold at the ends of `tails.window` alone, so the mesh of `space`
    must end exactly there (SolverError otherwise); they do not depend on
    the mesh, so builders on other meshes of one window may share them,
    and each drops its slices when `tails.n_nodes` changes (a refined fit).
    The lambda-independent forms are assembled once, into `volume`; each
    new slice adds lambda K_rho and the endpoint blocks of its n_ij.
    Every new slice also gets its coercivity margin (`coercivity_check`),
    which raises CoercivityError when the closed form is not coercive.
    """

    def __init__(self, profile, params, space, n_max, tails):
        mesh, (w0, w1) = space.mesh, tails.window
        if (mesh.x_minus, mesh.x_plus) != (w0, w1):
            raise SolverError(
                f"the mesh spans [{mesh.x_minus:.17g}, {mesh.x_plus:.17g}], "
                f"not the tail source's window [{w0:.17g}, {w1:.17g}]")
        self.profile = profile
        self.params = params
        self.volume = assemble_volume(profile, params, space)
        self.n_max = n_max
        self.tails = tails
        self._cache, self._nodes = {}, tails.n_nodes

    def __call__(self, lam):
        key = float(lam)
        if self._nodes != self.tails.n_nodes:
            self._cache, self._nodes = {}, self.tails.n_nodes
        if key not in self._cache:
            if len(self._cache) > 512:
                self._cache.clear()
            forms = assemble_forms(self.volume, key, self.tails(key))
            sl = gamma_spectrum(forms, self.n_max)
            sl.margin = coercivity_check(forms)
            self._cache[key] = sl
        return self._cache[key]

    def gamma(self, lam, n):
        return float(self(lam).gammas[n - 1])


def monotone_margin(volume, slopes):
    """min of lambda_min(S + E') / ||S||_2 over slopes (m, 8) of the n_ij.

    E' (`endpoint_derivative`) lives on the DOFs e = (0, 1, n-2, n-1):
    K' = K_rho + E' is positive definite iff S + E' is, with
    S = inv((K_rho^-1)[e, e]) the Schur complement of K_rho there.  Then
    every positive gamma_n decreases (Courant-Fischer)."""
    e = [0, 1, -2, -1]
    unit = np.zeros((volume.K_rho.shape[1], 4))
    unit[e, range(4)] = 1.0
    S = np.linalg.inv(solveh_banded(volume.K_rho, unit, lower=True)[e])
    return float(np.linalg.eigvalsh(S + endpoint_derivative(volume, slopes))
                 [:, 0].min() / np.linalg.norm(S, 2))


def solve_dispersion(builder, n, bracket, tol=DEFAULT_TOL, n_scan=SCAN_POINTS):
    """Roots of f_n(lambda) = g k^2 gamma_n(lambda) - lambda inside `bracket`.

    Evaluates f_n at n_scan evenly spaced points from lambda_lo to
    lambda_hi (n_scan = 2 scans the bracket ends alone), refines every sign
    change by Brent's method and returns the list of DispersionPoint
    (>= 1 expected for n <= N(eps_star)); `builder.tails.check` runs at
    every root and, if it refines the fit, the search starts again.  No
    sign change raises a BracketError that names the end to move: the
    floor when f_n < 0 throughout (for a strictly increasing profile that
    floor is eps_star), the top otherwise.
    """
    params = builder.params
    gk2 = params.g * params.k**2
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise BracketError("bracket must satisfy 0 < lambda_lo < lambda_hi")

    def f(lam):
        return gk2 * builder.gamma(lam, n) - lam

    grid = np.linspace(lo, hi, n_scan)
    vals = np.array([f(x) for x in grid])
    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            lam = brentq(f, grid[i], grid[i + 1], xtol=tol * hi)
            if builder.tails.check(lam):
                return solve_dispersion(builder, n, bracket, tol, n_scan)
            # brentq ends on a point it evaluated, so f(lam) is a cache hit
            sl = builder(lam)
            roots.append(DispersionPoint(
                n=n, lam=float(lam), residual=abs(f(lam)),
                dofs=sl.vectors[:, n - 1].copy(),
                gamma=float(sl.gammas[n - 1]), margin=sl.margin))
    if roots:
        return roots
    if vals[0] < 0:
        move = ("lower the bracket floor" if builder.profile.kind == COMPACT
                else "the floor of a strictly increasing profile is eps_star; "
                "lower [numerical] eps_star")
        raise BracketError(
            f"f_{n}(lambda_lo={lo:.3e}) = {vals[0]:.3e} < 0 and no sign change "
            f"in {n_scan} scan points; {move}")
    raise BracketError(
        f"f_{n}(lambda_hi={hi:.3e}) = {vals[-1]:.3e} >= 0 and no sign change "
        f"in {n_scan} scan points; widen toward sqrt(g/L0) or refine the scan")


def mode_count(builder, eps_star, lambda_grid):
    """N(eps_star) = largest n whose curve infimum stays above eps_star/(g k^2).

    The infimum b_n is a grid infimum, the minimum over `lambda_grid` only.
    """
    gk2 = builder.params.g * builder.params.k**2
    gam = np.stack([builder(lam).gammas for lam in lambda_grid])
    b = gam.min(axis=0)
    above = b > eps_star / gk2
    N = int(np.max(np.nonzero(above)[0]) + 1) if above.any() else 0
    return ModeCount(eps_star=float(eps_star), b=b, N=N)


def gamma_derivative_check(builder, n, lam, h):
    """Compare d(1/gamma_n)/dlambda against its Hellmann-Feynman form
    c^T (K_rho + E') c / c^T M_rho c, with c the eigenvector of gamma_n and
    E' (`endpoint_derivative`) from the tail source's slopes at lam; for
    compact-gradient profiles it is the boundary-energy identity.  Returns
    the relative error of the centered difference at step h.
    """
    inv_p = 1.0 / builder.gamma(lam + h, n)
    inv_m = 1.0 / builder.gamma(lam - h, n)
    fd = (inv_p - inv_m) / (2.0 * h)
    if abs(inv_p - inv_m) < 1e-9 * abs(inv_p):
        raise StepSizeError("step too small: difference below eigensolve noise")
    c = builder(lam).vectors[:, n - 1]
    vol, mass = (float(c @ dsbmv(BANDWIDTH, 1.0, ab, c, lower=1))
                 for ab in (builder.volume.K_rho, builder.volume.M_band))
    ce = c[[0, 1, -2, -1]]
    dE = endpoint_derivative(builder.volume,
                             builder.tails.slopes(np.array([lam])))[0]
    analytic = (vol + ce @ dE @ ce) / mass
    return abs(fd - analytic) / abs(analytic)
