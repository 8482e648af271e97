"""Decaying solutions at infinity for strictly increasing density profiles.

The fourth-order mode equation is rewritten as U' = (L(x) + rho0'(x) R) U on
U = (phi, phi', phi'', phi''').  L has simple eigenvalues (-k, -s, k, s) with
s = sigma0(x, lam) = sqrt(k^2 + lam*rho0(x)/mu); diagonalizing U = P V turns
the system into V' = (D + rho0' M) V with a coupling M that is integrable at
both infinities.  The two solutions decaying at +inf are built by a
contractive fixed-point iteration on a truncated half line, with every
kernel expressed in phase-difference form so nothing overflows.  The pair
decaying at -inf is the same construction for the mirrored problem: in
t = -x the equation keeps its form with rho0(-t) and g replaced by -g
(U(x) = S U~(-x), S = diag(1, -1, 1, -1)), so each half line is solved in
its outward coordinate t = sign*x by one code path and read back in x.
The decaying pairs yield the boundary coefficients n_ij closing the problem
on a finite window, and the window itself is found by marching outward until
both endpoint quadratic forms are positive semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (CoercivitySearchError, SolverError, TruncationError)
from .outer_compact import BoundaryCoeffs, PhaseNormalized
from .profiles import GL5_NODES, GL5_WEIGHTS, profile_bounds

MAX_PICARD_ITER = 64
PICARD_TOL = 1e-12
CONTRACTION_SLACK = 1e-6
TAIL_DROP = 1e-10  # Gamma_m * (rho_limit_gap) at the numerical infinity cutoff
# Picard updates at or below this are round-off: their ratios say nothing
# about contraction
UPDATE_FLOOR = 1e-10


def _partial_integration_matrix():
    # S[q, i] = integral over [0, t_q] of the i-th Lagrange basis on the
    # 5 Gauss nodes; exact for the degree-4 interpolant of panel samples.
    t = GL5_NODES
    S = np.zeros((5, 5))
    for i in range(5):
        roots = np.delete(t, i)
        coeffs = np.poly(roots) / np.prod(t[i] - roots)
        anti = np.polyint(coeffs)
        S[:, i] = np.polyval(anti, t) - np.polyval(anti, 0.0)
    return S


_S_PARTIAL = _partial_integration_matrix()


# ---------------------------------------------------------------------------
# pointwise system matrices

def _sigma0(rho, params, lam):
    return np.sqrt(params.k**2 + lam * np.asarray(rho, dtype=float) / params.mu)


def _matrix_L(rho, params, lam):
    rho = np.asarray(rho, dtype=float)
    k, mu = params.k, params.mu
    L = np.zeros(rho.shape + (4, 4))
    L[..., 0, 1] = 1.0
    L[..., 1, 2] = 1.0
    L[..., 2, 3] = 1.0
    L[..., 3, 0] = -lam * k**2 * rho / mu - k**4
    L[..., 3, 2] = lam * rho / mu + 2.0 * k**2
    return L

def _matrix_R(params, lam, sign):
    # in t = sign*x the reflection flips only the gravity entry
    k, mu, g = params.k, params.mu, params.g
    R = np.zeros((4, 4))
    R[3, 0] = sign * g * k**2 / (lam * mu)
    R[3, 1] = lam / mu
    return R


def _matrix_P(sig, params):
    sig = np.asarray(sig, dtype=float)
    k = params.k
    P = np.empty(sig.shape + (4, 4))
    kcol = np.array([-k**-3, k**-2, -k**-1, 1.0])
    P[..., :, 0] = kcol
    P[..., :, 2] = np.array([k**-3, k**-2, k**-1, 1.0])
    P[..., 0, 1] = -sig**-3
    P[..., 1, 1] = sig**-2
    P[..., 2, 1] = -sig**-1
    P[..., 3, 1] = 1.0
    P[..., 0, 3] = sig**-3
    P[..., 1, 3] = sig**-2
    P[..., 2, 3] = sig**-1
    P[..., 3, 3] = 1.0
    return P


def _matrix_Pinv(sig, rho, params, lam):
    sig = np.asarray(sig, dtype=float)
    rho = np.asarray(rho, dtype=float)
    k, mu = params.k, params.mu
    pref = mu / (2.0 * lam * rho)
    Q = np.empty(sig.shape + (4, 4))
    Q[..., 0, 0] = -k**3 * sig**2
    Q[..., 0, 1] = k**2 * sig**2
    Q[..., 0, 2] = k**3
    Q[..., 0, 3] = -k**2
    Q[..., 1, 0] = k**2 * sig**3
    Q[..., 1, 1] = -k**2 * sig**2
    Q[..., 1, 2] = -sig**3
    Q[..., 1, 3] = sig**2
    Q[..., 2, 0] = k**3 * sig**2
    Q[..., 2, 1] = k**2 * sig**2
    Q[..., 2, 2] = -k**3
    Q[..., 2, 3] = -k**2
    Q[..., 3, 0] = -k**2 * sig**3
    Q[..., 3, 1] = -k**2 * sig**2
    Q[..., 3, 2] = sig**3
    Q[..., 3, 3] = sig**2
    return pref[..., None, None] * Q


def _matrix_dPdsig(sig):
    sig = np.asarray(sig, dtype=float)
    dP = np.zeros(sig.shape + (4, 4))
    dP[..., 0, 1] = 3.0 * sig**-4
    dP[..., 1, 1] = -2.0 * sig**-3
    dP[..., 2, 1] = sig**-2
    dP[..., 0, 3] = -3.0 * sig**-4
    dP[..., 1, 3] = -2.0 * sig**-3
    dP[..., 2, 3] = -sig**-2
    return dP


def _matrix_M(rho, params, lam, sign):
    """Coupling of V' = (D + rho0' M) V in the coordinate t = sign*x.

    Derived by differentiating U = P V: M = P^-1 R P - (lam / (2 mu sigma0))
    P^-1 dP/dsigma0, the second factor being dsigma0/drho0 by the chain rule
    on sigma0^2 = k^2 + lam rho0 / mu.
    """
    sig = _sigma0(rho, params, lam)
    P = _matrix_P(sig, params)
    Pinv = _matrix_Pinv(sig, rho, params, lam)
    R = _matrix_R(params, lam, sign)
    core = Pinv @ R @ P
    corr = (lam / (2.0 * params.mu * sig))[..., None, None] * (Pinv @ _matrix_dPdsig(sig))
    return core - corr


@dataclass(frozen=True)
class SystemMatrices:
    x: float
    lam: float
    sigma0: float
    L: np.ndarray
    R: np.ndarray
    D: np.ndarray
    P: np.ndarray
    Pinv: np.ndarray
    M: np.ndarray


def system_matrices(profile, params, x, lam):
    """All first-order-system matrices at one point (x, lam)."""
    if lam <= 0:
        raise SolverError("system matrices need lambda > 0 (distinct eigenvalues)")
    rho = float(profile.rho(x))
    sig = float(_sigma0(rho, params, lam))
    k = params.k
    return SystemMatrices(
        x=float(x), lam=float(lam), sigma0=sig,
        L=_matrix_L(rho, params, lam),
        R=_matrix_R(params, lam, 1.0),
        D=np.diag([-k, -sig, k, sig]),
        P=_matrix_P(sig, params),
        Pinv=_matrix_Pinv(np.asarray(sig), np.asarray(rho), params, lam),
        M=_matrix_M(np.asarray(rho), params, lam, 1.0))


# ---------------------------------------------------------------------------
# uniform bounds and truncation

@dataclass(frozen=True)
class GammaBounds:
    eps_star: float
    delta_eps: float
    delta_s: float
    Gamma_p: float
    Gamma_m: float
    lambda_max: float


def gamma_bounds(profile, params, eps_star, pbounds=None):
    """Uniform-in-lambda bounds on ||P|| and ||M|| over [eps_star, sqrt(g/L0)]."""
    if pbounds is None:
        pbounds = profile_bounds(profile, params)
    lmax = pbounds.lambda_max
    if not 0.0 < eps_star < lmax:
        raise SolverError(f"eps_star must lie in (0, {lmax:.6g})")
    k, mu, g = params.k, params.mu, params.g
    L0 = pbounds.L0
    delta = math.sqrt(k * k + eps_star * profile.rho_minus / mu)
    delta_s = math.sqrt(k * k + lmax * profile.rho_plus / mu)
    gamma_p = max(1.0, 1.0 / k, 1.0 / k**2, 1.0 / k**3)
    gamma_m = (1.0 / (profile.rho_minus * eps_star**2)
               * max(g * (k + 1.0 / L0), g * (k**2 / delta + 1.0 / L0))
               + lmax / (4.0 * delta)
               * max(2.0 * k**2 / delta**2 * (k + delta_s),
                     5.0 * k**2 / delta + delta_s,
                     k**2 / delta + delta_s))
    return GammaBounds(eps_star=float(eps_star), delta_eps=delta, delta_s=delta_s,
                       Gamma_p=gamma_p, Gamma_m=gamma_m, lambda_max=lmax)


def _rho_limit(profile, sign):
    return profile.rho_plus if sign > 0 else profile.rho_minus


def _solve_monotone_level(f, start, scale):
    # smallest t >= start with f(t) <= 0, f monotone decreasing
    t = start
    step = scale
    while f(t) > 0:
        t += step
        step *= 2.0
        if abs(t) > 1e6 * scale:
            raise TruncationError(
                "profile approaches its limit too slowly to truncate; "
                "use a faster-decaying profile")
    lo = t - step / 2.0  # f(lo) > 0 unless the loop never ran
    if f(lo) <= 0:
        return lo
    xtol = 1e-12 * max(1.0, abs(t))
    root = brentq(f, lo, t, xtol=xtol)
    # the crossing lies less than 2*xtol from root, on either side; step
    # past it when needed, since the callers rely on f(t) <= 0
    return root if f(root) <= 0 else root + 2.0 * xtol


@dataclass(frozen=True)
class HalfLine:
    """One truncated half line in its outward coordinate t = sign*x.

    edges ascend in t from sign*x_tilde to sign*X, finest at the start;
    nodes are the 5 Gauss points of each panel.
    """

    sign: float
    edges: np.ndarray
    widths: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)

    @property
    def side(self):
        return "right" if self.sign > 0 else "left"


@dataclass
class PicardSetup:
    x_tilde_minus: float
    x_tilde_plus: float
    X_min: float
    X_max: float
    margin: float
    gbounds: GammaBounds
    right: HalfLine
    left: HalfLine


def _graded_edges(start, stop, n_panels, ratio, w_cap):
    span = stop - start
    P = n_panels
    while True:
        w = ratio ** np.arange(P)
        w *= span / w.sum()
        if w.max() <= w_cap or P > 4096:
            break
        P = int(P * 1.25) + 8
    edges = start + np.concatenate([[0.0], np.cumsum(w)])
    edges[-1] = stop
    return edges


def truncation_points(profile, params, gbounds, margin=0.3,
                      n_panels=160, ratio=1.03):
    """Pick the half-line truncations and build the quadrature grids.

    On each half line, in t = sign*x, x_tilde is the innermost point with
    Gamma_m*|rho_limit - rho0| <= margin (< 1/2 keeps the fixed-point map a
    contraction uniformly in lambda); X pushes the same product below 1e-10
    so the discarded tail is negligible.  Panels are geometrically graded,
    finest near x_tilde where rho0' is largest.  The default margin sits
    below the 1/2 ceiling because Gamma_m tracks the entry scale of the
    coupling rather than its full Frobenius norm; 0.3 keeps the observed
    contraction under 1/2 with room to spare.
    """
    if not 0.0 < margin < 0.5:
        raise SolverError("margin must lie in (0, 1/2)")
    gm = gbounds.Gamma_m
    w_cap = 1.5 / (params.k + gbounds.delta_s)
    lines = []
    for sign in (1.0, -1.0):
        rho_lim = _rho_limit(profile, sign)

        def scaled_gap(t, sign=sign, rho_lim=rho_lim):
            return gm * sign * (rho_lim - float(profile.rho(sign * t)))

        t_tilde = _solve_monotone_level(lambda t: scaled_gap(t) - margin,
                                        0.0, profile.scale)
        t_end = _solve_monotone_level(lambda t: scaled_gap(t) - TAIL_DROP,
                                      t_tilde, profile.scale)
        edges = _graded_edges(t_tilde, t_end, n_panels, ratio, w_cap)
        widths = np.diff(edges)
        nodes = edges[:-1, None] + widths[:, None] * GL5_NODES[None, :]
        lines.append(HalfLine(sign, edges, widths, nodes))
    right, left = lines
    return PicardSetup(
        x_tilde_minus=-left.edges[0], x_tilde_plus=right.edges[0],
        X_min=-left.edges[-1], X_max=right.edges[-1], margin=margin,
        gbounds=gbounds, right=right, left=left)


# ---------------------------------------------------------------------------
# phase-weighted panel scans

def _scan_prefix(psi_n, psi_e, f_n, widths):
    """J(x) = int_{bottom}^{x} exp(-(psi(x) - psi(tau))) f(tau) dtau.

    psi nondecreasing; f sampled on panel Gauss nodes.  Returns J at nodes
    (P,5,K) and edges (P+1,K).
    """
    P = f_n.shape[0]
    K = f_n.shape[-1]
    G = np.exp(-(psi_e[1:, None, :] - psi_n)) * f_n          # (P,5,K)
    full = widths[:, None] * np.einsum("q,pqk->pk", GL5_WEIGHTS, G)
    decay = np.exp(-(psi_e[1:] - psi_e[:-1]))                # (P,K)
    C = np.zeros((P + 1, K))
    for p in range(P):
        C[p + 1] = decay[p] * C[p] + full[p]
    partial = widths[:, None, None] * np.einsum("qi,pik->pqk", _S_PARTIAL, G)
    J_n = (np.exp(-(psi_n - psi_e[:-1, None, :])) * C[:-1, None, :]
           + np.exp(psi_e[1:, None, :] - psi_n) * partial)
    return J_n, C


def _scan_suffix(psi_n, psi_e, f_n, widths):
    """J(x) = int_x^{top} exp(-(psi(tau) - psi(x))) f(tau) dtau.

    The prefix scan of the reversed grid, where -psi is nondecreasing (the
    Gauss rule is symmetric, so reversed nodes are nodes).
    """
    J_n, J_e = _scan_prefix(-psi_n[::-1, ::-1], -psi_e[::-1],
                            f_n[::-1, ::-1], widths[::-1])
    return J_n[::-1, ::-1], J_e[::-1]


# kernel tables: (solution index, component, phase spec) per scan direction.
# phase spec: (coef_alpha, coef_beta) multiplying the increasing primitives
# alpha(t) = k*(t - bottom edge), beta(t) = int sigma0 from the bottom edge.
_PREFIX_KERNELS = [(0, 1, (-1.0, 1.0))]
_SUFFIX_KERNELS = [(0, 0, (0.0, 0.0)), (0, 2, (2.0, 0.0)), (0, 3, (1.0, 1.0)),
                   (1, 0, (-1.0, 1.0)), (1, 1, (0.0, 0.0)),
                   (1, 2, (1.0, 1.0)), (1, 3, (0.0, 2.0))]
_TARGETS = (0, 1)  # e1, e2 in V coordinates: decay like e^{-kt}, e^{-sigma t}
# a mirrored solution U~(t) read back in x: U(x) = -S U~(-x), S = diag(1, -1,
# 1, -1); the overall sign keeps the left limits as (k^-3, k^-2, k^-1, 1)
_FLIP = np.array([-1.0, 1.0, -1.0, 1.0])


@dataclass
class DecayingSolution(PhaseNormalized):
    """One solution of the first-order system pinned to a decaying direction.

    normalized holds e^{phase(x)} U(x) sampled on xs (so it tends to `limit`
    at the far end); the splined phase and its slope rebuild raw values and
    derivatives without overflow.  The spline is built on the first
    `samples_at` call, which only a glued tail makes; boundary closures
    read the samples directly.  The far end of xs is both the reach of
    the tail and its evaluation limit: nothing is known beyond it.
    """

    side: str
    lam: float
    xs: np.ndarray
    normalized: np.ndarray          # (N, 4)
    phase: np.ndarray               # (N,)
    limit: np.ndarray               # (4,)
    updates: tuple
    _spline: object = field(default=None, repr=False)

    def samples_at(self, x, nu=0):
        """nu-th x-derivative of (normalized, phase), shape (..., 5), splined."""
        if self._spline is None:
            self._spline = CubicSpline(
                self.xs, np.column_stack([self.normalized, self.phase]))
        return self._spline(np.asarray(x, dtype=float), nu)

    @property
    def reach(self):
        return self.xs[-1] if self.side == "right" else self.xs[0]

    eval_limit = reach

    @property
    def contraction_ratios(self):
        """Ratios of successive Picard updates, after updates above round-off."""
        u = self.updates
        return tuple(u[i + 1] / u[i] for i in range(len(u) - 1)
                     if u[i] > UPDATE_FLOOR)


class OuterSolutions:
    """Per-lambda factory and cache for the four decaying solutions.

    solve(lam) returns {"right": {"U1+", "U2+"}, "left": {"U3-", "U4-"}},
    slow solution first.  The left pair is the right-side construction on
    the mirrored half line, reflected back into x.
    """

    def __init__(self, profile, params, setup):
        self.profile = profile
        self.params = params
        self._cache = {}
        # rho0 and d/dt rho0(sign*t) at each half line's nodes
        self._lines = [(hl, np.asarray(profile.rho(hl.sign * hl.nodes)),
                        hl.sign * np.asarray(profile.drho(hl.sign * hl.nodes)))
                       for hl in (setup.right, setup.left)]

    def solve(self, lam):
        key = float(lam)
        if key not in self._cache:
            if len(self._cache) > 1024:
                self._cache.clear()
            self._cache[key] = {hl.side: self._solve_half_line(hl, rho_n,
                                                               drho_n, lam)
                                for hl, rho_n, drho_n in self._lines}
        return self._cache[key]

    def _solve_half_line(self, hl, rho_n, drho_n, lam):
        """The pair decaying as t = sign*x -> inf, sampled in ascending x."""
        params = self.params
        k, mu = params.k, params.mu
        nodes, edges, widths = hl.nodes, hl.edges, hl.widths
        P = nodes.shape[0]

        sig_n = _sigma0(rho_n, params, lam)
        alpha_n = k * (nodes - edges[0])
        alpha_e = k * (edges - edges[0])
        panel_beta = widths * np.einsum("q,pq->p", GL5_WEIGHTS, sig_n)
        beta_e = np.concatenate([[0.0], np.cumsum(panel_beta)])
        beta_n = beta_e[:-1, None] + widths[:, None] * np.einsum(
            "qi,pi->pq", _S_PARTIAL, sig_n)
        Mn = _matrix_M(rho_n, params, lam, hl.sign)

        def stack_phases(entries):
            psi_n = np.stack([ca * alpha_n + cb * beta_n
                              for _, _, (ca, cb) in entries], axis=-1)
            psi_e = np.stack([ca * alpha_e + cb * beta_e
                              for _, _, (ca, cb) in entries], axis=-1)
            return psi_n, psi_e

        # the prefix integrals add, the suffix ones subtract
        scans = ((_scan_prefix, _PREFIX_KERNELS, stack_phases(_PREFIX_KERNELS), 1.0),
                 (_scan_suffix, _SUFFIX_KERNELS, stack_phases(_SUFFIX_KERNELS), -1.0))

        nsol = 2
        base_n = np.zeros((P, 5, 4, nsol))
        base_e = np.zeros((P + 1, 4, nsol))
        for s, comp in enumerate(_TARGETS):
            base_n[:, :, comp, s] = 1.0
            base_e[:, comp, s] = 1.0

        W_n = np.zeros_like(base_n)
        W_e = np.zeros_like(base_e)
        updates = [[], []]
        sup_w = 1.0
        for it in range(MAX_PICARD_ITER + 1):
            F_n = drho_n[..., None, None] * np.einsum("pqij,pqjs->pqis", Mn, W_n)
            new_n = base_n.copy()
            new_e = base_e.copy()
            for scan, entries, (psi_n, psi_e), sgn in scans:
                f = np.stack([F_n[:, :, comp, s] for s, comp, _ in entries],
                             axis=-1)
                J_n, J_e = scan(psi_n, psi_e, f, widths)
                for idx, (s, comp, _) in enumerate(entries):
                    new_n[:, :, comp, s] += sgn * J_n[..., idx]
                    new_e[:, comp, s] += sgn * J_e[..., idx]
            dn = new_n - W_n
            de = new_e - W_e
            for s in range(nsol):
                u = max(np.sqrt((dn[:, :, :, s] ** 2).sum(axis=2)).max(),
                        np.sqrt((de[:, :, s] ** 2).sum(axis=1)).max())
                updates[s].append(u)
            W_n, W_e = new_n, new_e
            sup_w = max(np.sqrt((W_n**2).sum(axis=2)).max(), 1.0)
            worst = max(updates[0][-1], updates[1][-1])
            if it >= 1:
                for s in range(nsol):
                    prev, cur = updates[s][-2], updates[s][-1]
                    if prev > UPDATE_FLOOR and cur > (0.5 + CONTRACTION_SLACK) * prev:
                        raise SolverError(
                            f"fixed-point contraction ratio {cur / prev:.3f} > 1/2 "
                            f"at lambda={lam:.6g}; truncation points misplaced")
            if worst <= PICARD_TOL * sup_w:
                break
        else:
            raise SolverError(f"no fixed-point convergence in {MAX_PICARD_ITER} "
                              f"iterations at lambda={lam:.6g}")

        # interleave edges and nodes into one ascending sample set
        N = P * 6 + 1
        ts = np.empty(N)
        W_all = np.empty((N, 4, nsol))
        phases = np.empty((nsol, N))
        ts[0::6] = edges
        phases[:, 0::6] = alpha_e, beta_e
        W_all[0::6] = W_e
        for q in range(5):
            ts[1 + q::6] = nodes[:, q]
            phases[:, 1 + q::6] = alpha_n[:, q], beta_n[:, q]
            W_all[1 + q::6] = W_n[:, q]

        rho_all = np.asarray(self.profile.rho(hl.sign * ts))
        U = np.einsum("nij,njs->nis", _matrix_P(_sigma0(rho_all, params, lam),
                                                params), W_all)
        sig_inf = math.sqrt(k * k + lam * _rho_limit(self.profile, hl.sign) / mu)
        limits = np.array([[-k**-3, k**-2, -k**-1, 1.0],
                           [-sig_inf**-3, sig_inf**-2, -sig_inf**-1, 1.0]])
        xs = ts
        names = ("U1+", "U2+")
        if hl.sign < 0:
            xs, U, phases = -ts[::-1], U[::-1] * _FLIP[:, None], phases[:, ::-1]
            limits = limits * _FLIP
            names = ("U3-", "U4-")
        return {name: DecayingSolution(
                    side=hl.side, lam=lam, xs=xs, normalized=U[:, :, s],
                    phase=phases[s], limit=limits[s], updates=tuple(updates[s]))
                for s, name in enumerate(names)}


def boundary_coeffs_general(solutions, x_end, end):
    """Boundary coefficients n_ij at x_end from the decaying pair.

    solutions: the side dict {"U1+": ..., "U2+": ...} (right) or the left
    analogue, slow solution first as `OuterSolutions.solve` returns it.  The
    two relations annihilate both decaying solutions; they are obtained from
    two 2x2 solves on the phase-normalized samples (row phases cancel).
    x_end must be a sample of the solutions' grid (every panel edge is
    one), so no spline is built.
    """
    u_a, u_b = solutions.values()
    i = int(np.searchsorted(u_a.xs, x_end))
    if i == u_a.xs.size or u_a.xs[i] != x_end:
        raise SolverError(f"x={x_end!r} is not a sample of the outer grid; "
                          "closure points must be panel edges")
    ra, rb = u_a.normalized[i], u_b.normalized[i]
    A = np.array([[ra[0], ra[1]], [rb[0], rb[1]]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = np.linalg.norm(A[0]) * np.linalg.norm(A[1])
    if abs(det) < 1e-10 * scale:
        raise SolverError(
            f"decaying pair nearly dependent at x={x_end:.4g} "
            "(endpoint too far inside; move it outward)")
    n1 = np.linalg.solve(A, -np.array([ra[2], rb[2]]))
    n2 = np.linalg.solve(A, -np.array([ra[3], rb[3]]))
    return BoundaryCoeffs(end=end, x=float(x_end),
                          n11=float(n1[0]), n12=float(n1[1]),
                          n21=float(n2[0]), n22=float(n2[1]))


def endpoint_psd_margins(coeffs, k, sigma0_at_end):
    """Margins (A, C, -disc) of the endpoint quadratic form; PSD iff all >= 0.

    The form is A*th^2 + B*th*th' + C*th'^2 with, at the right end,
    A = -n21, C = n12, B = n11 - n22 - k^2 - sigma0^2; mirrored signs at the
    left end.  disc = B^2 - 4AC equals (n11 - n22 - k^2 - sigma0^2)^2
    + 4 n12 n21 at both ends.
    """
    n11, n12, n21, n22 = coeffs.as_tuple()
    B = n11 - n22 - k * k - sigma0_at_end**2
    disc = B * B + 4.0 * n12 * n21
    if coeffs.end == "right":
        A, C = -n21, n12
    else:
        A, C = n21, -n12
    return A, C, -disc


def coercive_window(profile, params, eps_star, lambda_grid, setup, engine,
                    gbounds):
    """Smallest window (x_minus, x_plus) with PSD endpoint forms on the grid.

    Marches outward one panel edge at a time from the truncation points,
    testing the sign conditions at every lambda in the grid; the first edge
    passing for all of them wins.  Returns (x_minus, x_plus, report).
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.min() < eps_star * (1 - 1e-12) or \
            lambda_grid.max() > gbounds.lambda_max * (1 + 1e-12):
        raise SolverError("lambda grid must lie in [eps_star, sqrt(g/L0)]")

    sols = {lam: engine.solve(lam) for lam in lambda_grid}
    report = {"right": [], "left": []}

    def find_edge(hl):
        side = hl.side
        for x_end in hl.sign * hl.edges:
            worst = math.inf
            ok = True
            for lam in lambda_grid:
                coeffs = boundary_coeffs_general(sols[lam][side], x_end, side)
                sig = float(_sigma0(profile.rho(x_end), params, lam))
                margins = endpoint_psd_margins(coeffs, params.k, sig)
                worst = min(worst, *margins)
                if min(margins) < 0:
                    ok = False
                    break
            report[side].append((float(x_end), worst))
            if ok:
                return float(x_end)
        raise CoercivitySearchError(
            f"no coercive endpoint found on the {side} side; "
            f"margins: {report[side][-3:]}")

    x_plus = find_edge(setup.right)
    x_minus = find_edge(setup.left)
    return x_minus, x_plus, report


@dataclass(frozen=True)
class DecayEnvelopes:
    """Deviation envelopes for the phase-normalized decaying solutions.

    env_u1..env_u4 bound ||normalized solution - limit|| uniformly over
    lambda in [eps_star, sqrt(g/L0)]; z_plus = env_u1 + env_u2 and
    z_minus = env_u3 + env_u4 decrease to 0 at the far ends.
    """

    env_u1: object
    env_u2: object
    env_u3: object
    env_u4: object

    def z_plus(self, x):
        return self.env_u1(x) + self.env_u2(x)

    def z_minus(self, x):
        return self.env_u3(x) + self.env_u4(x)


def decay_envelopes(profile, params, setup, gbounds):
    """Printed envelopes for the decaying solutions, per side.

    With t = sign*x the outward coordinate, gap = |rho_limit - rho0(x)| and
    t_tilde = sign*x_tilde, the slow envelope is
    2 Gamma_p Gamma_m (gap + rho0(x_tilde) e^{-(delta-k)(t - t_tilde)}
    + |rho0(x) - (delta-k) int_{t_tilde}^{t} rho0(sign*s) e^{-(delta-k)(t-s)} ds|)
    and the fast one (C_p + 2 Gamma_p Gamma_m) gap.  The convolution is
    evaluated by panel quadrature on the half line's grid and splined.
    """
    gp, gm = gbounds.Gamma_p, gbounds.Gamma_m
    delta, delta_s = gbounds.delta_eps, gbounds.delta_s
    lmax = gbounds.lambda_max
    rate = delta - params.k
    const_p = lmax * math.sqrt(4.0 * delta**10 + 16.0 * delta**12
                               + 9.0 * delta_s**4) / (4.0 * params.mu * delta**8)

    def build(hl):
        sign, edges, t0 = hl.sign, hl.edges, hl.edges[0]
        rho_lim = _rho_limit(profile, sign)
        _, conv_e = _scan_prefix(rate * (hl.nodes - t0)[..., None],
                                 rate * (edges - t0)[:, None],
                                 np.asarray(profile.rho(sign * hl.nodes))[..., None],
                                 hl.widths)
        conv = CubicSpline(edges, conv_e[:, 0])
        anchor_rho = float(profile.rho(sign * t0))

        def gap(x):
            return sign * (rho_lim - np.asarray(profile.rho(x)))

        def env_slow(x):
            t = sign * np.asarray(x, dtype=float)
            term3 = np.abs(np.asarray(profile.rho(x)) - rate * conv(t))
            return 2.0 * gp * gm * (gap(x) + anchor_rho * np.exp(-rate * (t - t0))
                                    + term3)

        def env_fast(x):
            return (const_p + 2.0 * gp * gm) * gap(x)

        return env_slow, env_fast

    env1, env2 = build(setup.right)
    env3, env4 = build(setup.left)
    return DecayEnvelopes(env_u1=env1, env_u2=env2, env_u3=env3, env_u4=env4)
