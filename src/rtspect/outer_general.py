"""Decaying solutions at infinity for strictly increasing density profiles.

The fourth-order mode equation is rewritten as U' = (L(x) + rho0'(x) R) U on
U = (phi, phi', phi'', phi''').  L has simple eigenvalues (-k, -s, k, s) with
s = sigma0(x, lam) = sqrt(k^2 + lam*rho0(x)/mu); diagonalizing U = P V turns
the system into V' = (D + rho0' M) V with a coupling M that is integrable at
both infinities.  The two solutions decaying at +inf (and the two at -inf)
are built by a contractive fixed-point iteration on a truncated half line,
with every kernel expressed in phase-difference form so nothing overflows.
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
from .outer_compact import (BoundaryCoeffs, PhaseNormalized,
                            exponential_closure)
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

def _matrix_R(params, lam):
    k, mu, g = params.k, params.mu, params.g
    R = np.zeros((4, 4))
    R[3, 0] = g * k**2 / (lam * mu)
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


def _matrix_M(rho, params, lam):
    """Coupling of V' = (D + rho0' M) V.

    Derived by differentiating U = P V: M = P^-1 R P - (lam / (2 mu sigma0))
    P^-1 dP/dsigma0, the second factor being dsigma0/drho0 by the chain rule
    on sigma0^2 = k^2 + lam rho0 / mu.
    """
    sig = _sigma0(rho, params, lam)
    P = _matrix_P(sig, params)
    Pinv = _matrix_Pinv(sig, rho, params, lam)
    R = _matrix_R(params, lam)
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
        R=_matrix_R(params, lam),
        D=np.diag([-k, -sig, k, sig]),
        P=_matrix_P(sig, params),
        Pinv=_matrix_Pinv(np.asarray(sig), np.asarray(rho), params, lam),
        M=_matrix_M(np.asarray(rho), params, lam))


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


def _solve_monotone_level(f, start, direction, scale):
    # smallest |x| in the given direction with f(x) <= 0, f monotone decreasing
    x = start
    step = scale
    while f(x) > 0:
        x += direction * step
        step *= 2.0
        if abs(x) > 1e6 * scale:
            raise TruncationError(
                "profile approaches its limit too slowly to truncate; "
                "use a faster-decaying profile")
    lo = x - direction * step / 2.0  # f(lo) > 0 unless the loop never ran
    if f(lo) <= 0:
        return lo
    xtol = 1e-12 * max(1.0, abs(x))
    root = brentq(f, lo, x, xtol=xtol)
    # the crossing lies less than 2*xtol from root, on either side; step
    # past it when needed, since the callers rely on f(x) <= 0
    return root if f(root) <= 0 else root + 2.0 * direction * xtol


@dataclass
class PicardSetup:
    x_tilde_minus: float
    x_tilde_plus: float
    X_min: float
    X_max: float
    margin: float
    gbounds: GammaBounds
    right_edges: np.ndarray
    left_edges: np.ndarray
    right_nodes: np.ndarray = field(repr=False, default=None)
    left_nodes: np.ndarray = field(repr=False, default=None)
    right_widths: np.ndarray = field(repr=False, default=None)
    left_widths: np.ndarray = field(repr=False, default=None)


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

    x_tilde_plus is the innermost point with Gamma_m*(rho_plus - rho0) <=
    margin (< 1/2 keeps the fixed-point map a contraction uniformly in
    lambda); X_max pushes the same product below 1e-10 so the discarded tail
    is negligible.  Panels are geometrically graded, finest near x_tilde
    where rho0' is largest.  The default margin sits below the 1/2 ceiling
    because Gamma_m tracks the entry scale of the coupling rather than its
    full Frobenius norm; 0.3 keeps the observed contraction under 1/2 with
    room to spare.
    """
    if not 0.0 < margin < 0.5:
        raise SolverError("margin must lie in (0, 1/2)")
    gm = gbounds.Gamma_m
    start = 0.0
    x_t_plus = _solve_monotone_level(
        lambda x: gm * (profile.rho_plus - float(profile.rho(x))) - margin,
        start, +1.0, profile.scale)
    x_t_minus = _solve_monotone_level(
        lambda x: gm * (float(profile.rho(x)) - profile.rho_minus) - margin,
        start, -1.0, profile.scale)
    X_max = _solve_monotone_level(
        lambda x: gm * (profile.rho_plus - float(profile.rho(x))) - TAIL_DROP,
        x_t_plus, +1.0, profile.scale)
    X_min = _solve_monotone_level(
        lambda x: gm * (float(profile.rho(x)) - profile.rho_minus) - TAIL_DROP,
        x_t_minus, -1.0, profile.scale)

    w_cap = 1.5 / (params.k + gbounds.delta_s)
    right_edges = _graded_edges(x_t_plus, X_max, n_panels, ratio, w_cap)
    # mirror: finest panels near x_tilde_minus
    offsets = _graded_edges(0.0, x_t_minus - X_min, n_panels, ratio, w_cap)
    left_edges = (x_t_minus - offsets)[::-1].copy()
    left_edges[0] = X_min

    setup = PicardSetup(
        x_tilde_minus=x_t_minus, x_tilde_plus=x_t_plus,
        X_min=X_min, X_max=X_max, margin=margin, gbounds=gbounds,
        right_edges=right_edges, left_edges=left_edges)
    for side in ("right", "left"):
        edges = getattr(setup, f"{side}_edges")
        widths = np.diff(edges)
        nodes = edges[:-1, None] + widths[:, None] * GL5_NODES[None, :]
        setattr(setup, f"{side}_widths", widths)
        setattr(setup, f"{side}_nodes", nodes)
    return setup


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
    """J(x) = int_x^{top} exp(-(psi(tau) - psi(x))) f(tau) dtau."""
    P = f_n.shape[0]
    K = f_n.shape[-1]
    G = np.exp(-(psi_n - psi_e[:-1, None, :])) * f_n
    full = widths[:, None] * np.einsum("q,pqk->pk", GL5_WEIGHTS, G)
    decay = np.exp(-(psi_e[1:] - psi_e[:-1]))
    D = np.zeros((P + 1, K))
    for p in range(P - 1, -1, -1):
        D[p] = decay[p] * D[p + 1] + full[p]
    rest = widths[:, None, None] * (
        np.einsum("i,pik->pk", GL5_WEIGHTS, G)[:, None, :]
        - np.einsum("qi,pik->pqk", _S_PARTIAL, G))
    J_n = (np.exp(-(psi_e[1:, None, :] - psi_n)) * D[1:, None, :]
           + np.exp(psi_n - psi_e[:-1, None, :]) * rest)
    return J_n, D


# kernel tables: (solution index on the side, component, phase spec, orientation)
# phase spec: (coef_alpha, coef_beta) multiplying the increasing primitives
# alpha(x) = k*(x - bottom edge), beta(x) = int sigma0 from the bottom edge.
_RIGHT_KERNELS = {
    "prefix": [(0, 1, (-1.0, 1.0))],
    "suffix": [(0, 0, (0.0, 0.0)), (0, 2, (2.0, 0.0)), (0, 3, (1.0, 1.0)),
               (1, 0, (-1.0, 1.0)), (1, 1, (0.0, 0.0)),
               (1, 2, (1.0, 1.0)), (1, 3, (0.0, 2.0))],
}
# left side: solutions (U3-, U4-) target e3, e4; prefix runs from X_min.
_LEFT_KERNELS = {
    "prefix": [(0, 0, (2.0, 0.0)), (0, 1, (1.0, 1.0)), (0, 2, (0.0, 0.0)),
               (1, 0, (1.0, 1.0)), (1, 1, (0.0, 2.0)),
               (1, 2, (-1.0, 1.0)), (1, 3, (0.0, 0.0))],
    "suffix": [(0, 3, (-1.0, 1.0))],
}
_RIGHT_TARGETS = (0, 1)  # e1, e2 in V coordinates
_LEFT_TARGETS = (2, 3)   # e3, e4


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
    """Per-lambda factory and cache for the four decaying solutions."""

    def __init__(self, profile, params, setup):
        self.profile = profile
        self.params = params
        self.setup = setup
        self._cache = {}
        self._node_rho = {}
        for side in ("right", "left"):
            nodes = getattr(setup, f"{side}_nodes")
            edges = getattr(setup, f"{side}_edges")
            self._node_rho[side] = (np.asarray(profile.rho(nodes)),
                                    np.asarray(profile.drho(nodes)),
                                    np.asarray(profile.rho(edges)))

    def solve(self, lam):
        key = float(lam)
        if key not in self._cache:
            if len(self._cache) > 1024:
                self._cache.clear()
            right = self._solve_side("right", lam)
            left = self._solve_side("left", lam)
            self._cache[key] = {"right": right, "left": left}
        return self._cache[key]

    # -- internals ---------------------------------------------------------
    def _phases(self, side, lam):
        nodes = getattr(self.setup, f"{side}_nodes")
        edges = getattr(self.setup, f"{side}_edges")
        widths = getattr(self.setup, f"{side}_widths")
        rho_n, _, rho_e = self._node_rho[side]
        k = self.params.k
        sig_n = _sigma0(rho_n, self.params, lam)
        alpha_n = k * (nodes - edges[0])
        alpha_e = k * (edges - edges[0])
        panel_beta = widths * np.einsum("q,pq->p", GL5_WEIGHTS, sig_n)
        beta_e = np.concatenate([[0.0], np.cumsum(panel_beta)])
        beta_n = beta_e[:-1, None] + widths[:, None] * np.einsum(
            "qi,pi->pq", _S_PARTIAL, sig_n)
        return alpha_n, alpha_e, beta_n, beta_e, sig_n

    def _solve_side(self, side, lam):
        setup = self.setup
        params = self.params
        nodes = getattr(setup, f"{side}_nodes")
        edges = getattr(setup, f"{side}_edges")
        widths = getattr(setup, f"{side}_widths")
        rho_n, drho_n, rho_e = self._node_rho[side]
        P = nodes.shape[0]
        kernels = _RIGHT_KERNELS if side == "right" else _LEFT_KERNELS
        targets = _RIGHT_TARGETS if side == "right" else _LEFT_TARGETS

        alpha_n, alpha_e, beta_n, beta_e, sig_n = self._phases(side, lam)
        Mn = _matrix_M(rho_n, params, lam)

        def stack_phases(entries):
            psi_n = np.stack([ca * alpha_n + cb * beta_n
                              for _, _, (ca, cb) in entries], axis=-1)
            psi_e = np.stack([ca * alpha_e + cb * beta_e
                              for _, _, (ca, cb) in entries], axis=-1)
            return psi_n, psi_e

        pre, suf = kernels["prefix"], kernels["suffix"]
        psi_pre = stack_phases(pre) if pre else None
        psi_suf = stack_phases(suf) if suf else None

        nsol = 2
        base_n = np.zeros((P, 5, 4, nsol))
        base_e = np.zeros((P + 1, 4, nsol))
        for s, comp in enumerate(targets):
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
            if pre:
                f = np.stack([F_n[:, :, comp, s] for s, comp, _ in pre], axis=-1)
                J_n, J_e = _scan_prefix(psi_pre[0], psi_pre[1], f, widths)
                for idx, (s, comp, _) in enumerate(pre):
                    new_n[:, :, comp, s] += J_n[..., idx]
                    new_e[:, comp, s] += J_e[..., idx]
            if suf:
                f = np.stack([F_n[:, :, comp, s] for s, comp, _ in suf], axis=-1)
                J_n, J_e = _scan_suffix(psi_suf[0], psi_suf[1], f, widths)
                for idx, (s, comp, _) in enumerate(suf):
                    new_n[:, :, comp, s] -= J_n[..., idx]
                    new_e[:, comp, s] -= J_e[..., idx]
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
        xs = np.empty(N)
        W_all = np.empty((N, 4, nsol))
        ph_all = np.empty((N, 2))
        alpha_all = np.empty(N)
        beta_all = np.empty(N)
        xs[0::6] = edges
        alpha_all[0::6] = alpha_e
        beta_all[0::6] = beta_e
        W_all[0::6] = W_e
        for q in range(5):
            xs[1 + q::6] = nodes[:, q]
            alpha_all[1 + q::6] = alpha_n[:, q]
            beta_all[1 + q::6] = beta_n[:, q]
            W_all[1 + q::6] = W_n[:, q]

        rho_all = np.asarray(self.profile.rho(xs))
        sig_all = _sigma0(rho_all, params, lam)
        Pmat = _matrix_P(sig_all, params)
        k = params.k
        mu = params.mu
        sols = {}
        if side == "right":
            sig_inf = math.sqrt(k * k + lam * self.profile.rho_plus / mu)
            names = ("U1+", "U2+")
            limits = (np.array([-k**-3, k**-2, -k**-1, 1.0]),
                      np.array([-sig_inf**-3, sig_inf**-2, -sig_inf**-1, 1.0]))
            phases = (alpha_all, beta_all)
        else:
            sig_inf = math.sqrt(k * k + lam * self.profile.rho_minus / mu)
            names = ("U3-", "U4-")
            limits = (np.array([k**-3, k**-2, k**-1, 1.0]),
                      np.array([sig_inf**-3, sig_inf**-2, sig_inf**-1, 1.0]))
            # phases grow toward -inf: alpha_all/beta_all run from X_min upward,
            # so the decay phase is their value at x_tilde_minus minus at x.
            phases = (alpha_all[-1] - alpha_all, beta_all[-1] - beta_all)
        for s in range(nsol):
            U_norm = np.einsum("nij,njs->nis", Pmat, W_all)[:, :, s]
            sols[names[s]] = DecayingSolution(
                side=side, lam=lam, xs=xs, normalized=U_norm,
                phase=np.asarray(phases[s], dtype=float),
                limit=limits[s], updates=tuple(updates[s]))
        return sols

    def sigma_limits(self, lam):
        k, mu = self.params.k, self.params.mu
        return (math.sqrt(k * k + lam * self.profile.rho_minus / mu),
                math.sqrt(k * k + lam * self.profile.rho_plus / mu))


def boundary_coeffs_general(solutions, x_end, end):
    """Boundary coefficients n_ij at x_end from the decaying pair.

    solutions: the side dict {"U1+": ..., "U2+": ...} (right) or the left
    analogue.  The two relations annihilate both decaying solutions; they are
    obtained from two 2x2 solves on the phase-normalized samples (row phases
    cancel).  x_end must be a sample of the solutions' grid (every panel
    edge is one), so no spline is built.
    """
    if end == "right":
        u_a, u_b = solutions["U1+"], solutions["U2+"]
    else:
        u_a, u_b = solutions["U3-"], solutions["U4-"]
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


def limit_boundary_coeffs(params, sigma, end):
    """x -> +-inf limits of the boundary coefficients (closed form)."""
    x = math.inf if end == "right" else -math.inf
    return exponential_closure(end, x, params.k, sigma)


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

    def find_edge(side):
        edges = setup.right_edges if side == "right" else setup.left_edges[::-1]
        end = side
        for j, x_end in enumerate(edges):
            worst = math.inf
            ok = True
            for lam in lambda_grid:
                coeffs = boundary_coeffs_general(sols[lam][side], x_end, end)
                sig = float(_sigma0(profile.rho(x_end), params, lam))
                margins = endpoint_psd_margins(coeffs, params.k, sig)
                worst = min(worst, *margins)
                if min(margins) < 0:
                    ok = False
                    break
            report[side].append((float(x_end), worst))
            if ok:
                return float(x_end), j
        raise CoercivitySearchError(
            f"no coercive endpoint found on the {side} side; "
            f"margins: {report[side][-3:]}")

    x_plus, j_plus = find_edge("right")
    x_minus, j_minus = find_edge("left")
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

    The slow term carries exp(-(delta - k)(x - x_tilde)); the convolution
    int rho0(tau) e^{-(delta-k)(x-tau)} dtau is evaluated by panel quadrature
    on the setup grid and splined.
    """
    gp, gm = gbounds.Gamma_p, gbounds.Gamma_m
    delta, delta_s = gbounds.delta_eps, gbounds.delta_s
    lmax = gbounds.lambda_max
    rate = delta - params.k
    const_p = lmax * math.sqrt(4.0 * delta**10 + 16.0 * delta**12
                               + 9.0 * delta_s**4) / (4.0 * params.mu * delta**8)

    def build(side):
        edges = getattr(setup, f"{side}_edges")
        nodes = getattr(setup, f"{side}_nodes")
        widths = getattr(setup, f"{side}_widths")
        rho_n = np.asarray(profile.rho(nodes))
        if side == "right":
            psi_n = rate * (nodes - edges[0])
            psi_e = rate * (edges - edges[0])
            _, conv_e = _scan_prefix(psi_n[..., None], psi_e[:, None],
                                     rho_n[..., None], widths)
            anchor = setup.x_tilde_plus
            anchor_rho = float(profile.rho(anchor))

            def dist(x):
                return np.asarray(x, dtype=float) - anchor

            def gap(x):
                return profile.rho_plus - np.asarray(profile.rho(x))
        else:
            psi_n = rate * (edges[-1] - nodes)
            psi_e = rate * (edges[-1] - edges)
            _, conv_e = _scan_suffix(psi_n[..., None], psi_e[:, None],
                                     rho_n[..., None], widths)
            anchor = setup.x_tilde_minus
            anchor_rho = float(profile.rho(anchor))

            def dist(x):
                return anchor - np.asarray(x, dtype=float)

            def gap(x):
                return np.asarray(profile.rho(x)) - profile.rho_minus

        conv = CubicSpline(edges, conv_e[:, 0])

        def env_slow(x):
            term3 = np.abs(np.asarray(profile.rho(x)) - rate * conv(x))
            return 2.0 * gp * gm * (gap(x) + anchor_rho * np.exp(-rate * dist(x))
                                    + term3)

        def env_fast(x):
            return (const_p + 2.0 * gp * gm) * gap(x)

        return env_slow, env_fast

    env1, env2 = build("right")
    env3, env4 = build("left")
    return DecayEnvelopes(env_u1=env1, env_u2=env2, env_u3=env3, env_u4=env4)
