"""Decaying solutions at infinity for strictly increasing density profiles.

The fourth-order mode equation is rewritten as U' = (L(x) + rho0'(x) R) U on
U = (phi, phi', phi'', phi''').  L has simple eigenvalues (-k, -s, k, s) with
s = sigma0(x, lam) = sqrt(k^2 + lam*rho0(x)/mu); diagonalizing U = P V turns
the system into V' = (D + rho0' M) V with a coupling M that is integrable at
both infinities.  The two solutions decaying at +inf are built by a
fixed-point (Picard) iteration on a truncated half line, whose every round
is checked for contraction.  Every array of the solve lives on one sample
set, the panel edges with each panel's 5 Gauss nodes between them.  rho0' M
is formed once per solve, in closed form, and a round is a fixed number of
whole-array operations: each kernel integral exp(-psi(x)) int exp(psi) f is
a prefix sum of phase-scaled panel integrals (Blelloch, "Prefix sums and
their applications", 1990), taken in blocks over which psi rises by at most
SCAN_BLOCK_PHASE so nothing overflows.  The pair decaying at -inf is the
same construction for the mirrored problem: in t = -x the equation keeps
its form with rho0(-t) and g replaced by -g (U(x) = S U~(-x), S = diag(1,
-1, 1, -1)), so each half line is solved in its outward coordinate
t = sign*x by one code path and read back in x.  One Picard iteration
serves a whole array of lambdas, and `OuterSolutions.solve` returns per
lambda one `DecayingPair` per side: both solutions on the samples, (N, 2,
4), slow first.  The pairs close the problem on the window between the
truncation points through the boundary coefficients n_ij, all from one
array closure (`_closure`); a glued tail reads them between the samples
with exact slopes (`assembly.hermite_interpolate`).  `BoundaryFit`, the
tail source of increasing profiles, interpolates the window's n_ij at 17
lambdas in log lambda; a root check that misses doubles its nodes once,
and a miss on the doubled fit raises.  Both endpoint forms must be positive
semidefinite at each node and at the interpolant's midpoints.
Each truncation point is where Gamma_m*|rho_limit - rho0| reaches a level,
found by the package's one level search (`brent.monotone_level`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .assembly import endpoint_block, hermite_interpolate, psd_margins
from .brent import monotone_level
from .errors import (CoercivitySearchError, SolverError, TruncationError)
from .profiles import GL5_NODES, GL5_WEIGHTS

MAX_PICARD_ITER = 64
PICARD_TOL = 1e-12
CONTRACTION_SLACK = 1e-6
TAIL_DROP = 1e-10  # Gamma_m * (rho_limit_gap) at the numerical infinity cutoff
# Picard updates at or below this are round-off: their ratios say nothing
# about contraction
UPDATE_FLOOR = 1e-10
# truncation: Gamma_m*|rho_limit - rho0| at x_tilde (below the 1/2
# contraction ceiling), then panel count and ratio of the geometric grading
TRUNCATION_MARGIN = 0.3
N_PANELS = 160
PANEL_RATIO = 1.03
# boundary-coefficient fit: first degree (17 points, the window's) and the
# largest relative miss of the direct n_ij that `BoundaryFit.check` allows
# at a root
FIT_FIRST_DEGREE = 16
FIT_CHECK_TOL = 1e-10

_log = logging.getLogger("rtspect")


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


def _matrix4(*entries):
    """The (..., 4, 4) matrix of 16 entries given row by row; scalar
    entries broadcast against the array ones."""
    flat = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return flat.reshape(flat.shape[:-1] + (4, 4))


def _components(*entries):
    """The entries stacked on a new first axis, scalars broadcast against
    the array ones.  With the component axis first, arithmetic runs over
    the long grid and lambda axes."""
    return np.stack(np.broadcast_arrays(*entries))


def _matrix_L(rho, params, lam):
    rho = np.asarray(rho, dtype=float)
    k, mu = params.k, params.mu
    return _matrix4(0.0, 1.0, 0.0, 0.0,
                    0.0, 0.0, 1.0, 0.0,
                    0.0, 0.0, 0.0, 1.0,
                    -lam * k**2 * rho / mu - k**4, 0.0,
                    lam * rho / mu + 2.0 * k**2, 0.0)

def _matrix_R(params, lam, sign):
    # in t = sign*x the reflection flips only the gravity entry
    k, mu, g = params.k, params.mu, params.g
    R = np.zeros(np.shape(lam) + (4, 4))
    R[..., 3, 0] = sign * g * k**2 / (lam * mu)
    R[..., 3, 1] = lam / mu
    return R


def _apply_P(sig, params, W):
    """P(sigma0) W for W with the component axis first.  Column c of P is
    (-z^-3, z^-2, -z^-1, 1) for c = 0, 1 and (z^-3, z^-2, z^-1, 1) for
    c = 2, 3, with z = k in columns 0, 2 and z = sigma0 in columns 1, 3."""
    k = params.k
    diff_k, sum_k = W[2] - W[0], W[2] + W[0]
    diff_s, sum_s = W[3] - W[1], W[3] + W[1]
    return _components(diff_k / k**3 + diff_s / sig**3,
                       sum_k / k**2 + sum_s / sig**2,
                       diff_k / k + diff_s / sig, sum_k + sum_s)


def _matrix_P(sig, params):
    s = np.asarray(sig, dtype=float)[..., None]
    return np.moveaxis(_apply_P(s, params, np.eye(4)), 0, -2)


def _matrix_Pinv(sig, rho, params, lam):
    sig = np.asarray(sig, dtype=float)
    rho = np.asarray(rho, dtype=float)
    k, mu = params.k, params.mu
    s2, s3 = sig**2, sig**3
    Q = _matrix4(-k**3 * s2, k**2 * s2, k**3, -k**2,
                 k**2 * s3, -k**2 * s2, -s3, s2,
                 k**3 * s2, k**2 * s2, -k**3, -k**2,
                 -k**2 * s3, -k**2 * s2, s3, s2)
    return (mu / (2.0 * lam * rho))[..., None, None] * Q


def _matrix_dPdsig(sig):
    s = np.asarray(sig, dtype=float)
    return _matrix4(0.0, 3.0 * s**-4, 0.0, -3.0 * s**-4,
                    0.0, -2.0 * s**-3, 0.0, -2.0 * s**-3,
                    0.0, s**-2, 0.0, -s**-2,
                    0.0, 0.0, 0.0, 0.0)


def _matrix_M(rho, params, lam, sign):
    """Coupling of V' = (D + rho0' M) V in the coordinate t = sign*x.

    Derived by differentiating U = P V: M = P^-1 R P - (lam / (2 mu sigma0))
    P^-1 dP/dsigma0, the second factor being dsigma0/drho0 by the chain rule
    on sigma0^2 = k^2 + lam rho0 / mu.  Written from its factors: R has the
    one nonzero row r = (sign g k^2 / (lam mu), lam / mu, 0, 0), so the first
    term is the rank-one product of P^-1's last column with r P; dP/dsigma0
    is nonzero only in the sigma0 columns 1 and 3, so the second term fills
    those two columns, with the prefactor lam / (2 mu sigma0) times
    P^-1's mu / (2 lam rho0) reduced to 1 / (4 sigma0 rho0).  Returns
    (4, 4, ...): the component axes come first.
    """
    rho = np.asarray(rho, dtype=float)
    s = _sigma0(rho, params, lam)
    k, mu = params.k, params.mu
    a = sign * params.g * k**2 / (lam * mu)
    b = lam / mu
    h = mu / (2.0 * lam * rho)
    col = _components(-k**2 * h, s**2 * h, -k**2 * h, s**2 * h)
    row = _components(b / k**2 - a / k**3, (b - a / s) / s**2,
                      b / k**2 + a / k**3, (b + a / s) / s**2)
    M = col[:, None] * row[None, :]
    # (P^-1 dP/dsigma0)[:, 1]; column 3 is the same entries, rows 0-1 and
    # 2-3 swapped
    slow = (_components(-2.0 * k**2 * (k + s) / s**2, 5.0 * k**2 / s - s,
                        2.0 * k**2 * (k - s) / s**2, s - k**2 / s)
            / (4.0 * s * rho))
    M[:, 1] -= slow
    M[:, 3] -= slow[[2, 3, 0, 1]]
    return M


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


def gamma_bounds(profile, params, eps_star, pbounds):
    """Uniform-in-lambda bounds on ||P|| and ||M|| over [eps_star, sqrt(g/L0)]
    (0 < eps_star < sqrt(g/L0), which `Pipeline` checks)."""
    lmax = pbounds.lambda_max
    k, g = params.k, params.g
    L0 = pbounds.L0
    delta = float(_sigma0(profile.rho_minus, params, eps_star))
    delta_s = float(_sigma0(profile.rho_plus, params, lmax))
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


def _nodes(a):
    """The Gauss-node view (P, 5, ...) of an array on a half line's samples
    (6P + 1, ...), each panel's bottom edge and 5 nodes, then the last edge:
    a[::6] are the edges.  Reversed samples have the same layout."""
    return a[:-1].reshape((-1, 6) + a.shape[1:])[:, 1:]


@dataclass(frozen=True)
class HalfLine:
    """One truncated half line in its outward coordinate t = sign*x.

    edges ascend in t from sign*x_tilde to sign*X, finest at the start;
    samples are the edges with each panel's 5 Gauss points between its
    two edges (`_nodes`), the one point set the outer solve runs on.
    """

    sign: float
    edges: np.ndarray
    widths: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)

    @property
    def side(self):
        return "right" if self.sign > 0 else "left"


@dataclass
class PicardSetup:
    x_tilde_minus: float
    x_tilde_plus: float
    X_min: float
    X_max: float
    gbounds: GammaBounds
    right: HalfLine
    left: HalfLine


def _graded_edges(start, stop, w_cap):
    span = stop - start
    w = PANEL_RATIO ** np.arange(N_PANELS)
    w *= span / w.sum()
    if w.max() > w_cap:
        # geometric panels up to the cap, then equal ones no wider than it
        w = w[w <= w_cap]
        rest = span - w.sum()
        q = math.ceil(rest / w_cap)
        w = np.concatenate([w, np.full(q, rest / q)])
    edges = start + np.concatenate([[0.0], np.cumsum(w)])
    edges[-1] = stop
    return edges


def truncation_points(profile, params, gbounds):
    """Pick the half-line truncations and build the quadrature grids.

    On each half line, in t = sign*x, x_tilde is the innermost point with
    Gamma_m*|rho_limit - rho0| <= TRUNCATION_MARGIN; X pushes the same
    product below 1e-10 so the discarded tail is negligible.  The margin is
    a heuristic: Gamma_m tracks the entry scale of the coupling, not the
    norm of the fixed-point map, so it does not guarantee the contraction
    ratio below 1/2 (some mu = 0.05 cases reach 0.52-0.54).  The outer
    solve checks that ratio every round and raises SolverError past it.
    Panels are graded geometrically, finest near x_tilde where rho0' is
    largest, and none is wider than w_cap = 1.5/(k + delta_s): past the cap
    equal panels fill the half line.  A panel of width <= 0 raises
    SolverError, an empty window (both x_tilde at 0) TruncationError.
    """
    gm = gbounds.Gamma_m
    w_cap = 1.5 / (params.k + gbounds.delta_s)
    lines = []
    for sign in (1.0, -1.0):
        rho_lim = _rho_limit(profile, sign)

        def scaled_gap(t, sign=sign, rho_lim=rho_lim):
            return gm * sign * (rho_lim - float(profile.rho(sign * t)))

        t_tilde = monotone_level(
            lambda t: scaled_gap(t) - TRUNCATION_MARGIN, 0.0, profile.scale)
        t_end = monotone_level(lambda t: scaled_gap(t) - TAIL_DROP,
                               t_tilde, profile.scale)
        edges = _graded_edges(t_tilde, t_end, w_cap)
        widths = np.diff(edges)
        if not widths.min() > 0:
            raise SolverError(f"a half-line panel has width {widths.min():.3g}")
        nodes = edges[:-1, None] + widths[:, None] * GL5_NODES[None, :]
        samples = np.append(np.column_stack([edges[:-1], nodes]), edges[-1])
        lines.append(HalfLine(sign, edges, widths, samples))
    right, left = lines
    if -left.edges[0] >= right.edges[0]:
        raise TruncationError(
            f"empty truncation window: Gamma_m = {gm:.3g} keeps Gamma_m "
            f"|rho_limit - rho0| <= {TRUNCATION_MARGIN} at x = 0 on both "
            "sides; lower eps_star, which raises Gamma_m")
    return PicardSetup(
        x_tilde_minus=-left.edges[0], x_tilde_plus=right.edges[0],
        X_min=-left.edges[-1], X_max=right.edges[-1],
        gbounds=gbounds, right=right, left=left)


# ---------------------------------------------------------------------------
# phase-weighted panel scans

# largest phase rise phi within one scan block: a quarter of the exponent
# range of a double (177), so exp(phi) leaves the scaled integrands and
# their block sums a factor of about 1e231 of headroom, exp(-phi) stays a
# normal number, and rounding phi costs a relative eps*phi, below 2e-14
SCAN_BLOCK_PHASE = 0.25 * math.log(np.finfo(float).max)


def _scan_blocks(psi_e):
    """Edge indices 0 = b_0 < b_1 < ... < b_B = P that split the panels into
    blocks over which psi rises by at most SCAN_BLOCK_PHASE on every trailing
    column.  A panel's rise is at most 3 under the width cap, so every block
    holds at least one panel; the fixture's grids are one block."""
    P = psi_e.shape[0] - 1
    rise = np.diff(psi_e, axis=0).reshape(P, -1).max(axis=1)
    reach = np.concatenate([[0.0], np.cumsum(rise)])
    starts = [0]
    while starts[-1] < P:
        b = starts[-1]
        end = int(np.searchsorted(reach, reach[b] + SCAN_BLOCK_PHASE,
                                  side="right")) - 1
        starts.append(max(end, b + 1))
    return np.array(starts)


def _scan_weights(psi):
    """The exponentials `_scan_prefix` applies for the phases psi.

    psi is nondecreasing along a half line's samples (6P + 1, ...).  With
    phi = psi - psi(bottom edge of the panel's block) on each panel's nodes
    and top edge, 0 <= phi <= SCAN_BLOCK_PHASE, returns exp(phi) at the
    nodes, exp(-phi) on the samples and the block starts.  The factors
    depend on psi alone and are computed once per solve, not once per
    Picard iteration.
    """
    starts = _scan_blocks(psi[::6])
    base = psi[6 * np.repeat(starts[:-1], np.diff(starts))]     # (P, ...)
    phi = psi - np.concatenate([base[:1], np.repeat(base, 6, axis=0)])
    return np.exp(_nodes(phi)), np.exp(-phi), starts


def _scan_prefix(weights, f_n, widths):
    """J(x) = int_{bottom}^{x} exp(-(psi(x) - psi(tau))) f(tau) dtau.

    weights = _scan_weights(psi); f is sampled on the panel Gauss nodes,
    shape (P, 5, ...).  Returns J on the samples (6P + 1, ...).  Within a
    block with bottom edge b, J(x) = exp(-phi(x)) (J(b) + int_b^x exp(phi)
    f): the scaled integrals are cumulative sums of the panels' Gauss sums,
    and J is carried only from one block's top edge to the next block.
    Every term enters with a positive factor and nothing is subtracted
    after scaling, so the rounding error is that of the recurrence J(top) =
    exp(-rise) J(bottom) + panel integral, a few eps times the sum of the
    |terms|, plus the rounding of phi: at most 2 eps SCAN_BLOCK_PHASE,
    4e-14, times that sum.
    """
    up, down, starts = weights
    P = f_n.shape[0]
    G = (up * f_n).reshape(P, 5, -1)
    full = widths[:, None] * (GL5_WEIGHTS @ G)                # (P, T)
    partial = widths[:, None, None] * (_S_PARTIAL @ G)        # (P, 5, T)
    down = down.reshape(down.shape[0], -1)
    J = np.empty(down.shape)
    C = J[::6]                      # J at the edges, carried across blocks
    C[0] = 0.0
    top = np.empty_like(full)       # scaled J at each panel's top edge
    for b, e in zip(starts[:-1], starts[1:]):
        np.cumsum(full[b:e], axis=0, out=top[b:e])
        top[b:e] += C[b]
        C[b + 1:e + 1] = down[6 * b + 6:6 * e + 1:6] * top[b:e]
    bottom = np.empty_like(full)    # scaled J at each panel's bottom edge
    bottom[1:] = top[:-1]
    bottom[starts[:-1]] = C[starts[:-1]]
    _nodes(J)[...] = _nodes(down) * (bottom[:, None] + partial)
    return J.reshape(down.shape[:1] + f_n.shape[2:])


def _suffix_weights(psi):
    """`_scan_weights` of the reversed samples, along which -psi rises."""
    return _scan_weights(-psi[::-1])


def _scan_suffix(weights, f_n, widths):
    """J(x) = int_x^{top} exp(-(psi(tau) - psi(x))) f(tau) dtau.

    weights = _suffix_weights(psi).  The prefix scan of the reversed
    samples (the Gauss rule is symmetric, so reversed nodes are nodes).
    """
    return _scan_prefix(weights, f_n[::-1, ::-1], widths[::-1])[::-1]


# one kernel per entry W[..., solution, j] of the (..., 2, 4) Picard state,
# solution first and the components in the order (1, 0, 2, 3), so that the
# state flattens into kernel order: (solution, component, coef_alpha,
# coef_beta).  The phase coefficients multiply the increasing primitives
# alpha(t) = k*(t - bottom edge) and beta(t) = int sigma0 from the bottom
# edge.  The first _N_PREFIX kernels integrate up from the bottom edge and
# add; the rest integrate down from the far end and subtract.
_KERNELS = [(0, 1, -1.0, 1.0), (0, 0, 0.0, 0.0), (0, 2, 2.0, 0.0),
            (0, 3, 1.0, 1.0), (1, 1, 0.0, 0.0), (1, 0, -1.0, 1.0),
            (1, 2, 1.0, 1.0), (1, 3, 0.0, 2.0)]
_N_PREFIX = 1
_ORDER = np.array([comp for _, comp, _, _ in _KERNELS[:4]])
_KERNEL_CA, _KERNEL_CB = np.array([kern[2:] for kern in _KERNELS]).T
_TARGETS = (0, 1)  # e1, e2 in V coordinates: decay like e^{-kt}, e^{-sigma t}
# the targets in the state's layout (2, 4)
_BASE = (_ORDER == np.array(_TARGETS)[:, None]).astype(float)
# a mirrored solution U~(t) read back in x: U(x) = -S U~(-x), S = diag(1, -1,
# 1, -1); the overall sign keeps the left limits as (k^-3, k^-2, k^-1, 1)
_FLIP = np.array([-1.0, 1.0, -1.0, 1.0])


def _picard_state(J_pre, J_suf):
    """The state W (..., 2, 4): targets plus prefix minus suffix integrals."""
    W = np.empty(J_pre.shape[:-1] + _BASE.shape)
    J = W.reshape(J_pre.shape[:-1] + (len(_KERNELS),))
    J[..., :_N_PREFIX] = J_pre
    np.negative(J_suf, out=J[..., _N_PREFIX:])
    W += _BASE
    return W


def _grid_sup(W):
    """sup over the grid of |W[..., s, :]|, per lambda and solution: (n, 2)."""
    sq = np.einsum("...si,...si->...s", W, W)
    return np.sqrt(sq.reshape((-1,) + sq.shape[-2:]).max(axis=0))


@dataclass
class DecayingPair:
    """The two solutions decaying on one side, slow (e^{-k t}) first.

    xs are the half line's samples in x (xs[::6] its panel edges) and
    normalized holds e^{phase(x)} U(x) there (it tends to `limit` at the
    far end).  `samples_at` reads it and the phase between the samples
    with `assembly.hermite_interpolate`, the evaluator of the Galerkin
    modes, through their values and exact slopes there, which rebuilds
    raw values and derivatives of both solutions without overflow.  The
    slope of e^{phase} U is the system's own right-hand side,
    (phase' + L(rho0) + rho0' R) e^{phase} U, with phase' = +-(k, sigma0)
    on the right and left sides; the slopes are computed on the first
    `samples_at` call, which only a glued tail makes.  At a sample
    (every panel edge and window end is one) the values and slopes are
    the stored ones.  The far end of xs is both the reach of the tail and
    its evaluation limit.  updates = (slow, fast) are the Picard update
    sizes per round.
    """

    side: str
    lam: float
    xs: np.ndarray
    normalized: np.ndarray          # (N, 2, 4)
    phase: np.ndarray               # (N, 2)
    limit: np.ndarray               # (2, 4)
    updates: tuple
    profile: object
    params: object
    _slopes: object = field(default=None, repr=False)

    def _exact_slopes(self):
        """x-derivative of (normalized, phase) at the samples, (N, 2, 5)."""
        xs, lam, params = self.xs, self.lam, self.params
        rho = np.asarray(self.profile.rho(xs), dtype=float)
        A = (_matrix_L(rho, params, lam) + np.asarray(self.profile.drho(xs))
             [:, None, None] * _matrix_R(params, lam, 1.0))
        sign = 1.0 if self.side == "right" else -1.0
        rate = sign * np.stack(np.broadcast_arrays(
            params.k, _sigma0(rho, params, lam)), axis=-1)
        v = self.normalized
        dv = v @ np.swapaxes(A, -1, -2) + rate[..., None] * v
        return np.concatenate([dv, rate[..., None]], axis=-1)

    def samples_at(self, x, nu=0):
        """nu-th (0 or 1) x-derivative of (normalized, phase), shape
        (..., 2, 5)."""
        if self._slopes is None:
            self._slopes = self._exact_slopes()
        v = np.concatenate([self.normalized, self.phase[..., None]], axis=-1)
        return hermite_interpolate(self.xs, v, self._slopes, x, nu)

    @property
    def reach(self):
        return self.xs[-1] if self.side == "right" else self.xs[0]

    eval_limit = reach

    @property
    def contraction_ratios(self):
        """Ratios of successive Picard updates above round-off, slow first."""
        return tuple(u[i + 1] / u[i] for u in self.updates
                     for i in range(len(u) - 1) if u[i] > UPDATE_FLOOR)


class OuterSolutions:
    """Per-lambda factory and cache for the decaying pairs.

    solve(lam) returns {"right": DecayingPair, "left": DecayingPair}.
    The left pair is the right-side construction on
    the mirrored half line, reflected back into x.  `lam_range` is
    [eps_star, sqrt(g/L0)], the interval the truncation is sized for; the
    contraction itself is checked round by round, and a ratio above 1/2
    raises SolverError.
    """

    def __init__(self, profile, params, setup):
        self.profile = profile
        self.params = params
        self.lam_range = (setup.gbounds.eps_star, setup.gbounds.lambda_max)
        self._cache = {}
        # rho0 on each half line's samples, d/dt rho0(sign*t) at its nodes
        self._lines = [(hl, np.asarray(profile.rho(hl.sign * hl.samples)),
                        hl.sign * np.asarray(profile.drho(
                            hl.sign * _nodes(hl.samples))))
                       for hl in (setup.right, setup.left)]

    def solve(self, lam):
        """The decaying pairs at lam, a float or a 1-D array of lambdas.

        An array is solved as one batch (one Picard iteration over all its
        lambdas per half line) and gives a list with one dict per lambda;
        batches are not cached.  A float is the batch of one, and its dict
        is cached.
        """
        if np.ndim(lam) == 1:
            return self._solve(np.asarray(lam, dtype=float))
        key = float(lam)
        if key not in self._cache:
            if len(self._cache) > 1024:
                self._cache.clear()
            self._cache[key] = self._solve(np.array([key]))[0]
        return self._cache[key]

    def _solve(self, lams):
        right, left = (self._solve_half_line(hl, rho, drho_n, lams)
                       for hl, rho, drho_n in self._lines)
        return [{"right": r, "left": l} for r, l in zip(right, left)]

    def _solve_half_line(self, hl, rho, drho_n, lams):
        """The DecayingPair as t = sign*x -> inf, one per lambda, ascending x.

        Every array lives on the half line's samples, with a lambda axis
        behind them; the coupling is read at the nodes.  Each lambda leaves
        the iteration when it converges and is checked for contraction on
        its own updates, so its `updates` are those of a batch of one.
        """
        params = self.params
        ts, widths = hl.samples, hl.widths
        m = lams.size

        sig = _sigma0(rho[:, None], params, lams)                   # (N, m)
        alpha = params.k * (ts - ts[0])
        beta = _scan_prefix(_scan_weights(np.zeros(sig.shape)), _nodes(sig),
                            widths)
        # rho0' M in the state's component order, transposed so that
        # F = W A^T: A_T[..., l, j] = rho0' M[_ORDER[j], _ORDER[l]]
        M = _matrix_M(_nodes(rho)[..., None], params, lams, hl.sign)
        A_T = np.multiply(drho_n[..., None, None, None],
                          np.moveaxis(M[_ORDER][:, _ORDER], (0, 1), (-1, -2)),
                          order="C")                          # (P,5,m,4,4)

        # kernel phases (N,m,8), then the scans' exponentials
        psi = _KERNEL_CA * alpha[:, None, None] + _KERNEL_CB * beta[..., None]
        pre = _scan_weights(psi[..., :_N_PREFIX])
        suf = _suffix_weights(psi[..., _N_PREFIX:])

        live = np.arange(m)                 # batch positions still iterating
        # the first round maps W = 0 to the targets, an update of exactly 1
        W = np.broadcast_to(_BASE, (ts.size, m) + _BASE.shape)
        out = np.empty(W.shape)
        updates = [([1.0], [1.0]) for _ in range(m)]
        prev = np.ones((m, 2))
        for _ in range(MAX_PICARD_ITER):
            F = (_nodes(W) @ A_T).reshape(A_T.shape[:3] + (len(_KERNELS),))
            new = _picard_state(_scan_prefix(pre, F[..., :_N_PREFIX], widths),
                                _scan_suffix(suf, F[..., _N_PREFIX:], widths))
            u = _grid_sup(new - W)
            for j, i in enumerate(live):
                updates[i][0].append(u[j, 0])
                updates[i][1].append(u[j, 1])
            W = new
            bad = (prev > UPDATE_FLOOR) & (u > (0.5 + CONTRACTION_SLACK) * prev)
            if bad.any():
                j, s = np.argwhere(bad)[0]
                raise SolverError(
                    f"fixed-point contraction ratio "
                    f"{u[j, s] / prev[j, s]:.3f} > 1/2 at "
                    f"lambda={lams[live[j]]:.6g}; truncation points "
                    "misplaced")
            sup_w = np.maximum(_grid_sup(W).max(axis=1), 1.0)
            done = u.max(axis=1) <= PICARD_TOL * sup_w
            if done.any():
                out[:, live[done]] = W[:, done]
                keep = ~done
                live = live[keep]
                if not live.size:
                    break
                A_T, W, u = A_T[:, :, keep], W[:, keep], u[keep]
                # the block starts hold for any subset of the lambdas
                pre = (*(w[..., keep, :] for w in pre[:-1]), pre[-1])
                suf = (*(w[..., keep, :] for w in suf[:-1]), suf[-1])
            prev = u
        else:
            raise SolverError(f"no fixed-point convergence in {MAX_PICARD_ITER} "
                              f"iterations at lambda={lams[live[0]]:.6g}")

        # the state's components first, in their natural order
        W = np.moveaxis(out, -1, 0)[np.argsort(_ORDER)]            # (4,N,m,2)
        U = np.moveaxis(_apply_P(sig[..., None], params, W), 0, -1)
        phases = np.stack(np.broadcast_arrays(alpha[:, None], beta), axis=-1)
        # columns 0 and 1 of P at the far end: z = k, sigma0(rho_limit)
        z = np.stack(np.broadcast_arrays(params.k, _sigma0(
            _rho_limit(self.profile, hl.sign), params, lams)), axis=-1)
        limits = np.stack([-z**-3, z**-2, -z**-1, np.ones_like(z)], axis=-1)
        xs = ts
        if hl.sign < 0:
            xs, U, phases = -ts[::-1], U[::-1] * _FLIP, phases[::-1]
            limits = limits * _FLIP
        return [DecayingPair(side=hl.side, lam=float(lam), xs=xs,
                             normalized=U[:, i], phase=phases[:, i],
                             limit=limits[i], updates=tuple(map(tuple, u)),
                             profile=self.profile, params=params)
                for i, (lam, u) in enumerate(zip(lams, updates))]


def _closure(S, x):
    """n_ij (..., 4) = (n11, n12, n21, n22) of a decaying pair whose
    phase-normalized samples at the points x are S (..., 2, 4): the two
    relations n_i1 phi + n_i2 phi' + phi^(i+1) = 0 annihilating both (row
    phases cancel), by two stacked 2x2 solves, one right-hand side each.
    A nearly dependent pair raises SolverError."""
    A = S[..., :2]
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    bad = np.abs(det) < 1e-10 * np.prod(np.linalg.norm(A, axis=-1), axis=-1)
    if bad.any():
        raise SolverError(f"decaying pair nearly dependent at x="
                          f"{np.broadcast_to(x, bad.shape)[bad][0]:.4g} "
                          "(endpoint too far inside)")
    n1 = np.linalg.solve(A, -S[..., 2:3])
    n2 = np.linalg.solve(A, -S[..., 3:4])
    return np.concatenate([n1, n2], axis=-2)[..., 0]


def _closure_at(pairs, x):
    """n_ij (m, ..., 4) of m DecayingPairs of one side at the points x
    (...).  They must be samples of its grid (every panel edge is one), so
    no interpolant is built."""
    xs = pairs[0].xs
    i = np.minimum(np.searchsorted(xs, x), xs.size - 1)
    off = xs[i] != x
    if off.any():
        raise SolverError(f"x={float(np.asarray(x)[off][0])!r} is not a sample "
                          "of the outer grid; closure points must be panel "
                          "edges")
    return _closure(np.array([pair.normalized[i] for pair in pairs]), x)


def _closure_rows(sols, window):
    """The n_ij (m, 8) of m solved lambdas at the window's left end, then at
    its right end: the rows `BoundaryFit` interpolates."""
    return np.concatenate([_closure_at([s["left"] for s in sols], window[0]),
                           _closure_at([s["right"] for s in sols], window[1])],
                          axis=-1)


def _fit_lambdas(lam_range, j, n):
    """lambda at the Chebyshev points cos(pi j / n) of log lambda on lam_range.

    j = 0..n are the n + 1 points of the second kind, descending from the
    top of the range; the odd j of 2n are the midpoints that double them.
    """
    lo, hi = lam_range
    s = np.cos(np.pi * np.asarray(j) / n)
    return np.exp(math.log(lo) + 0.5 * (1.0 + s) * math.log(hi / lo))


def _chebyshev_coeffs(values):
    """Chebyshev coefficients of the interpolant through values (n+1, ...).

    The values sit at the points cos(pi j / n), j = 0..n; the transform is
    a DCT-I, done as one small product.
    """
    n = values.shape[0] - 1
    j = np.arange(n + 1)
    T = np.cos(np.pi / n * (np.outer(j, j) % (2 * n)))     # T_k(x_j)
    T[:, [0, n]] *= 0.5
    coeffs = T @ values * (2.0 / n)
    coeffs[[0, n]] *= 0.5
    return coeffs


def _relative_miss(fitted, direct):
    """The largest |fitted - direct n_ij| over the largest |direct n_ij|."""
    return float(np.abs(fitted - direct).max() / np.abs(direct).max())


class BoundaryFit:
    """n_ij at both window ends, read from a Chebyshev interpolant in log lambda.

    The 8 coefficients are analytic in lambda on `engine.lam_range` =
    [eps_star, sqrt(g/L0)].  The 1/lambda terms of the system put a pole at
    lambda = 0, just below eps_star; in log lambda it moves to -inf
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    The fit interpolates `rows` (17, 8), the n_ij at the window ends at
    `_fit_lambdas(lam_range, j, FIT_FIRST_DEGREE)`, j = 0..16, from
    `coercive_window`; every interpolant it builds, refined or not, holds
    its rows at the midpoints of its nodes to the window's PSD test
    (`_require_psd`).  It is the tail source of
    increasing profiles: called at lambda it gives the (8,) row of n_ij at
    the ends of `window`, (x_minus, x_plus); `pairs` gives the engine's
    cached DecayingPairs at one lambda, and `check` holds the fit to their
    direct n_ij at every root.  `n_nodes` counts the nodes, and `miss` is
    the largest relative miss the checks measured on them (nan before one).
    """

    def __init__(self, engine, window, rows):
        self.engine = engine
        self.window = window
        lo, hi = engine.lam_range
        self._log_lo, self._log_span = math.log(lo), math.log(hi / lo)
        self._set(rows)

    def __call__(self, lam):
        """The n_ij row (8,) at lam from the fit, left end then right."""
        s = 2.0 * (math.log(lam) - self._log_lo) / self._log_span - 1.0
        if abs(s) > 1.0 + 1e-12:
            raise SolverError(f"lambda={lam:.6g} lies outside the boundary "
                              "fit's range [eps_star, sqrt(g/L0)]")
        return chebval(min(max(s, -1.0), 1.0), self.coeffs)

    def pairs(self, lam):
        """{"right": DecayingPair, "left": DecayingPair} at lam, cached."""
        return self.engine.solve(lam)

    def check(self, lam):
        """Hold the fit to the direct n_ij of `pairs(lam)` at a root lam,
        relative to their largest |n_ij|, the fit's one judge.  A miss over
        FIT_CHECK_TOL refines the 17-node fit once (`refine`) and returns
        True, so that the caller searches again; a miss on the refined fit
        raises SolverError."""
        direct = _closure_rows([self.pairs(lam)], self.window)[0]
        miss = _relative_miss(self(lam), direct)
        self.miss = float(np.fmax(self.miss, miss))
        if miss <= FIT_CHECK_TOL:
            return False
        if self.n_nodes > FIT_FIRST_DEGREE + 1:
            raise SolverError(
                f"boundary coefficients from the log-lambda fit miss the direct "
                f"solve by {miss:.2e} (relative) at lambda={lam:.6g} with "
                f"{self.n_nodes} nodes")
        self.refine()
        _log.debug("root check at lambda=%.6g: boundary fit missed by %.2e, "
                   "refined to %d nodes", lam, miss, self.n_nodes)
        return True

    def slopes(self, lams):
        """dn_ij/dlambda (m, 8) at the lambdas (m,) of the fit's range, the
        derivative of the interpolant in s = log lambda times ds/dlambda."""
        s = 2.0 * (np.log(lams) - self._log_lo) / self._log_span - 1.0
        return (chebval(np.clip(s, -1.0, 1.0), chebder(self.coeffs)).T
                * (2.0 / (self._log_span * lams))[:, None])

    def refine(self):
        """Double the nodes: one batched outer solve of the midpoints (none
        of it in the engine's cache), whose direct rows are tested as the
        window is (`_require_psd`) and become nodes.  Whether the new fit
        is good enough is for `check` to judge at each root."""
        mids, _ = self._midpoints()
        direct = _closure_rows(self.engine.solve(mids), self.window)
        _require_psd(self.engine.profile, self.engine.params, self.window,
                     mids, direct)
        self._set(np.insert(self._rows, np.arange(1, self.n_nodes), direct, 0))

    def _set(self, rows):
        """Interpolate the node rows (n_nodes, 8) and hold the interpolant
        at the midpoints of the nodes to the window's PSD test."""
        self._rows, self.n_nodes, self.miss = rows, len(rows), math.nan
        self.coeffs = _chebyshev_coeffs(rows)   # (n_nodes, 8), series in s
        _require_psd(self.engine.profile, self.engine.params, self.window,
                     *self._midpoints())

    def _midpoints(self):
        """The n lambdas halfway between the nodes, with the fit there."""
        n = self.n_nodes - 1
        j = np.arange(1, 2 * n, 2)
        return (_fit_lambdas(self.engine.lam_range, j, 2 * n),
                chebval(np.cos(np.pi * j / (2 * n)), self.coeffs).T)


def _require_psd(profile, params, window, lams, rows):
    """Raise CoercivitySearchError unless both endpoint forms
    (`endpoint_block`) of the n_ij rows (m, 8) at the lambdas (m,) are
    positive semidefinite at the ends of the window."""
    for side, x_end, n in zip(("left", "right"), window,
                              (rows.T[:4], rows.T[4:])):
        block = endpoint_block(side, n, params, float(profile.rho(x_end)),
                               lams)
        worst = np.min(psd_margins(block), axis=0)
        j = int(np.argmin(worst))
        if not worst[j] >= 0:
            raise CoercivitySearchError(
                f"the {side} endpoint form at the truncation point "
                f"x={x_end:.6g} is not positive semidefinite: margin "
                f"{worst[j]:.3g} at lambda={lams[j]:.6g}")


def coercive_window(profile, params, setup, engine):
    """The window (x_tilde_minus, x_tilde_plus), the truncation points, and
    its n_ij at the boundary fit's 17 nodes.

    The lambdas are `_fit_lambdas` of j = 0..FIT_FIRST_DEGREE on
    `engine.lam_range`, solved in one batch, which is not cached.  Both
    endpoint forms must be positive semidefinite at each of them
    (`_require_psd`).  Returns (window, rows): rows (17, 8) are the nodes
    of `BoundaryFit`.
    """
    lams = _fit_lambdas(engine.lam_range, np.arange(FIT_FIRST_DEGREE + 1),
                        FIT_FIRST_DEGREE)
    window = (setup.x_tilde_minus, setup.x_tilde_plus)
    rows = _closure_rows(engine.solve(lams), window)
    _require_psd(profile, params, window, lams, rows)
    return window, rows


@dataclass(frozen=True)
class DecayEnvelopes:
    """Deviation envelopes of the phase-normalized decaying pairs: `right`
    and `left` hold each side's (slow, fast) envelope.  at(side, x), shape
    (..., 2), bounds ||normalized - limit|| of both solutions uniformly over
    lambda in [eps_star, sqrt(g/L0)]; its sum (z_plus on the right, z_minus
    on the left) decreases to 0 at the far end."""

    right: tuple
    left: tuple

    def at(self, side, x):
        envs = self.right if side == "right" else self.left
        return np.stack([env(x) for env in envs], axis=-1)


def decay_envelopes(profile, params, setup, gbounds):
    """Printed envelopes for the decaying solutions, per side.

    With t = sign*x the outward coordinate, gap = |rho_limit - rho0(x)| and
    t_tilde = sign*x_tilde, the slow envelope is
    2 Gamma_p Gamma_m (gap + rho0(x_tilde) e^{-(delta-k)(t - t_tilde)}
    + |rho0(x) - (delta-k) int_{t_tilde}^{t} rho0(sign*s) e^{-(delta-k)(t-s)} ds|)
    and the fast one (C_p + 2 Gamma_p Gamma_m) gap.  The convolution is a
    panel scan on the half line's samples, read between them with its exact
    slope rho0(sign*t) - (delta-k) conv (`assembly.hermite_interpolate`).
    """
    gp, gm = gbounds.Gamma_p, gbounds.Gamma_m
    delta, delta_s = gbounds.delta_eps, gbounds.delta_s
    lmax = gbounds.lambda_max
    rate = delta - params.k
    const_p = lmax * math.sqrt(4.0 * delta**10 + 16.0 * delta**12
                               + 9.0 * delta_s**4) / (4.0 * params.mu * delta**8)

    def build(hl):
        sign, ts, t0 = hl.sign, hl.samples, hl.edges[0]
        rho_lim = _rho_limit(profile, sign)
        rho_t = np.asarray(profile.rho(sign * ts))
        conv_s = _scan_prefix(_scan_weights(rate * (ts - t0)[:, None]),
                              _nodes(rho_t)[..., None], hl.widths)[:, 0]
        slopes = rho_t - rate * conv_s
        anchor_rho = float(profile.rho(sign * t0))

        def gap(x):
            return sign * (rho_lim - np.asarray(profile.rho(x)))

        def env_slow(x):
            t = sign * np.asarray(x, dtype=float)
            conv = hermite_interpolate(ts, conv_s, slopes, t)
            term3 = np.abs(np.asarray(profile.rho(x)) - rate * conv)
            return 2.0 * gp * gm * (gap(x) + anchor_rho * np.exp(-rate * (t - t0))
                                    + term3)

        def env_fast(x):
            return (const_p + 2.0 * gp * gm) * gap(x)

        return env_slow, env_fast

    return DecayEnvelopes(right=build(setup.right), left=build(setup.left))
