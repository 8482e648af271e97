"""Decaying solutions at infinity for strictly increasing density profiles.

The fourth-order mode equation is rewritten as U' = (L(x) + rho0'(x) R) U on
U = (phi, phi', phi'', phi''').  L has simple eigenvalues (-k, -s, k, s) with
s = sigma0(x, lam) = sqrt(k^2 + lam*rho0(x)/mu); diagonalizing U = P V turns
the system into V' = (D + rho0' M) V with a coupling M that is integrable at
both infinities.  The two solutions decaying at +inf are built by a
fixed-point (Picard) iteration on a truncated half line, whose every round
is checked for contraction.  rho0' M is formed once per solve, in closed
form, and a round is a fixed number of whole-array operations: each kernel
integral exp(-psi(x)) int exp(psi) f is a prefix sum of phase-scaled panel
integrals (Blelloch, "Prefix sums and their applications", 1990), taken in
blocks over which psi rises by at most SCAN_BLOCK_PHASE so nothing
overflows, with only the block ends carried from block to block.  The pair
decaying at -inf is the same construction for the mirrored problem: in
t = -x the equation keeps its form with rho0(-t) and g replaced by -g
(U(x) = S U~(-x), S = diag(1, -1, 1, -1)), so each half line is solved in
its outward coordinate t = sign*x by one code path and read back in x.
One Picard iteration serves a whole array of lambdas at once, and
`OuterSolutions.solve` returns per lambda one `DecayingPair` per side:
both solutions sampled together, (N, 2, 4), slow first.  The decaying
pairs close the problem on the window between the truncation points through
the boundary coefficients n_ij, all from one array closure (`_closure`) of
the stacked samples.  Both endpoint quadratic forms must be positive
semidefinite there at the fit's first 17 lambdas, whose n_ij start the
Chebyshev interpolant in log lambda that the root search reads
(`BoundaryFit`, the tail source of increasing profiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (CoercivitySearchError, SolverError, TruncationError)
from .outer_compact import BoundaryCoeffs
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
# boundary-coefficient fit: first degree (17 points, where the window is
# tested too), degree cap, trailing over largest Chebyshev coefficient that
# ends the doubling, and the largest relative miss `BoundaryFit.check` allows
FIT_FIRST_DEGREE = 16
FIT_MAX_DEGREE = 256
FIT_TAIL_TOL = 1e-13
FIT_CHECK_TOL = 1e-10


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
    """Uniform-in-lambda bounds on ||P|| and ||M|| over [eps_star, sqrt(g/L0)]."""
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
    SolverError.
    """
    gm = gbounds.Gamma_m
    w_cap = 1.5 / (params.k + gbounds.delta_s)
    lines = []
    for sign in (1.0, -1.0):
        rho_lim = _rho_limit(profile, sign)

        def scaled_gap(t, sign=sign, rho_lim=rho_lim):
            return gm * sign * (rho_lim - float(profile.rho(sign * t)))

        t_tilde = _solve_monotone_level(
            lambda t: scaled_gap(t) - TRUNCATION_MARGIN, 0.0, profile.scale)
        t_end = _solve_monotone_level(lambda t: scaled_gap(t) - TAIL_DROP,
                                      t_tilde, profile.scale)
        edges = _graded_edges(t_tilde, t_end, w_cap)
        widths = np.diff(edges)
        if not widths.min() > 0:
            raise SolverError(f"a half-line panel has width {widths.min():.3g}")
        nodes = edges[:-1, None] + widths[:, None] * GL5_NODES[None, :]
        lines.append(HalfLine(sign, edges, widths, nodes))
    right, left = lines
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


def _scan_weights(psi_n, psi_e):
    """The exponentials `_scan_prefix` applies for the phases psi.

    psi is nondecreasing along the grid, sampled at the panel Gauss nodes
    (P, 5, ...) and edges (P+1, ...).  With phi = psi - psi(bottom edge of
    the panel's block), 0 <= phi <= SCAN_BLOCK_PHASE, returns exp(phi) and
    exp(-phi) at the nodes, exp(-phi) at each panel's top edge and the
    block starts.  The factors depend on psi alone and are computed once
    per solve, not once per Picard iteration.
    """
    starts = _scan_blocks(psi_e)
    base = psi_e[np.repeat(starts[:-1], np.diff(starts))]    # (P, ...)
    phi_n = psi_n - base[:, None]
    return np.exp(phi_n), np.exp(-phi_n), np.exp(-(psi_e[1:] - base)), starts


def _scan_prefix(weights, f_n, widths):
    """J(x) = int_{bottom}^{x} exp(-(psi(x) - psi(tau))) f(tau) dtau.

    weights = _scan_weights(psi_n, psi_e); f is sampled on the panel Gauss
    nodes, shape (P, 5, ...) like psi_n.  Returns J at nodes (P, 5, ...) and
    edges (P+1, ...).  Within a block with bottom edge b,
    J(x) = exp(-phi(x)) (J(b) + int_b^x exp(phi) f): the scaled integrals
    are cumulative sums of the panels' Gauss sums, and J is carried only
    from one block's top edge to the next block.  Every term enters with a
    positive factor and nothing is subtracted after scaling, so the
    rounding error is that of the recurrence J(top) = exp(-rise) J(bottom)
    + panel integral, a few eps times the sum of the |terms|, plus the
    rounding of phi: at most 2 eps SCAN_BLOCK_PHASE, 4e-14, times that sum.
    """
    up, down_n, down_e, starts = weights
    P = f_n.shape[0]
    trail = f_n.shape[2:]
    G = (up * f_n).reshape(P, 5, -1)
    full = widths[:, None] * (GL5_WEIGHTS @ G)                # (P, T)
    partial = widths[:, None, None] * (_S_PARTIAL @ G)        # (P, 5, T)
    down_e = down_e.reshape(P, -1)
    top = np.empty_like(full)       # scaled J at each panel's top edge
    C = np.zeros((P + 1, full.shape[1]))
    for b, e in zip(starts[:-1], starts[1:]):
        np.cumsum(full[b:e], axis=0, out=top[b:e])
        top[b:e] += C[b]
        C[b + 1:e + 1] = down_e[b:e] * top[b:e]
    bottom = np.empty_like(full)    # scaled J at each panel's bottom edge
    bottom[1:] = top[:-1]
    bottom[starts[:-1]] = C[starts[:-1]]
    J_n = down_n * (bottom[:, None] + partial).reshape(f_n.shape)
    return J_n, C.reshape((P + 1,) + trail)


def _suffix_weights(psi_n, psi_e):
    """`_scan_weights` of the reversed grid, on which -psi is nondecreasing."""
    return _scan_weights(-psi_n[::-1, ::-1], -psi_e[::-1])


def _scan_suffix(weights, f_n, widths):
    """J(x) = int_x^{top} exp(-(psi(tau) - psi(x))) f(tau) dtau.

    weights = _suffix_weights(psi_n, psi_e).  The prefix scan of the
    reversed grid (the Gauss rule is symmetric, so reversed nodes are
    nodes).
    """
    J_n, J_e = _scan_prefix(weights, f_n[::-1, ::-1], widths[::-1])
    return J_n[::-1, ::-1], J_e[::-1]


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

    normalized holds e^{phase(x)} U(x) sampled on xs (so it tends to
    `limit` at the far end); one spline of it and the phase, built on the
    first `samples_at` call, which only a glued tail makes, rebuilds raw
    values and derivatives of both solutions without overflow.  The far
    end of xs is both the reach of the tail and its evaluation limit.
    updates = (slow, fast) are the Picard update sizes per round.
    """

    side: str
    lam: float
    xs: np.ndarray
    normalized: np.ndarray          # (N, 2, 4)
    phase: np.ndarray               # (N, 2)
    limit: np.ndarray               # (2, 4)
    updates: tuple
    _spline: object = field(default=None, repr=False)

    def samples_at(self, x, nu=0):
        """nu-th x-derivative of (normalized, phase), shape (..., 2, 5)."""
        if self._spline is None:
            self._spline = CubicSpline(self.xs, np.concatenate(
                [self.normalized, self.phase[..., None]], axis=-1))
        return self._spline(np.asarray(x, dtype=float), nu)

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
        # rho0 and d/dt rho0(sign*t) at each half line's nodes
        self._lines = [(hl, np.asarray(profile.rho(hl.sign * hl.nodes)),
                        hl.sign * np.asarray(profile.drho(hl.sign * hl.nodes)))
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
        right, left = (self._solve_half_line(hl, rho_n, drho_n, lams)
                       for hl, rho_n, drho_n in self._lines)
        return [{"right": r, "left": l} for r, l in zip(right, left)]

    def _solve_half_line(self, hl, rho_n, drho_n, lams):
        """The DecayingPair as t = sign*x -> inf, one per lambda, ascending x.

        Arrays carry a lambda axis behind the grid axes.  Each lambda leaves
        the iteration when it converges and is checked for contraction on
        its own updates, so its `updates` are those of a batch of one.
        """
        params = self.params
        k, mu = params.k, params.mu
        nodes, edges, widths = hl.nodes, hl.edges, hl.widths
        P = nodes.shape[0]
        m = lams.size

        sig_n = _sigma0(rho_n[..., None], params, lams)             # (P,5,m)
        alpha_n = k * (nodes - edges[0])
        alpha_e = k * (edges - edges[0])
        beta_e = np.zeros((P + 1, m))
        np.cumsum(widths[:, None] * (GL5_WEIGHTS @ sig_n), axis=0,
                  out=beta_e[1:])
        beta_n = (beta_e[:-1, None]
                  + widths[:, None, None] * (_S_PARTIAL @ sig_n))
        # rho0' M in the state's component order, transposed so that
        # F = W A^T: A_T[..., l, j] = rho0' M[_ORDER[j], _ORDER[l]]
        M = _matrix_M(rho_n[..., None], params, lams, hl.sign)
        A_T = np.multiply(drho_n[..., None, None, None],
                          np.moveaxis(M[_ORDER][:, _ORDER], (0, 1), (-1, -2)),
                          order="C")                          # (P,5,m,4,4)

        # kernel phases (P,5,m,8) and (P+1,m,8), then the scans' exponentials
        psi_n = (_KERNEL_CA * alpha_n[..., None, None]
                 + _KERNEL_CB * beta_n[..., None])
        psi_e = (_KERNEL_CA * alpha_e[:, None, None]
                 + _KERNEL_CB * beta_e[..., None])
        pre = _scan_weights(psi_n[..., :_N_PREFIX], psi_e[..., :_N_PREFIX])
        suf = _suffix_weights(psi_n[..., _N_PREFIX:], psi_e[..., _N_PREFIX:])

        live = np.arange(m)                 # batch positions still iterating
        # the first round maps W = 0 to the targets, an update of exactly 1
        W_n = np.broadcast_to(_BASE, (P, 5, m) + _BASE.shape)
        W_e = np.broadcast_to(_BASE, (P + 1, m) + _BASE.shape)
        out_n = np.empty(W_n.shape)
        out_e = np.empty(W_e.shape)
        updates = [([1.0], [1.0]) for _ in range(m)]
        prev = np.ones((m, 2))
        for _ in range(MAX_PICARD_ITER):
            n = live.size
            F = (W_n @ A_T).reshape(P, 5, n, len(_KERNELS))
            Jp_n, Jp_e = _scan_prefix(pre, F[..., :_N_PREFIX], widths)
            Js_n, Js_e = _scan_suffix(suf, F[..., _N_PREFIX:], widths)
            new_n = _picard_state(Jp_n, Js_n)
            new_e = _picard_state(Jp_e, Js_e)
            u = np.maximum(_grid_sup(new_n - W_n), _grid_sup(new_e - W_e))
            for j, i in enumerate(live):
                updates[i][0].append(u[j, 0])
                updates[i][1].append(u[j, 1])
            W_n, W_e = new_n, new_e
            bad = (prev > UPDATE_FLOOR) & (u > (0.5 + CONTRACTION_SLACK) * prev)
            if bad.any():
                j, s = np.argwhere(bad)[0]
                raise SolverError(
                    f"fixed-point contraction ratio "
                    f"{u[j, s] / prev[j, s]:.3f} > 1/2 at "
                    f"lambda={lams[live[j]]:.6g}; truncation points "
                    "misplaced")
            sup_w = np.maximum(_grid_sup(W_n).max(axis=1), 1.0)
            done = u.max(axis=1) <= PICARD_TOL * sup_w
            if done.any():
                out_n[:, :, live[done]] = W_n[:, :, done]
                out_e[:, live[done]] = W_e[:, done]
                keep = ~done
                live = live[keep]
                if not live.size:
                    break
                A_T, W_n, W_e = A_T[:, :, keep], W_n[:, :, keep], W_e[:, keep]
                u = u[keep]
                # the block starts hold for any subset of the lambdas
                pre = (*(w[..., keep, :] for w in pre[:-1]), pre[-1])
                suf = (*(w[..., keep, :] for w in suf[:-1]), suf[-1])
            prev = u
        else:
            raise SolverError(f"no fixed-point convergence in {MAX_PICARD_ITER} "
                              f"iterations at lambda={lams[live[0]]:.6g}")

        # interleave edges and nodes into one ascending sample set, then put
        # the state's components first, in their natural order
        N = P * 6 + 1
        ts = np.empty(N)
        W_all = np.empty((N, m) + _BASE.shape)
        phases = np.empty((N, m, 2))
        ts[0::6] = edges
        phases[0::6, :, 0] = alpha_e[:, None]
        phases[0::6, :, 1] = beta_e
        W_all[0::6] = out_e
        for q in range(5):
            ts[1 + q::6] = nodes[:, q]
            phases[1 + q::6, :, 0] = alpha_n[:, q, None]
            phases[1 + q::6, :, 1] = beta_n[:, q]
            W_all[1 + q::6] = out_n[:, q]
        W_all = np.moveaxis(W_all, -1, 0)[np.argsort(_ORDER)]    # (4,N,m,2)

        rho_all = np.asarray(self.profile.rho(hl.sign * ts))
        U = np.moveaxis(_apply_P(
            _sigma0(rho_all[:, None, None], params, lams[:, None]), params,
            W_all), 0, -1)                                      # (N,m,2,4)
        sig_inf = np.sqrt(k * k + lams * _rho_limit(self.profile, hl.sign) / mu)
        limits = np.empty((m, 2, 4))
        limits[:, 0] = [-k**-3, k**-2, -k**-1, 1.0]
        limits[:, 1] = np.stack([-sig_inf**-3, sig_inf**-2, -sig_inf**-1,
                                 np.ones(m)], axis=-1)
        xs = ts
        if hl.sign < 0:
            xs, U, phases = -ts[::-1], U[::-1] * _FLIP, phases[::-1]
            limits = limits * _FLIP
        return [DecayingPair(side=hl.side, lam=float(lam), xs=xs,
                             normalized=U[:, i], phase=phases[:, i],
                             limit=limits[i], updates=tuple(map(tuple, u)))
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
    no spline is built."""
    xs = pairs[0].xs
    i = np.minimum(np.searchsorted(xs, x), xs.size - 1)
    off = xs[i] != x
    if off.any():
        raise SolverError(f"x={float(np.asarray(x)[off][0])!r} is not a sample "
                          "of the outer grid; closure points must be panel "
                          "edges")
    return _closure(np.array([pair.normalized[i] for pair in pairs]), x)


def _closure_rows(sols, x_minus, x_plus):
    """The n_ij (m, 8) of m solved lambdas at x_minus, then at x_plus: the
    rows `BoundaryFit` interpolates."""
    return np.concatenate([_closure_at([s["left"] for s in sols], x_minus),
                           _closure_at([s["right"] for s in sols], x_plus)],
                          axis=-1)


def boundary_coeffs_general(pair, x_end):
    """Boundary coefficients n_ij at x_end, a sample of the DecayingPair's
    grid (`_closure_at`), on the pair's side."""
    n = _closure_at([pair], x_end)[0]
    return BoundaryCoeffs(pair.side, float(x_end), *map(float, n))


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


class BoundaryFit:
    """n_ij at both window ends, read from a Chebyshev interpolant in log lambda.

    The 8 coefficients are analytic in lambda on `engine.lam_range` =
    [eps_star, sqrt(g/L0)].  The 1/lambda terms of the system put a pole at
    lambda = 0, just below eps_star; in log lambda it moves to -inf
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    `rows` (FIT_FIRST_DEGREE + 1, 8) are the coefficients at the window
    ends at `_fit_lambdas(lam_range, j, FIT_FIRST_DEGREE)`, j = 0..16, as
    `coercive_window` returns them (`_closure_rows`).  The first call adds
    the nested midpoints, doubling the degree until the trailing quarter of
    every series' coefficients falls below FIT_TAIL_TOL of its largest.
    Each round is one batched outer solve, and none of it enters the
    engine's cache.  `n_nodes` and `tail` (the largest trailing ratio, the
    error estimate) describe the fit; they stay 0 and nan until it is
    built.  It is the tail source of increasing profiles: `pairs` gives
    the engine's cached DecayingPairs at one lambda, and `check` holds the
    fit to their direct n_ij there.
    """

    def __init__(self, engine, x_minus, x_plus, rows):
        self.engine = engine
        self.x_minus = x_minus
        self.x_plus = x_plus
        self._rows = rows
        lo, hi = engine.lam_range
        self._log_lo, self._log_span = math.log(lo), math.log(hi / lo)
        self.coeffs = None          # (degree + 1, 8), Chebyshev series in s
        self.n_nodes = 0
        self.tail = math.nan

    def __call__(self, lam):
        """(left, right) BoundaryCoeffs at lam from the fit."""
        n = self._values(lam)
        return (BoundaryCoeffs("left", self.x_minus, *map(float, n[:4])),
                BoundaryCoeffs("right", self.x_plus, *map(float, n[4:])))

    def pairs(self, lam):
        """{"right": DecayingPair, "left": DecayingPair} at lam, cached."""
        return self.engine.solve(lam)

    def check(self, lam):
        """Raise SolverError where the fit misses the direct n_ij at lam.

        The direct n_ij come from `pairs(lam)`; the miss is relative to the
        largest |n_ij| and may not exceed FIT_CHECK_TOL.
        """
        direct = _closure_rows([self.pairs(lam)], self.x_minus,
                               self.x_plus)[0]
        miss = np.abs(self._values(lam) - direct).max() / np.abs(direct).max()
        if not miss <= FIT_CHECK_TOL:
            raise SolverError(
                f"boundary coefficients from the log-lambda fit miss the direct "
                f"solve by {miss:.2e} (relative) at lambda={lam:.6g}; "
                f"fit tail estimate {self.tail:.1e} with {self.n_nodes} nodes")

    def _values(self, lam):
        s = 2.0 * (math.log(lam) - self._log_lo) / self._log_span - 1.0
        if abs(s) > 1.0 + 1e-12:
            raise SolverError(f"lambda={lam:.6g} lies outside the boundary "
                              "fit's range [eps_star, sqrt(g/L0)]")
        if self.coeffs is None:
            self._fit()
        return chebval(min(max(s, -1.0), 1.0), self.coeffs)

    def _fit(self):
        values = self._rows
        n = values.shape[0] - 1
        while True:
            coeffs = _chebyshev_coeffs(values)
            mag = np.abs(coeffs)
            tail = float((mag[3 * n // 4 + 1:].max(axis=0)
                          / mag.max(axis=0)).max())
            if tail <= FIT_TAIL_TOL:
                break
            if n >= FIT_MAX_DEGREE:
                raise SolverError(
                    f"boundary coefficients not resolved by {n + 1} Chebyshev "
                    f"points in log lambda (tail {tail:.1e})")
            merged = np.empty((2 * n + 1, values.shape[1]))
            merged[0::2] = values
            mids = _fit_lambdas(self.engine.lam_range,
                                np.arange(1, 2 * n, 2), 2 * n)
            merged[1::2] = _closure_rows(self.engine.solve(mids),
                                         self.x_minus, self.x_plus)
            values, n = merged, 2 * n
        self.coeffs, self.n_nodes, self.tail = coeffs, n + 1, tail


def endpoint_psd_margins(end, n, k, sigma0_at_end):
    """Margins (A, C, -disc) of the endpoint quadratic form; PSD iff all >= 0.

    The form is A*th^2 + B*th*th' + C*th'^2 with, at the right end,
    A = -n21, C = n12, B = n11 - n22 - k^2 - sigma0^2 for n (..., 4) =
    (n11, n12, n21, n22); mirrored signs at the left end.  disc = B^2 - 4AC
    equals (n11 - n22 - k^2 - sigma0^2)^2 + 4 n12 n21 at both ends.
    """
    n11, n12, n21, n22 = np.moveaxis(np.asarray(n, dtype=float), -1, 0)
    B = n11 - n22 - k * k - sigma0_at_end**2
    disc = B * B + 4.0 * n12 * n21
    if end == "right":
        return -n21, n12, -disc
    return n21, -n12, -disc


def coercive_window(profile, params, setup, engine):
    """The window (x_tilde_minus, x_tilde_plus), the truncation points, and
    its n_ij at the boundary fit's first 17 lambdas.

    The lambdas are `_fit_lambdas` of j = 0..FIT_FIRST_DEGREE on
    `engine.lam_range`, solved in one batch, which is not cached.  Both
    endpoint forms must be positive semidefinite at each of them; a
    negative margin raises CoercivitySearchError.  Returns (x_minus,
    x_plus, rows): rows (17, 8) are the first round of `BoundaryFit`.
    """
    lams = _fit_lambdas(engine.lam_range, np.arange(FIT_FIRST_DEGREE + 1),
                        FIT_FIRST_DEGREE)
    x_minus, x_plus = setup.x_tilde_minus, setup.x_tilde_plus
    rows = _closure_rows(engine.solve(lams), x_minus, x_plus)
    for side, x_end, n in (("left", x_minus, rows[:, :4]),
                           ("right", x_plus, rows[:, 4:])):
        sig = _sigma0(profile.rho(x_end), params, lams)
        worst = np.min(endpoint_psd_margins(side, n, params.k, sig), axis=0)
        j = int(np.argmin(worst))
        if not worst[j] >= 0:
            raise CoercivitySearchError(
                f"the {side} endpoint form at the truncation point "
                f"x={x_end:.6g} is not positive semidefinite: margin "
                f"{worst[j]:.3g} at lambda={lams[j]:.6g}")
    return x_minus, x_plus, rows


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
        weights = _scan_weights(rate * (hl.nodes - t0)[..., None],
                                rate * (edges - t0)[:, None])
        _, conv_e = _scan_prefix(
            weights, np.asarray(profile.rho(sign * hl.nodes))[..., None],
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

    return DecayEnvelopes(right=build(setup.right), left=build(setup.left))
