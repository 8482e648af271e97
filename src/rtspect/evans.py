"""Independent growth-rate finder by compound-matrix shooting.

A growth rate is a lambda at which the plane of solutions decaying at +inf
meets the plane decaying at -inf.  Both planes are integrated toward a
matching point as 2-vectors in wedge coordinates (the standard stiffness
cure: raw columns collapse onto the dominant direction, the wedge of the
pair does not), and the Evans value is their 4-form pairing there.  This
path shares nothing with the Galerkin machinery: it integrates the second
compound of the mode equation's companion system, a fixed 6x6 structure
written out from three coefficients, with the 8th-order Dormand-Prince
pair.  The stepper is the module's own `solve_ivp`, a port of scipy's
DOP853 that takes the same steps, so the oracle needs no
`scipy.integrate`.  The system is linear in the state and cheap per
lambda, so both sides of an array of lambdas are integrated as one state:
a scan, and each round of the root refinement, is one integration.  The
refinement reads the values, not only their signs: after one uniform
round it clusters a bracket's points about the inverse cubic interpolant
of its last round, which closes most brackets in that round.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

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
_log = logging.getLogger("rtspect")


# Dormand-Prince 8(5,3) (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, sec. II.5): the 12 stages' nodes C and rows of
# A, the weights B (A's 13th row), and the 5th- and 3rd-order error weights
# E5 and E3 over the 12 stages and the new point's derivative
_DOP_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
)
_DOP_A = np.array([row + (0.0,) * (12 - len(row)) for row in _DOP_ROWS])
_DOP_A, _DOP_B = _DOP_A[:12], _DOP_A[12]
_DOP_C = np.array([0.0, 0.526001519587677318785587544488e-01,
                   0.789002279381515978178381316732e-01,
                   0.118350341907227396726757197510,
                   0.281649658092772603273242802490,
                   0.333333333333333333333333333333, 0.25,
                   0.307692307692307692307692307692,
                   0.651282051282051282051282051282, 0.6,
                   0.857142857142857142857142857142, 1.0])
_DOP_E3 = np.append(_DOP_B, 0.0)
_DOP_E3[[0, 8, 11]] -= (0.244094488188976377952755905512,
                        0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1)
_DOP_E5 = np.zeros(13)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
# step-size control: safety factor, the bounds of one step's change, and
# the exponent -1/(error order + 1) of the error norm
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class IvpResult:
    y: np.ndarray           # (n, 1): the state where the integration ended
    success: bool
    message: str
    nfev: int


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K, h, scale):
    """DOP853's error norm: the 5th-order estimate damped by the 3rd."""
    err5 = np.dot(K.T, _DOP_E5) / scale
    err3 = np.dot(K.T, _DOP_E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6):
    """y' = fun(t, y) across t_span by DOP853 with adaptive steps.

    A port of scipy's `solve_ivp(method="DOP853")` without dense output,
    events or `t_eval`: the same initial step, stages, error norm and step
    control, so it takes the same steps and returns the same state.  The
    local error of each step is kept below atol + rtol*|y| in the RMS norm.
    """
    t, t_end = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    direction = np.sign(t_end - t)
    fy = f(t, y)
    # initial step (Hairer, Norsett and Wanner, sec. II.4)
    h_abs = abs(t_end - t)
    if h_abs > 0:
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(fy / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, h_abs)
        f1 = f(t + h0 * direction, y + h0 * direction * fy)
        d2 = _rms((f1 - fy) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        h_abs = min(100 * h0, h1, h_abs)

    K = np.empty((13, y.size))
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return IvpResult(y[:, None], False, _TOO_SMALL_STEP, nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = fy
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _DOP_A[s, :s]) * h
                K[s] = f(t + _DOP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DOP_B)
            K[-1] = f_new = f(t + h, y_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, fy = t_new, y_new, f_new
    return IvpResult(y[:, None], True, "The solver successfully reached the "
                     "end of the integration interval.", nfev)


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


def _initial_plane(profile, params, lam, side):
    """Unit wedge of the decaying pair at the truncation point, one column
    per lambda, and the log of the norm removed."""
    k = params.k
    rho = profile.rho_plus if side == "right" else profile.rho_minus
    sig = np.sqrt(k * k + lam * rho / params.mu)
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
        sol = solve_ivp(rhs, (a, b), w.ravel(), rtol=_RTOL / scale,
                        atol=_RTOL * 1e-2 / scale)
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


@functools.lru_cache(maxsize=8)
def _matching_bounds(profile):
    """The integration ends; they depend on the profile alone."""
    if profile.kind == COMPACT:
        lo, hi = profile.support
        pad = 1e-3 * 0.5 * (hi - lo)
        return lo - pad, hi + pad
    return limit_box(profile, rel_tol=1e-10)


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


def _inverse_cubic(x, d):
    """Zero of the cubic lambda(D) through the 4 points (x, d) of each row."""
    with np.errstate(all="ignore"):
        return x[:, 0] + sum((x[:, k] - x[:, 0]) * np.prod(
            [d[:, m] / (d[:, m] - d[:, k]) for m in range(4) if m != k],
            axis=0) for k in range(1, 4))


def find_roots(profile, params, scan_grid, tol=1e-10):
    """Every sign change of the Evans value over `scan_grid`, refined in
    batched rounds of `_SECTIONS` points per open bracket.

    The scan is one batched evaluation, and so is each round, which keeps
    each bracket's first sign change (an exact zero closes it).  A
    bracket's first round, and any after one that shrank it less than
    (`_SECTIONS` + 1)-fold, is a uniform k-section, so at most twice
    k-section's rounds are made.  Its other rounds place the points at r
    and r +- (t/4) rho^j, j = 0..6: r is Brent's inverse cubic interpolant
    through the 4 points of the last round nearest the change (or the
    midpoint), t the closing width, and rho^7 t/4 reaches each end.  A
    bracket is open while wider than tol (plus round-off), and each root
    is its midpoint, so within tol/2 (plus round-off) of a sign change; a
    scan point with an exact zero is returned as it is.  A DEBUG record on
    the `rtspect` logger counts rounds, lambdas evaluated, brackets closed
    by a clustered round and those where a round saw more than one change.
    """
    tol = float(tol)
    if not 0 <= tol < math.inf:
        raise SolverError(f"find_roots needs a finite tol >= 0, got {tol}")
    grid = np.sort(np.asarray(scan_grid, dtype=float))

    def evaluate(lams):
        samples = evans_function(profile, params, lams.ravel())
        return np.array([(s.value, s.scale_exponent) for s in samples]
                        ).T.reshape((2,) + lams.shape)

    v, e = evaluate(grid)
    s = np.sign(v)
    # one bracket [lo, hi] per root, in grid order; an exact zero is a
    # closed bracket of width 0.  Its points are kept as D = value
    # exp(scale_exponent - ref), one ref per bracket: D at both ends, and
    # the 4 points (lambda, D) of its last round nearest the sign change;
    # the exponent is clipped to the float range, so D keeps the sign
    starts = np.flatnonzero((s == 0) | (s * np.append(s[1:], 0.0) < 0))
    ends = np.column_stack([starts, starts + (s[starts] != 0)])
    lo, hi = grid[ends].T.copy()
    ref = e[starts, None]
    end_d = v[ends] * np.exp(np.clip(e[ends] - ref, -700, 700))
    near = np.zeros((2, lo.size, 4))
    uniform = np.ones(lo.size, dtype=bool)
    last, passed = np.zeros((2, lo.size), dtype=bool)
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    rounds, n_evals = 0, grid.size
    while True:
        width = tol + _ROUNDOFF * np.abs(hi)
        live = np.flatnonzero(hi - lo > width)
        if live.size == 0:
            _log.debug("find_roots: %d scan points, %d rounds, %d lambdas "
                       "evaluated, %d brackets closed by a clustered round, "
                       "%d where a round saw more than one sign change",
                       grid.size, rounds, n_evals, np.count_nonzero(last),
                       np.count_nonzero(passed))
            return [float(r) for r in 0.5 * (lo + hi)]
        w = hi[live] - lo[live]
        pts = lo[live, None] + w[:, None] * frac
        clustered = ~uniform[live]
        if clustered.any():
            c = live[clustered]
            r = _inverse_cubic(*near[:, c])
            r = np.where((r > lo[c]) & (r < hi[c]), r, 0.5 * (lo[c] + hi[c]))
            d = np.stack([r - lo[c], hi[c] - r])[..., None]
            h = np.minimum(0.25 * width[c, None], d)
            off = h * (d / h) ** (np.arange(7) / 7)
            pts[clustered] = np.column_stack([r[:, None] - off[0, :, ::-1],
                                              r, r[:, None] + off[1]])
        v, e = evaluate(pts)
        rounds, n_evals = rounds + 1, n_evals + pts.size
        q = np.column_stack([lo[live], pts, hi[live]])
        v = v * np.exp(np.clip(e - ref[live], -700, 700))
        d = np.column_stack([end_d[live, 0], v, end_d[live, 1]])
        sq = np.sign(d)
        passed[live] |= np.count_nonzero(sq[:, 1:] * sq[:, :-1] < 0,
                                         axis=1) > 1
        # every sign before the first change equals lo's, so the first
        # change is a sign flip or an exact zero
        i = np.argmax(sq[:, 1:] != sq[:, :-1], axis=1)[:, None]
        rows = np.arange(live.size)[:, None]
        j = np.column_stack([i + (sq[rows, i + 1] == 0), i + 1])
        lo[live], hi[live] = q[rows, j].T
        end_d[live] = d[rows, j]
        k = np.clip(i - 1, 0, _SECTIONS - 2) + np.arange(4)
        near[:, live] = q[rows, k], d[rows, k]
        last[live] = clustered
        uniform[live] = clustered & ((_SECTIONS + 1) * (hi[live] - lo[live])
                                     > w)
