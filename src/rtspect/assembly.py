"""Cubic Hermite (C1) Galerkin discretization of the reduced-interval forms.

The energy form pairs second derivatives, so the trial space must be H2-
conforming: cubic Hermite elements carry (value, slope) unknowns per node,
their endpoint degrees of freedom expose phi(x_pm) and phi'(x_pm) directly,
and the boundary closures become plain 2x2 blocks added to the stiffness
matrix.  Assembled objects:

  K     K_mu + lam K_rho + E(lam), affine in lam in the volume:
        K_mu = mu * int (th'' rh'' + 2 k^2 th' rh' + k^4 th rh),
        K_rho = int rho0 (k^2 th rh + th' rh'), and E(lam) the two 2x2
        endpoint blocks from the n_ij at lam
  M_rho int rho0' th rh   (weighted mass; right-hand side of the pencil)
  G     int (th rh + th' rh' + th'' rh'')   (H2 Gram, for the coercivity
        floor mu * min(k^4, 2k^2, 1))

K_mu, K_rho, M_rho and G do not depend on lam: `assemble_volume` integrates
them at the Gauss points once per slice builder, and `assemble_forms` costs
one band sum and two endpoint blocks per lam.  An element couples the four
unknowns of its two nodes, so every matrix has half-bandwidth 3.  They are
assembled straight into LAPACK lower band storage, ab[i - j, j] = A[i, j]
for 0 <= i - j <= 3 (shape 4 x n_dofs), and every solver downstream works
on the bands; dense matrices exist only as on-demand views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dpbtrf

from .errors import CoercivityError, SolverError
from .profiles import GL5_NODES, GL5_WEIGHTS

BANDWIDTH = 3            # half-bandwidth of the C1 cubic Hermite matrices
COERCIVITY_RTOL = 1e-13  # relative width at which the margin bisection stops
_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)

# Power-basis coefficients of the reference cubic Hermite shapes on [0, 1],
# one column per local DOF (value 0, slope 0, value 1, slope 1).
_HERMITE = np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [-3.0, -2.0, 3.0, -1.0],
                     [2.0, 1.0, -2.0, 1.0]])


def _hermite_shapes(t, deriv=0):
    """t-derivative of order `deriv` (0..3) of the reference shapes at t;
    shape (4, *t.shape)."""
    if deriv not in (0, 1, 2, 3):
        raise SolverError("deriv must be 0..3")
    return np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyder(_HERMITE, deriv))


def hermite_interpolate(nodes, values, slopes, x, deriv=0):
    """deriv-th x-derivative (0..3) at x of the C1 piecewise cubic through
    values and slopes (N, ...) at the ascending nodes (N,), end cubics
    extended: shape x.shape + values.shape[1:].  With the h-scaling split
    below, a node reads its stored value (deriv 0) or slope (1) exactly."""
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    h = nodes[i + 1] - nodes[i]
    pad = (...,) + (None,) * (np.ndim(values) - 1)
    H, h = _hermite_shapes((x - nodes[i]) / h, deriv)[pad], h[pad]
    return ((H[0] * values[i] + H[2] * values[i + 1]) / h**deriv
            + (H[1] * slopes[i] + H[3] * slopes[i + 1]) * h**(1 - deriv))


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray  # element boundaries, strictly increasing

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise SolverError("mesh boundaries must be strictly increasing")

    @property
    def x_minus(self):
        return float(self.nodes[0])

    @property
    def x_plus(self):
        return float(self.nodes[-1])

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    @property
    def widths(self):
        return np.diff(self.nodes)


def build_mesh(x_minus, x_plus, n_elements, grading="uniform"):
    """Partition [x_minus, x_plus]; grading "uniform", "geometric:R" (widths
    in geometric progression left to right) or "center:R" (two mirrored
    geometric halves, finest at the midpoint, widest/narrowest = R)."""
    if not x_minus < x_plus:
        raise SolverError("need x_minus < x_plus")
    if n_elements < 4:
        raise SolverError("need at least 4 elements")
    if grading == "uniform":
        nodes = np.linspace(x_minus, x_plus, n_elements + 1)
        return Mesh(nodes=nodes)
    name, _, arg = grading.partition(":")
    try:
        ratio = float(arg)
    except ValueError:
        raise SolverError(f"bad grading '{grading}'") from None
    if not 0 < ratio < np.inf:
        raise SolverError("grading ratio must be positive and finite")
    if name == "geometric":
        w = ratio ** np.arange(n_elements)
    elif name == "center":
        half = n_elements // 2
        extra = n_elements - 2 * half
        q = ratio ** (1.0 / max(half - 1, 1))
        w_half = q ** np.arange(half)        # narrow at the center, wide outside
        w = np.concatenate([w_half[::-1], np.ones(extra) * w_half[0], w_half])
    else:
        raise SolverError(f"unknown grading '{grading}'")
    w *= (x_plus - x_minus) / w.sum()
    nodes = x_minus + np.concatenate([[0.0], np.cumsum(w)])
    nodes[-1] = x_plus    # the cumulative sum misses it by a few ulps
    return Mesh(nodes=nodes)


def _shape_tables(widths):
    """Hermite cubic shape values and x-derivatives at the panel Gauss points.

    Returns arrays (Ne, 4, 5) for derivative orders 0..2; slope shapes carry
    the element width so the unknowns are nodal (value, slope) pairs.
    """
    h = widths[:, None, None]
    fac = np.ones((len(widths), 4, 1))
    fac[:, 1::2] = h  # slope dofs scale with h
    return tuple(fac * _hermite_shapes(GL5_NODES, d) / h**d for d in range(3))


@dataclass(frozen=True)
class HermiteSpace:
    """Global C1 cubic space on a mesh; DOFs ordered (v0, s0, v1, s1, ...)."""

    mesh: Mesh

    @property
    def n_dofs(self):
        return 2 * (self.mesh.n_elements + 1)

    @property
    def quad_x(self):
        nodes = self.mesh.nodes
        return nodes[:-1, None] + self.mesh.widths[:, None] * GL5_NODES

    @property
    def dof_map(self):
        """(Ne, 4) global indices of each element's (v0, s0, v1, s1)."""
        return 2 * np.arange(self.mesh.n_elements)[:, None] + np.arange(4)

    def evaluate(self, dofs, x, deriv=0):
        """phi^(deriv)(x), a float for a scalar x: `hermite_interpolate` of
        the nodal (value, slope) DOFs, which a node reads exactly."""
        x = np.asarray(x, dtype=float)
        nodes = self.mesh.nodes
        if np.any(x < nodes[0] - 1e-12) or np.any(x > nodes[-1] + 1e-12):
            raise SolverError("evaluation outside the mesh")
        dofs = np.asarray(dofs, dtype=float)
        out = hermite_interpolate(nodes, dofs[0::2], dofs[1::2], x, deriv)
        return float(out) if x.ndim == 0 else out

    def interpolate(self, f, fprime):
        dofs = np.empty(self.n_dofs)
        dofs[0::2] = f(self.mesh.nodes)
        dofs[1::2] = fprime(self.mesh.nodes)
        return dofs


def band_to_dense(ab):
    """Full symmetric matrix of the lower band storage `ab`."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        out[i + d, i] = ab[d, :n - d]
        out[i, i + d] = ab[d, :n - d]
    return out


@dataclass(frozen=True)
class VolumeForms:
    """The lambda-independent bands of one profile on one space (module
    docstring), read-only and shared by every slice; `rho_ends` is rho0 at
    the window ends, for the endpoint blocks, and `rank` the rank of M_rho."""

    params: object
    space: HermiteSpace
    K_mu: np.ndarray
    K_rho: np.ndarray
    M_band: np.ndarray
    G_band: np.ndarray
    rho_ends: tuple
    rank: int


def assemble_volume(profile, params, space):
    """Integrate K_mu, K_rho, M_rho and G at the Gauss points, once."""
    k, mu = params.k, params.mu
    tables = _shape_tables(space.mesh.widths)
    w = space.mesh.widths[:, None] * GL5_WEIGHTS

    def band(*coeffs):  # sum over d of int coeffs[d] th^(d) rh^(d)
        ab = _scatter(space, sum(_element_form(N, c * w)
                                 for N, c in zip(tables, coeffs)))
        ab.flags.writeable = False
        return ab

    rho = np.asarray(profile.rho(space.quad_x))
    M_band = band(np.asarray(profile.drho(space.quad_x)))
    ev = eig_banded(M_band, lower=True, eigvals_only=True)
    return VolumeForms(
        params, space, band(mu * k**4, 2.0 * mu * k**2, mu),
        band(k**2 * rho, rho), M_band, band(1.0, 1.0, 1.0),
        tuple(float(profile.rho(x)) for x in (space.mesh.x_minus,
                                              space.mesh.x_plus)),
        int(np.count_nonzero(ev > max(ev[-1], 0.0) * 1e-12)))


@dataclass
class DiscreteForms:
    """Assembled matrices at one lambda, closed by the tail source's n_ij
    row at `lam`, which is not kept.

    K_band holds K(lam) in LAPACK lower band storage (4 x n_dofs, module
    docstring); M_band and G_band are the builder's shared bands, read
    through `volume`.  `K`, `M_rho` and `G` are dense copies on demand, for
    tests, `verify` and matrix dumps.  K is stored symmetrized;
    `asymmetry_norm` is the Frobenius norm of the antisymmetric part of the
    two endpoint blocks, the only source of asymmetry in the continuous form
    (nonzero only for finite-window closures of strictly increasing profiles).
    """

    lam: float
    K_band: np.ndarray
    asymmetry_norm: float
    volume: VolumeForms
    threshold: float  # mu * min(k^4, 2k^2, 1)

    @property
    def M_band(self):
        return self.volume.M_band

    @property
    def G_band(self):
        return self.volume.G_band

    @property
    def K(self):
        return band_to_dense(self.K_band)

    @property
    def M_rho(self):
        return band_to_dense(self.M_band)

    @property
    def G(self):
        return band_to_dense(self.G_band)


def _element_form(N, weight):
    """Element blocks sum_q weight[e, q] N[e, i, q] N[e, j, q], (Ne, 4, 4)."""
    return (N * weight[:, None, :]) @ N.transpose(0, 2, 1)


def _scatter(space, local):
    """Sum (Ne, 4, 4) element blocks, symmetrized, into lower band storage."""
    rows, cols = np.tril_indices(4)
    idx = space.dof_map
    ab = np.zeros((BANDWIDTH + 1, space.n_dofs))
    np.add.at(ab, (rows - cols, idx[:, cols]),
              0.5 * (local[:, rows, cols] + local[:, cols, rows]))
    return ab


def _add_endpoint(ab, j, block):
    """Add the symmetric part of a 2x2 block on DOFs (j, j + 1); returns the
    Frobenius norm of the antisymmetric part that is dropped."""
    ab[0, j] += block[0, 0]
    ab[1, j] += 0.5 * (block[1, 0] + block[0, 1])
    ab[0, j + 1] += block[1, 1]
    return float(np.sqrt(2.0) * abs(block[1, 0] - block[0, 1]))


def endpoint_block(end, n, params, rho_end, lam):
    """2x2 stiffness blocks (2, 2, ...) on the (value, slope) pair of one
    endpoint, the one definition of the endpoint form, for n_ij (4, ...) =
    (n11, n12, n21, n22) with the component axis first; lam and rho_end
    broadcast against n11.

    Rows test with (rh, rh'), columns weigh (th, th'); derived by eliminating
    th'' and th''' at the endpoint through the boundary relations.  Symmetric
    exactly when n11 + n22 + k^2 + sigma0^2 = 0, which holds identically for
    closures built from a solution pair of the first-order system (the
    combination is a conserved pairing of the flow, vanishing at infinity),
    so the recorded asymmetry defect stays at round-off for both closure
    kinds.  The right end's block is the left one's negative.
    """
    mu, k = params.mu, params.k
    n11, n12, n21, n22 = n
    block = np.array([[mu * n21, lam * rho_end + mu * n22 + 2.0 * mu * k**2],
                      [-mu * n11, -mu * n12]])
    return -block if end == "right" else block


def endpoint_derivative(volume, slopes):
    """E'(lambda) (m, 4, 4), the lambda-derivative of the symmetrized
    endpoint blocks on the DOFs (0, 1, n-2, n-1), given the slopes (m, 8) of
    the (left, right) n_ij.  `endpoint_block` is affine in (n_ij, lambda),
    so it is the block at (slopes, 1) less the block at (0, 0)."""
    par = volume.params
    dE = np.zeros((4, 4, len(slopes)))
    for j, end, rho in zip((0, 2), ("left", "right"), volume.rho_ends):
        dE[j:j + 2, j:j + 2] = (
            endpoint_block(end, slopes.T[2 * j:2 * j + 4], par, rho, 1.0)
            - endpoint_block(end, np.zeros((4, 1)), par, rho, 0.0))
    return 0.5 * (dE + dE.transpose(1, 0, 2)).transpose(2, 0, 1)


def psd_margins(block):
    """(a, c, 4ac - b^2) of the forms a th^2 + b th th' + c th'^2 of 2x2
    blocks (2, 2, ...); a form is positive semidefinite iff all are >= 0."""
    a, c = block[0, 0], block[1, 1]
    b = block[0, 1] + block[1, 0]
    return a, c, 4.0 * a * c - b * b


def assemble_forms(volume, lam, n):
    """K(lam) = K_mu + lam K_rho plus the endpoint blocks of the n_ij row
    `n` (8,), the left end's (n11, n12, n21, n22) then the right's, that a
    tail source gives at this same lam for the ends of the volume's mesh.

    The endpoint blocks are symmetrized before they are added, and their
    antisymmetric part is recorded as `asymmetry_norm`.
    """
    K_band = volume.K_mu + lam * volume.K_rho
    asym = np.hypot(*(
        _add_endpoint(K_band, j, endpoint_block(end, n_end, volume.params,
                                                rho, lam))
        for j, end, n_end, rho in zip(
            (0, 2 * volume.space.mesh.n_elements), ("left", "right"),
            (n[:4], n[4:]), volume.rho_ends)))
    k, mu = volume.params.k, volume.params.mu
    return DiscreteForms(lam=float(lam), K_band=K_band,
                         asymmetry_norm=float(asym), volume=volume,
                         threshold=mu * min(k**4, 2.0 * k**2, 1.0))


def dump_forms(forms, path):
    """Text dump of the assembled matrices as (name, row, col, value) rows.

    Debug aid for external verification; zeros are skipped.
    """
    with open(path, "w") as fh:
        fh.write(f"# lambda = {forms.lam:.17g}\n")
        for name, mat in (("K", forms.K), ("M_rho", forms.M_rho),
                          ("G", forms.G)):
            rows, cols = np.nonzero(mat)
            for i, j in zip(rows, cols):
                fh.write(f"{name} {i} {j} {mat[i, j]:.17g}\n")


def coercivity_check(forms):
    """Margin of the discrete lower bound K >= mu*min(k^4, 2k^2, 1)*G.

    Returns eta_min - threshold, eta_min the smallest generalized eigenvalue
    of (K, G); raises if it dips below the round-off allowance -1e-8*||K||_2.
    Because G is positive definite, the banded Cholesky factorization of
    K - s G succeeds exactly when s < eta_min (Sylvester's law of inertia),
    so eta_min is bisected to COERCIVITY_RTOL between the threshold (or a
    point below it, when the margin is negative) and the smallest diagonal
    ratio K_ii / G_ii, a Rayleigh quotient and hence an upper bound.  The
    returned margin is the bisection's lower end, so it is nonnegative
    exactly when K - threshold*G factors.
    """
    K, G = forms.K_band, forms.G_band

    def definite(s):
        return dpbtrf(K - s * G, lower=1)[1] == 0

    thr = forms.threshold
    lo, hi = thr, float(np.min(K[0] / G[0]))
    if not (lo < hi and definite(lo)):
        hi = min(lo, hi)
        step = 1e-8 * max(1.0, abs(thr))
        while not definite(thr - step):
            hi = thr - step
            step *= 16.0
            if not np.isfinite(step):  # only for non-finite K or G
                raise SolverError("coercivity bisection found no shift s "
                                  "with K - s G positive definite")
        lo = thr - step
    while hi - lo > COERCIVITY_RTOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if definite(mid):
            lo = mid
        else:
            hi = mid
    margin = float(lo - thr)
    if margin < 0.0:
        knorm = float(np.abs(eig_banded(K, lower=True,
                                        eigvals_only=True)).max())
        if margin < -1e-8 * knorm:
            mesh = forms.volume.space.mesh
            raise CoercivityError(
                f"coercivity failed at lambda={forms.lam:.6g}: margin "
                f"{margin:.3e} (mesh ends x={mesh.x_minus:.4g}, "
                f"{mesh.x_plus:.4g})")
    return margin


def gauss_points(breaks):
    """10-point Gauss-Legendre nodes and weights on the cells between the
    sorted breakpoints (repeated breakpoints give zero-weight cells)."""
    breaks = np.array(sorted(breaks))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halves = 0.5 * np.diff(breaks)
    xq = (mids[:, None] + halves[:, None] * _GL10_X[None, :]).ravel()
    wq = (halves[:, None] * _GL10_W[None, :]).ravel()
    return xq, wq


def whole_line_identity_check(mode, profile, params, test_space, test_dofs):
    """Defect of the whole-line weak form against its reduced-window split.

    LHS integrates lam*rho0(k^2 phi th + phi' th') + mu(phi'' th''
    + 2k^2 phi' th' + k^4 phi th) over the support of the test function,
    with phi evaluated from the glued global mode.  RHS assembles the same
    volume integrand inside the window plus the endpoint forms built from
    the boundary coefficients, plus the gravity correction
    int (g k^2 rho0'/lam) phi th outside the window.  Both sides agree for a
    true bounded solution; the relative defect measures gluing and closure
    consistency end to end.
    """
    lam = mode.lam
    k, mu, g = params.k, params.mu, params.g
    w_lo, w_hi = test_space.mesh.x_minus, test_space.mesh.x_plus
    x_lo, x_hi = mode.x_minus, mode.x_plus

    breaks = set(test_space.mesh.nodes.tolist())
    breaks.update(t for t in mode.space.mesh.nodes.tolist() if w_lo < t < w_hi)
    breaks.update([x_lo, x_hi, w_lo, w_hi])
    xq, wq = gauss_points(b for b in breaks if w_lo <= b <= w_hi)

    phi, dphi, d2phi, _ = mode.eval(xq)
    th = test_space.evaluate(test_dofs, xq, 0)
    dth = test_space.evaluate(test_dofs, xq, 1)
    d2th = test_space.evaluate(test_dofs, xq, 2)
    rho = np.asarray(profile.rho(xq))
    drho = np.asarray(profile.drho(xq))

    integrand = (lam * rho * (k**2 * phi * th + dphi * dth)
                 + mu * (d2phi * d2th + 2 * k**2 * dphi * dth
                         + k**4 * phi * th))
    lhs = float((wq * integrand).sum())

    inside = (xq >= x_lo) & (xq <= x_hi)
    volume = float((wq[inside] * integrand[inside]).sum())
    correction = float((wq[~inside] * (g * k**2 * drho[~inside] / lam)
                        * phi[~inside] * th[~inside]).sum())

    bv = 0.0
    for end, x_e, n in (("left", x_lo, mode.bc[:4]),
                        ("right", x_hi, mode.bc[4:])):
        if not w_lo <= x_e <= w_hi:
            continue
        p, dp, _, _ = mode.eval(x_e)
        t0 = float(test_space.evaluate(test_dofs, x_e, 0))
        t1 = float(test_space.evaluate(test_dofs, x_e, 1))
        block = endpoint_block(end, n, params, float(profile.rho(x_e)), lam)
        bv += float(np.array([t0, t1]) @ block @ np.array([p, dp]))

    rhs = volume + bv + correction
    scale = max(abs(lhs), 1e-300)
    return abs(lhs - rhs) / scale
