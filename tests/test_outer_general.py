import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from rtspect import outer_general as og
from rtspect.assembly import endpoint_block, psd_margins
from rtspect.errors import (BracketError, CoercivitySearchError, SolverError,
                            TruncationError)
from rtspect.evans import find_roots
from rtspect.modes import gluing_jumps
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import (GL5_NODES, GL5_WEIGHTS, INCREASING,
                               DensityProfile, PhysicalParams, make_profile,
                               profile_bounds)
from rtspect.spectrum import SCAN_POINTS, exponential_closure, mode_count

# frozen regression values (tanh 1..3, ell=1, g=mu=k=1)
GAMMA_M_EPS001 = 15360.215415
WINDOW_X_EPS001 = 5.768323
WINDOW_X_EPS01 = 3.468928


@pytest.fixture(scope="module")
def ctx(tanh_profile, params, tanh_bounds):
    eps = 0.01 * tanh_bounds.lambda_max
    gb = og.gamma_bounds(tanh_profile, params, eps, tanh_bounds)
    setup = og.truncation_points(tanh_profile, params, gb)
    eng = og.OuterSolutions(tanh_profile, params, setup)
    return tanh_profile, params, tanh_bounds, eps, gb, setup, eng


def test_eigenvalues_of_L(ctx):
    prof, par, *_ = ctx
    sm = og.system_matrices(prof, par, 0.4, 0.6)
    ev = np.sort(np.linalg.eigvals(sm.L).real)
    expect = np.sort([-par.k, -sm.sigma0, par.k, sm.sigma0])
    assert ev == pytest.approx(expect, rel=1e-10)


def test_P_inverse_identity():
    prof = make_profile("tanh", rho_minus=1.5, rho_plus=2.5, ell=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    x = float(np.arctanh(0.0))  # rho0 = 2 at the center
    sm = og.system_matrices(prof, par, x, 1.0)
    assert sm.sigma0 == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert np.abs(sm.P @ sm.Pinv - np.eye(4)).max() <= 1e-12


def test_R_single_row(ctx):
    prof, par, *_ = ctx
    sm = og.system_matrices(prof, par, 0.0, 0.5)
    R = sm.R
    assert R[3, 0] == pytest.approx(par.g * par.k**2 / (0.5 * par.mu))
    assert R[3, 1] == pytest.approx(0.5 / par.mu)
    R2 = R.copy()
    R2[3] = 0.0
    assert np.all(R2 == 0.0)


def test_diagonalization_identity(ctx):
    prof, par, *_ = ctx
    for x in (-2.0, 0.0, 1.5):
        for lam in (0.01, 0.3, 0.7):
            sm = og.system_matrices(prof, par, x, lam)
            err = np.linalg.norm(sm.L - sm.P @ sm.D @ sm.Pinv, "fro")
            assert err <= 1e-10 * np.linalg.norm(sm.L, "fro")


def test_coupling_matrix_against_brute_force(ctx):
    # V' = (D + rho0' M) V must match P^-1 (L + rho0' R) P - P^-1 P' - D
    prof, par, *_ = ctx
    x, lam, h = 0.3, 0.45, 1e-6
    sm = og.system_matrices(prof, par, x, lam)
    drho = float(prof.drho(x))
    Pp = (og.system_matrices(prof, par, x + h, lam).P
          - og.system_matrices(prof, par, x - h, lam).P) / (2 * h)
    brute = sm.Pinv @ (sm.L + drho * sm.R) @ sm.P - sm.Pinv @ Pp - sm.D
    assert np.abs(brute - drho * sm.M).max() <= 1e-8


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_coupling_matrix_matches_its_factors(ctx, sign):
    # the closed form of M against the product P^-1 R P
    # - (lam / (2 mu sigma0)) P^-1 dP/dsigma0 of the full matrices, on a
    # (panels, nodes, lambdas) grid shaped like the outer solve's
    prof, par, *_ = ctx
    rho = np.asarray(prof.rho(np.linspace(-4.0, 4.0, 15))).reshape(3, 5, 1)
    lam = np.array([0.007, 0.1, 0.7])
    sig = og._sigma0(rho, par, lam)
    Pinv = og._matrix_Pinv(sig, rho, par, lam)
    ref = (Pinv @ og._matrix_R(par, lam, sign) @ og._matrix_P(sig, par)
           - (lam / (2.0 * par.mu * sig))[..., None, None]
           * (Pinv @ og._matrix_dPdsig(sig)))
    M = np.moveaxis(og._matrix_M(rho, par, lam, sign), (0, 1), (-2, -1))
    assert M.shape == (3, 5, 3, 4, 4)
    assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()


def test_transformed_gravity_block_structure(ctx):
    # P^-1 R P entries follow (gk +- lam^2), (gk^2/sigma +- lam^2) scalings
    prof, par, *_ = ctx
    x, lam = 0.2, 0.5
    sm = og.system_matrices(prof, par, x, lam)
    rho = float(prof.rho(x))
    sig = sm.sigma0
    core = sm.Pinv @ sm.R @ sm.P
    a_m = par.g * par.k - lam**2
    a_p = par.g * par.k + lam**2
    b_m = par.g * par.k**2 / sig - lam**2
    pref = 1.0 / (2 * lam**2 * rho)
    assert core[0, 0] == pytest.approx(pref * a_m, rel=1e-12)
    assert core[0, 2] == pytest.approx(-pref * a_p, rel=1e-12)
    assert core[0, 1] == pytest.approx(pref * par.k**2 * b_m / sig**2, rel=1e-12)
    assert core[2, 0] == pytest.approx(core[0, 0], rel=1e-12)  # rows repeat
    assert core[1, 1] == pytest.approx(-pref * b_m, rel=1e-12)


def test_gamma_p_values(tanh_profile, tanh_bounds):
    # the bounds depend on g alone, and g = 1 throughout
    gb1 = og.gamma_bounds(tanh_profile, PhysicalParams(g=1, mu=1, k=1.0), 0.01,
                          tanh_bounds)
    assert gb1.Gamma_p == 1.0
    gbh = og.gamma_bounds(tanh_profile, PhysicalParams(g=1, mu=1, k=0.5), 0.01,
                          tanh_bounds)
    assert gbh.Gamma_p == 8.0


def test_gamma_m_regression(tanh_profile, params, tanh_bounds):
    gb = og.gamma_bounds(tanh_profile, params, 0.01, tanh_bounds)
    assert gb.Gamma_m == pytest.approx(GAMMA_M_EPS001, rel=1e-6)
    assert gb.delta_eps < gb.delta_s


def test_truncation_points_tanh_inversion(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    # rho_plus - rho0(x) = (rho_plus - rho_minus)(1 - tanh x)/2 inverts in
    # closed form at the margin level
    margin = og.TRUNCATION_MARGIN
    target = 1.0 - 2.0 * margin / (gb.Gamma_m * (prof.rho_plus - prof.rho_minus))
    assert 0 < target < 1
    assert setup.x_tilde_plus == pytest.approx(np.arctanh(target), rel=1e-6)
    assert gb.Gamma_m * (prof.rho_plus - prof.rho(setup.x_tilde_plus)) <= margin * (1 + 1e-9)
    assert gb.Gamma_m * (prof.rho_plus - prof.rho(setup.X_max)) <= 1.1e-10


def test_truncation_moves_out_with_gamma_m(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    import dataclasses
    gb2 = dataclasses.replace(gb, Gamma_m=2 * gb.Gamma_m)
    setup2 = og.truncation_points(prof, par, gb2)
    assert setup2.x_tilde_plus > setup.x_tilde_plus


def test_slow_approach_to_the_limits_is_a_truncation_error(params):
    # rho0 - rho_limit ~ (2/pi)/|x|: within 1e-8 of the jump only at
    # |x| ~ 3e7, past the level search's 1e6 scales
    rho = lambda x: 2.0 + (2.0 / math.pi) * np.arctan(x)
    drho = lambda x: (2.0 / math.pi) / (1.0 + np.asarray(x, dtype=float)**2)
    prof = DensityProfile(INCREASING, rho, drho, 1.0, 3.0)
    with pytest.raises(TruncationError, match="too slowly"):
        profile_bounds(prof, params)
    # with Gamma_m = 1, x_tilde (margin 0.3) is near 2 and X, the
    # TAIL_DROP level, near 6e9
    gb = og.GammaBounds(eps_star=0.01, delta_eps=1.0, delta_s=2.0,
                        Gamma_p=1.0, Gamma_m=1.0, lambda_max=1.0)
    with pytest.raises(TruncationError, match="too slowly"):
        og.truncation_points(prof, params, gb)


def test_empty_truncation_window_says_lower_eps_star():
    # Gamma_m |rho_limit - rho0| is within the margin at x = 0 on both
    # sides, so both truncation points are 0; this build used to fail in
    # the Picard solve with "contraction ratio 0.577 > 1/2"
    prof = make_profile("tanh", rho_minus=1.0, rho_plus=1.1, ell=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=0.1)
    eps = 0.9 * profile_bounds(prof, par).lambda_max
    with pytest.raises(TruncationError,
                       match="empty truncation window.*lower eps_star"):
        Pipeline(prof, par, SolverOptions(n_elements=64, eps_star=eps)).build()


def test_margin_must_stay_below_half():
    assert 0.0 < og.TRUNCATION_MARGIN < 0.5


def _recurrence_prefix(psi_n, psi_e, f_n, widths, rule=og._S_PARTIAL):
    """The per-panel recurrence J(top) = exp(-rise) J(bottom) + panel
    integral, the reference for the blocked scan; every exponent is a phase
    difference within one panel.  rule integrates from a panel's bottom
    edge to its nodes."""
    shape = (-1,) + (1,) * (f_n.ndim - 2)
    w = widths.reshape(shape)
    to_top = np.exp(-(psi_e[1:, None] - psi_n))
    G = to_top * f_n
    full = w * np.einsum("q,pq...->p...", GL5_WEIGHTS, G)
    partial = w[:, None] * np.einsum("rq,pq...->pr...", rule, G)
    C = np.zeros((f_n.shape[0] + 1,) + f_n.shape[2:])
    for p in range(f_n.shape[0]):
        C[p + 1] = np.exp(-(psi_e[p + 1] - psi_e[p])) * C[p] + full[p]
    J_n = (np.exp(-(psi_n - psi_e[:-1, None])) * C[:-1, None]
           + partial / to_top)
    return J_n, C


def _recurrence_suffix(psi_n, psi_e, f_n, widths, rule=og._S_PARTIAL):
    J_n, J_e = _recurrence_prefix(-psi_n[::-1, ::-1], -psi_e[::-1],
                                  f_n[::-1, ::-1], widths[::-1], rule)
    return J_n[::-1, ::-1], J_e[::-1]


def _fixture_phases(ctx):
    # the Picard kernels' phases on the fixture's right half line at three
    # lambdas: (P, 5, 3, 8) at the nodes and (P + 1, 3, 8) at the edges
    prof, par, pb, eps, gb, setup, eng = ctx
    hl = setup.right
    nodes = og._nodes(hl.samples)
    sig = og._sigma0(np.asarray(prof.rho(nodes))[..., None], par,
                     np.array([eps, 0.1, pb.lambda_max]))
    beta_e = np.concatenate([np.zeros((1, 3)), np.cumsum(
        hl.widths[:, None] * (GL5_WEIGHTS @ sig), axis=0)])
    beta_n = (beta_e[:-1, None]
              + hl.widths[:, None, None] * (og._S_PARTIAL @ sig))
    alpha_n = par.k * (nodes - hl.edges[0])
    alpha_e = par.k * (hl.edges - hl.edges[0])
    psi_n = (og._KERNEL_CA * alpha_n[..., None, None]
             + og._KERNEL_CB * beta_n[..., None])
    psi_e = (og._KERNEL_CA * alpha_e[:, None, None]
             + og._KERNEL_CB * beta_e[..., None])
    return psi_n, psi_e, hl.widths


def _steep_phases():
    # 600 unit panels rising by 2.5 each: a span of 1500, past exp's range
    edges = np.arange(601.0)
    nodes = edges[:-1, None] + GL5_NODES
    rate = np.array([2.5, 1.0])
    return rate * nodes[..., None], rate * edges[:, None], np.ones(600)


def _on_samples(at_nodes, at_edges):
    """Node values (P, 5, ...) and edge values (P + 1, ...) in the layout of
    a half line's samples (6P + 1, ...)."""
    out = np.empty((6 * at_nodes.shape[0] + 1,) + at_edges.shape[1:])
    out[::6] = at_edges
    og._nodes(out)[...] = at_nodes
    return out


@pytest.mark.parametrize("grid", ("fixture", "steep"))
def test_blocked_scans_match_the_recurrence(ctx, grid):
    psi_n, psi_e, widths = (_fixture_phases(ctx) if grid == "fixture"
                            else _steep_phases())
    n_blocks = og._scan_blocks(psi_e).size - 1
    span = (psi_e[-1] - psi_e[0]).max()
    if grid == "fixture":
        assert n_blocks == 1
    else:
        assert n_blocks >= 3 and span > math.log(np.finfo(float).max)
    rng = np.random.default_rng(7)
    f_n = rng.standard_normal(psi_n.shape) * (1.0 + psi_n / span)
    psi = _on_samples(psi_n, psi_e)
    for scan, weights, reference in (
            (og._scan_prefix, og._scan_weights, _recurrence_prefix),
            (og._scan_suffix, og._suffix_weights, _recurrence_suffix)):
        got = scan(weights(psi), f_n, widths)
        want = _on_samples(*reference(psi_n, psi_e, f_n, widths))
        # the recurrence's error bound: eps times the sum of |terms|, whose
        # weights include the partial rule's negative ones
        bound = _on_samples(*reference(psi_n, psi_e, np.abs(f_n), widths,
                                       np.abs(og._S_PARTIAL)))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-13 * bound)


def test_pair_samples_are_panel_edges_and_gauss_nodes(ctx):
    # `_closure_at` and `outer-coeffs` read n_ij at panel edges, xs[::6]
    prof, par, pb, eps, gb, setup, eng = ctx
    sols = eng.solve(pb.lambda_max)
    for hl in (setup.right, setup.left):
        xs = sols[hl.side].xs
        edges = hl.edges if hl.sign > 0 else -hl.edges[::-1]
        assert np.array_equal(xs[::6], edges)
        gauss = edges[:-1, None] + np.diff(edges)[:, None] * GL5_NODES
        assert np.abs(xs[:-1].reshape(-1, 6)[:, 1:] - gauss).max() <= (
            1e-13 * np.abs(edges).max())


@pytest.mark.parametrize("k, mu, rho_plus", ((0.3, 0.05, 10.0),
                                             (3.0, 0.05, 1.2),
                                             (1.0, 1.0, 10.0),
                                             (10.0, 0.05, 10.0)))
def test_off_fixture_panels_roots_and_modes(k, mu, rho_plus, monkeypatch):
    # off the fixture the geometric grading's widest panel breaks the cap
    # w_cap = 1.5/(k + delta_s) in the first two cases; (1, 1, 10) keeps it.
    # At (10, 0.05, 10) the kernel phases rise by more than twice
    # SCAN_BLOCK_PHASE over a half line, so the panel scans run in blocks
    n_blocks = []
    scan_blocks = og._scan_blocks

    def counted(psi_e):
        starts = scan_blocks(psi_e)
        n_blocks.append(starts.size - 1)
        return starts

    monkeypatch.setattr(og, "_scan_blocks", counted)
    prof = make_profile("tanh", rho_minus=1.0, rho_plus=rho_plus, ell=1.0)
    par = PhysicalParams(g=1.0, mu=mu, k=k)
    pipe = Pipeline(prof, par, SolverOptions(n_elements=64)).build()
    if k == 10.0:
        assert max(n_blocks) >= 3
    w_cap = 1.5 / (k + pipe.gbounds.delta_s)
    for hl in (pipe.setup.right, pipe.setup.left):
        assert hl.widths.min() > 0.0 and hl.widths.max() <= w_cap
    pt = max(pipe.solve_mode_index(1), key=lambda p: p.lam)
    assert max(gluing_jumps(pipe.mode(pt)).values()) <= 1e-6
    scan = np.linspace(max(pipe.eps_star, 0.5 * pt.lam),
                       min(1.5 * pt.lam, 0.999 * pipe.bounds.lambda_max), 17)
    roots = find_roots(prof, par, scan, tol=1e-8)
    assert min(abs(r / pt.lam - 1.0) for r in roots) <= 1e-4


# tanh sweep cases (rho_minus = ell = 1, 128 elements) that once stopped
# with "not resolved by 257 Chebyshev points": the fit then asked its
# coefficient tails for an accuracy below the Picard noise
SWEEP_ROOTS = ((3.0, 1.0, 1.2), (3.0, 10.0, 10.0), (10.0, 0.05, 1.2),
               (10.0, 1.0, 10.0))
# f_1 < 0 on the whole scan: lambda_1 lies below eps_star
SWEEP_BELOW_EPS_STAR = ((3.0, 10.0, 1.2), (10.0, 1.0, 1.2), (10.0, 10.0, 1.2),
                        (10.0, 10.0, 10.0))


def _sweep_pipe(k, mu, rho_plus):
    prof = make_profile("tanh", rho_minus=1.0, rho_plus=rho_plus, ell=1.0)
    par = PhysicalParams(g=1.0, mu=mu, k=k)
    return Pipeline(prof, par, SolverOptions(n_elements=128)).build()


def _assert_certified_count(pipe):
    # the certified count reads the top slice; the 64-point scan agrees
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, SCAN_POINTS)
    assert pipe.monotone
    assert pipe.count_modes().N == mode_count(pipe.builder, pipe.eps_star,
                                              grid).N


@pytest.mark.parametrize("k, mu, rho_plus", SWEEP_ROOTS)
def test_sweep_roots_glue_and_match_the_oracle(k, mu, rho_plus):
    pipe = _sweep_pipe(k, mu, rho_plus)
    pts = pipe.solve_mode_index(1)     # every root passes the fit's check
    assert pts
    for pt in pts:
        assert max(gluing_jumps(pipe.mode(pt)).values()) <= 1e-6
        scan = np.linspace(max(pipe.eps_star, 0.5 * pt.lam),
                           min(1.5 * pt.lam, 0.999 * pipe.bounds.lambda_max),
                           17)
        roots = find_roots(pipe.profile, pipe.params, scan, tol=1e-8)
        assert min(abs(r / pt.lam - 1.0) for r in roots) <= 1e-4
    _assert_certified_count(pipe)


@pytest.mark.parametrize("k, mu, rho_plus", SWEEP_BELOW_EPS_STAR)
def test_sweep_roots_below_eps_star_are_reported(k, mu, rho_plus):
    pipe = _sweep_pipe(k, mu, rho_plus)
    with pytest.raises(BracketError, match="eps_star"):
        pipe.solve_mode_index(1)
    _assert_certified_count(pipe)


def test_picard_contraction_and_updates(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    for lam in (eps, pb.lambda_max):
        sols = eng.solve(lam)
        for side in ("right", "left"):
            for u in sols[side].updates:
                assert u[0] <= 1.0 + 1e-12
                for j in range(1, len(u)):
                    if u[j - 1] > og.UPDATE_FLOOR:
                        assert u[j] <= (0.5 + 1e-6) * u[j - 1]
                # cumulative halving of the update norms
                for j, uj in enumerate(u[:-1]):
                    assert uj <= 0.5**(j - 1) * (1 + 1e-9)


def test_batched_solve_matches_batch_of_one(ctx):
    # eps_star takes about three times the Picard iterations of sqrt(g/L0),
    # so the lambdas of one batch leave the iteration at different rounds
    prof, par, pb, eps, gb, setup, eng = ctx
    lams = np.array([eps, 0.05, 0.3, pb.lambda_max])
    n_cached = len(eng._cache)
    batch = eng.solve(lams)
    assert len(eng._cache) == n_cached      # batches are not cached
    assert len(batch) == lams.size
    for lam, sols in zip(lams, batch):
        one = eng.solve(float(lam))
        for side in ("right", "left"):
            s, ref = sols[side], one[side]
            assert s.lam == ref.lam
            assert np.array_equal(s.xs, ref.xs)
            for j in range(2):          # slow, then fast solution
                assert np.abs(s.normalized[:, j] - ref.normalized[:, j]).max() \
                    <= 1e-14 * np.abs(ref.normalized[:, j]).max()
                assert np.abs(s.phase[:, j] - ref.phase[:, j]).max() <= \
                    1e-14 * np.abs(ref.phase[:, j]).max()
                assert s.limit[j] == pytest.approx(ref.limit[j], rel=1e-15)
                assert len(s.updates[j]) == len(ref.updates[j])
                assert np.abs(np.subtract(s.updates[j],
                                          ref.updates[j])).max() <= 1e-15


def test_limits_and_wronskian(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    lam = 0.3
    sols = eng.solve(lam)
    right, left = sols["right"], sols["left"]
    u1, u2 = right.normalized[:, 0], right.normalized[:, 1]
    k, mu = par.k, par.mu
    sig_p = math.sqrt(k**2 + lam * prof.rho_plus / mu)
    det = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
    target = -lam * prof.rho_plus / (mu * k**3 * sig_p**3 * (k + sig_p))
    assert det[-1] == pytest.approx(target, rel=1e-9)
    # phase-normalized samples approach the documented limit 4-vectors
    assert u2[-1] == pytest.approx(right.limit[1], abs=1e-12)
    u3, u4 = left.normalized[:, 0], left.normalized[:, 1]
    assert u4[0] == pytest.approx(left.limit[1], abs=1e-12)
    assert np.abs(u3[0] - left.limit[0]).max() <= 0.2  # in-span drift only


def _stacked(pair):
    return np.concatenate([pair.normalized, pair.phase[..., None]], axis=-1)


def test_pair_interpolant_reads_the_samples_exactly(ctx):
    # every sample (panel edges and window ends among them) gives back its
    # stored values, and its slopes are the pair's own slope table
    prof, par, pb, eps, gb, setup, eng = ctx
    for side, pair in eng.solve(0.3).items():
        assert np.array_equal(pair.samples_at(pair.xs), _stacked(pair))
        assert np.array_equal(pair.samples_at(pair.xs, 1), pair._slopes)
        x_end = setup.x_tilde_plus if side == "right" else setup.x_tilde_minus
        i = np.searchsorted(pair.xs, x_end)
        assert pair.xs[i] == x_end
        assert np.array_equal(pair.samples_at(x_end), _stacked(pair)[i])


def test_pair_slopes_are_the_system_right_hand_side(ctx):
    # d/dx (e^phase U) = (phase' + L(rho0) + rho0' R) e^phase U, written
    # out here from the mode equation's companion row, phase' = +-(k,
    # sigma0) on the right and left sides
    prof, par, pb, eps, gb, setup, eng = ctx
    lam = 0.3
    k, mu, g = par.k, par.mu, par.g
    for side, pair in eng.solve(lam).items():
        sign = 1.0 if side == "right" else -1.0
        rho, drho = prof.rho(pair.xs), prof.drho(pair.xs)
        rate = sign * np.stack([np.full_like(rho, k),
                                np.sqrt(k * k + lam * rho / mu)], axis=-1)
        u = pair.normalized
        last = ((-lam * k * k * rho / mu - k**4
                 + drho * g * k * k / (lam * mu))[:, None] * u[..., 0]
                + (drho * lam / mu)[:, None] * u[..., 1]
                + (lam * rho / mu + 2 * k * k)[:, None] * u[..., 2])
        du = (np.concatenate([u[..., 1:], last[..., None]], axis=-1)
              + rate[..., None] * u)
        slopes = pair.samples_at(pair.xs, 1)
        assert np.array_equal(slopes[..., 4], rate)
        # the slopes are small differences of O(rate * u) terms
        assert np.abs(slopes[..., :4] - du).max() <= \
            1e-14 * np.abs(rate[..., None] * u).max()


def test_pair_interpolant_matches_a_cubic_spline(ctx):
    # the C1 Hermite interpolant and scipy's not-a-knot cubic spline of the
    # same samples are both fourth order; here they differ by at most
    # 1.9e-14 in values and 7.5e-12 in slopes, relative to each column's
    # largest value (at least 1)
    prof, par, pb, eps, gb, setup, eng = ctx
    for lam in (eps, 0.3):
        for pair in eng.solve(lam).values():
            spline = CubicSpline(pair.xs, _stacked(pair))
            xs = np.linspace(pair.xs[0], pair.xs[-1], 1001)
            for nu, bound in ((0, 1e-13), (1, 1e-10)):
                ref = spline(xs, nu)
                size = np.maximum(np.abs(ref).max(axis=0), 1.0)
                assert (np.abs(pair.samples_at(xs, nu) - ref)
                        <= bound * size).all()


def _raw(pair, x):
    """U(x) = e^{-phase(x)} normalized(x) of both solutions, (2, 4)."""
    v = pair.samples_at(x)
    return np.exp(-v[..., 4])[..., None] * v[..., :4]


def test_solutions_satisfy_the_system(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    lam = 0.3
    sols = eng.solve(lam)
    h = 1e-5
    # the left pair is built on the mirrored problem (t = -x, g -> -g);
    # in x all four must solve the original system
    for side, x_tilde, out in (("right", setup.x_tilde_plus, 1.0),
                               ("left", setup.x_tilde_minus, -1.0)):
        pair = sols[side]
        for x in x_tilde + out * np.linspace(0.5, 3, 5):
            sm = og.system_matrices(prof, par, x, lam)
            slopes = (_raw(pair, x + h) - _raw(pair, x - h)) / (2 * h)
            for U, dU in zip(_raw(pair, x), slopes):
                rhs = (sm.L + float(prof.drho(x)) * sm.R) @ U
                assert np.abs(dU - rhs).max() <= 1e-8 * max(np.abs(rhs).max(), 1e-30)


def test_boundary_coeff_limits(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    lam = 0.4
    sols = eng.solve(lam)
    k, mu = par.k, par.mu
    sig_m = math.sqrt(k * k + lam * prof.rho_minus / mu)
    sig_p = math.sqrt(k * k + lam * prof.rho_plus / mu)
    right = og._closure_at([sols["right"]], setup.X_max)[0]
    assert right == pytest.approx(exponential_closure("right", k, sig_p),
                                  abs=1e-9)
    left = og._closure_at([sols["left"]], setup.X_min)[0]
    assert left == pytest.approx(exponential_closure("left", k, sig_m),
                                 abs=1e-9)


def test_limit_discriminant_closed_form():
    # k=1, sigma+=2: (n11 - n22 - k^2 - sigma^2)^2 + 4 n12 n21 = -56
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    n = exponential_closure("right", par.k, 2.0)
    n11, n12, n21, n22 = n
    disc = (n11 - n22 - 1.0 - 4.0)**2 + 4 * n12 * n21
    assert disc == pytest.approx(-56.0)
    assert disc == pytest.approx(-4 * 1.0 * 2.0 * (1 + 2 + 4))
    # sigma0^2 = k^2 + lam rho / mu = 4 at lam = 1, rho = 3
    margins = psd_margins(endpoint_block("right", n, par, 3.0, 1.0))
    assert min(margins) > 0
    assert -margins[2] == pytest.approx(disc)


def test_left_end_sign_pattern_mirrors():
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    n = exponential_closure("left", par.k, 2.0)
    n11, n12, n21, n22 = n
    assert n12 < 0 < n21
    margins = psd_margins(endpoint_block("left", n, par, 3.0, 1.0))
    assert min(margins) > 0
    # direct positive semidefiniteness probes (1,0) and (0,1) plus the
    # discriminant agree with the margin tests
    A, C, neg_disc = margins
    for th, dth in ((1.0, 0.0), (0.0, 1.0), (0.7, -1.3)):
        bv = A * th**2 + C * dth**2
        bv_cross = (n22 - n11 + 1.0 + 4.0) * th * dth
        assert bv + bv_cross >= -1e-12 or neg_disc < 0  # PSD certificate


def test_general_matches_compact_formulas_far_out(ctx):
    # at an endpoint where the profile sits within 1e-9 of its limits the
    # general coefficients agree with the closed compact formulas evaluated
    # with tau from rho0(x_end)
    prof, par, pb, eps, gb, setup, eng = ctx
    lam = 0.25
    sols = eng.solve(lam)
    x_end = setup.X_max
    assert prof.rho_plus - float(prof.rho(x_end)) < 1e-9
    right = og._closure_at([sols["right"]], x_end)[0]
    tau = math.sqrt(par.k**2 + lam * float(prof.rho(x_end)) / par.mu)
    ref = exponential_closure("right", par.k, tau)
    for a, b in zip(right, ref):
        assert abs(a - b) <= 1e-6 * max(abs(b), 1.0)


def test_closure_reads_samples_and_builds_no_spline(tanh_profile, params):
    # the window ends are panel edges, so the root search reads the stored
    # samples and builds no interpolant (no slopes) of the cached solutions
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64))
    pipe.dispersion(3)
    cached = [pair for sides in pipe.engine._cache.values()
              for pair in sides.values()]
    assert cached and all(pair._slopes is None for pair in cached)
    pair = pipe.engine.solve(0.3)["right"]
    x_plus = pipe.window[1]
    for x in (np.nextafter(x_plus, math.inf), pair.xs[-1] + 1.0):
        with pytest.raises(SolverError):
            og._closure_at([pair], x)


def _pair_closed_by(side, x, n):
    """A decaying pair sampled at x alone whose closure there is
    n = (n11, n12, n21, n22): its rows (phi, phi', phi'', phi''') are
    (1, 0, -n11, -n21) and (0, 1, -n12, -n22)."""
    n11, n12, n21, n22 = n
    rows = ((1.0, 0.0, -n11, -n21), (0.0, 1.0, -n12, -n22))
    return og.DecayingPair(
        side=side, lam=1.0, xs=np.array([x]), normalized=np.array([rows]),
        phase=np.zeros((1, 2)), limit=np.zeros((2, 4)), updates=((), ()),
        profile=None, params=None)


def test_closure_rejects_a_dependent_pair():
    xs = np.array([0.0, 1.0, 2.0])
    slow = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                     [1.0, -1.0, 0.5, 2.0]])
    # at x = 1 the fast (phi, phi') row is 3 times the slow one
    fast = np.array([[1.0, 2.5, 3.0, 4.0], [3.0, 6.0, 3.0, 4.0],
                     [1.0, 2.0, 0.5, 2.0]])
    pair = og.DecayingPair(
        side="right", lam=1.0, xs=xs, normalized=np.stack([slow, fast], axis=1),
        phase=np.zeros((3, 2)), limit=np.zeros((2, 4)), updates=((), ()),
        profile=None, params=None)
    for x in (1.0, xs):
        with pytest.raises(SolverError, match="nearly dependent at x=1"):
            og._closure_at([pair], x)
    # elsewhere both relations annihilate both solutions
    for i in (0, 2):
        n = og._closure_at([pair], xs[i])[0].reshape(2, 2)
        for u in (slow[i], fast[i]):
            assert n @ u[:2] + u[2:] == pytest.approx([0.0, 0.0], abs=1e-14)


def test_coercive_window_is_the_truncation_points(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    (xm, xp), rows = og.coercive_window(prof, par, setup, eng)
    assert (xm, xp) == (setup.x_tilde_minus, setup.x_tilde_plus)
    # its rows are the one-lambda closures at those points, bit for bit
    lams = og._fit_lambdas(eng.lam_range, np.arange(17), 16)
    batch = eng.solve(lams)
    direct = [np.concatenate([og._closure_at([sols["left"]], xm)[0],
                              og._closure_at([sols["right"]], xp)[0]])
              for sols in batch]
    assert rows.shape == (17, 8)
    assert np.array_equal(rows, direct)

    # and the reference: one point's two 2x2 solves, one vector each
    def one_point(pair, x):
        ra, rb = pair.normalized[np.searchsorted(pair.xs, x)]
        A = np.array([ra[:2], rb[:2]])
        return [*np.linalg.solve(A, -np.array([ra[2], rb[2]])),
                *np.linalg.solve(A, -np.array([ra[3], rb[3]]))]

    ref = [one_point(sols["left"], xm) + one_point(sols["right"], xp)
           for sols in batch]
    assert np.array_equal(rows, ref)


def _exact_tail_engine(ctx):
    """A stub engine class that closes both ends with the exact tails at
    sigma0 there (every margin positive).  In the `bad`-th lambda of a
    batch it puts n21 > 0 at the right end, where A = -n21 < 0; in the
    `bent`-th it lowers n21 there by `depth`, which only adds to A."""
    prof, par, *_, setup, eng = ctx
    xm, xp = setup.x_tilde_minus, setup.x_tilde_plus

    class Stub:
        lam_range = eng.lam_range
        profile, params = prof, par
        bad = bent = None
        depth = 0.0

        def solve(self, lams):
            out = []
            for i, lam in enumerate(lams):
                sides = {}
                for side, x in (("left", xm), ("right", xp)):
                    tau = float(og._sigma0(prof.rho(x), par, lam))
                    n = exponential_closure(side, par.k, tau)
                    if side == "right" and i == self.bad:
                        n[2] = 1.0
                    if side == "right" and i == self.bent:
                        n[2] -= self.depth
                    sides[side] = _pair_closed_by(side, x, n)
                out.append(sides)
            return out

    return Stub


def test_coercive_window_rejects_a_negative_margin(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    lams = og._fit_lambdas(eng.lam_range, np.arange(17), 16)
    Stub = _exact_tail_engine(ctx)
    Stub.bad = 5
    with pytest.raises(CoercivitySearchError,
                       match=f"right .* lambda={lams[Stub.bad]:.6g}$"):
        og.coercive_window(prof, par, setup, Stub())
    Stub.bad = None
    window, rows = og.coercive_window(prof, par, setup, Stub())
    assert window == (setup.x_tilde_minus, setup.x_tilde_plus)
    fit = og.BoundaryFit(Stub(), window, rows)
    # a refinement holds its direct midpoints to the same test: the third
    # one of the first doubling fails
    Stub.bad = 2
    mids = og._fit_lambdas(eng.lam_range, np.arange(1, 32, 2), 32)
    with pytest.raises(CoercivitySearchError,
                       match=f"right .* lambda={mids[2]:.6g}$"):
        fit.refine()
    # and a new fit holds its interpolated rows at the 16 midpoints of its
    # nodes to it: the right end's n21 far below the others at node 8 only
    # adds to A = -n21 there, so every node passes, but the interpolant
    # overshoots two nodes away, between nodes 6 and 7
    bent = rows.copy()
    bent[8, 6] -= 100.0 * np.abs(rows[:, 6]).max()
    og._require_psd(prof, par, window, lams, bent)
    with pytest.raises(CoercivitySearchError,
                       match=f"right .* lambda={mids[6]:.6g}$"):
        og.BoundaryFit(Stub(), window, bent)


def test_refined_fit_holds_its_interpolant_to_the_window_test(ctx):
    # the first doubling's direct row at midpoint 8, node 17 of the 33,
    # has the right end's n21 far below the others: that row passes, but
    # the 33-node interpolant overshoots two nodes away, between nodes 15
    # and 16, and the refined fit is held to the test there
    prof, par, pb, eps, gb, setup, eng = ctx
    Stub = _exact_tail_engine(ctx)
    window, rows = og.coercive_window(prof, par, setup, Stub())
    fit = og.BoundaryFit(Stub(), window, rows)
    Stub.bent, Stub.depth = 8, 100.0 * np.abs(rows[:, 6]).max()
    new_nodes = og._fit_lambdas(eng.lam_range, np.arange(1, 32, 2), 32)
    og._require_psd(prof, par, window, new_nodes,
                    og._closure_rows(Stub().solve(new_nodes), window))
    mids = og._fit_lambdas(eng.lam_range, np.arange(1, 64, 2), 64)
    with pytest.raises(CoercivitySearchError,
                       match=f"right .* lambda={mids[15]:.6g}$"):
        fit.refine()


def test_decay_envelopes(ctx):
    prof, par, pb, eps, gb, setup, eng = ctx
    env = og.decay_envelopes(prof, par, setup, gb)
    xs = np.linspace(setup.x_tilde_plus, setup.X_max, 50)
    z = env.at("right", xs).sum(axis=-1)
    # monotone decrease; the slow exponential dies on the 1/(delta - k)
    # scale, so only the fast component is near zero by X_max
    assert np.all(np.diff(z) <= 1e-9 * z[0])
    assert z[-1] < z[0]
    # and the left pair's envelope mirrors it toward -inf
    z = env.at("left", np.linspace(setup.x_tilde_minus, setup.X_min, 50)
               ).sum(axis=-1)
    assert np.all(np.diff(z) <= 1e-9 * z[0])
    assert z[-1] < z[0]
    env_u1, env_u2 = env.right
    assert env_u2(setup.X_max) <= 1e-9 * env_u2(setup.x_tilde_plus)
    # the fast envelope is proportional to (rho_plus - rho0)
    gaps = prof.rho_plus - np.asarray(prof.rho(xs[:-1]))
    ratio = env_u2(xs[:-1]) / gaps
    assert np.ptp(ratio) <= 1e-9 * ratio[0]
    # at x_tilde the slow envelope carries the rho0(x_tilde) e^0 term
    e1 = env_u1(setup.x_tilde_plus)
    base = 2 * gb.Gamma_p * gb.Gamma_m
    assert e1 >= base * float(prof.rho(setup.x_tilde_plus))
    # every solution stays within its printed envelope at every grid point
    for lam in (eps, pb.lambda_max):
        sols = eng.solve(lam)
        for side, s in sols.items():
            dev = np.linalg.norm(s.normalized - s.limit, axis=-1)
            assert np.all(dev <= env.at(side, s.xs) + 1e-30)


def test_slow_envelopes_match_the_documented_formula(tanh_profile, params,
                                                     tanh_bounds):
    # 2 Gamma_p Gamma_m (gap + rho0(x_t) e^{-r|x - x_t|}
    #                    + |rho0(x) - r int rho0(tau) e^{-r|x - tau|} dtau|),
    # r = delta - k and the integral over [x_t, x], on both sides
    eps = 0.3 * tanh_bounds.lambda_max
    gb = og.gamma_bounds(tanh_profile, params, eps, tanh_bounds)
    setup = og.truncation_points(tanh_profile, params, gb)
    env = og.decay_envelopes(tanh_profile, params, setup, gb)
    r = gb.delta_eps - params.k

    def rho(x):
        return float(tanh_profile.rho(x))

    for env_slow, x_t, rho_lim, out in (
            (env.right[0], setup.x_tilde_plus, tanh_profile.rho_plus, 1.0),
            (env.left[0], setup.x_tilde_minus, tanh_profile.rho_minus, -1.0)):
        for d in (2.0, 10.0):
            x = x_t + out * d
            conv = quad(lambda tau: rho(tau) * math.exp(-r * abs(x - tau)),
                        min(x, x_t), max(x, x_t), epsabs=0.0, epsrel=1e-12)[0]
            expect = 2 * gb.Gamma_p * gb.Gamma_m * (
                abs(rho_lim - rho(x)) + rho(x_t) * math.exp(-r * d)
                + abs(rho(x) - r * conv))
            assert float(env_slow(x)) == pytest.approx(expect, rel=1e-6)


def test_coercive_window_shrinks_with_eps(tanh_profile, params, tanh_bounds):
    xs = {}
    for eps in (0.01, 0.1):
        gb = og.gamma_bounds(tanh_profile, params, eps, tanh_bounds)
        setup = og.truncation_points(tanh_profile, params, gb)
        eng = og.OuterSolutions(tanh_profile, params, setup)
        (xm, xp), _ = og.coercive_window(tanh_profile, params, setup, eng)
        xs[eps] = xp
        assert xm == pytest.approx(-xp, rel=1e-9)  # symmetric profile
    assert xs[0.1] < xs[0.01]
    assert xs[0.01] == pytest.approx(WINDOW_X_EPS001, abs=2e-4)
    assert xs[0.1] == pytest.approx(WINDOW_X_EPS01, abs=2e-4)

