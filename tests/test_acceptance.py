"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass;
all tolerances are fixed here, none are calibrated at run time.  The two
reference fixtures are the tanh profile (strictly increasing) and the bump
profile (compact gradient), both with rho in [1, 3], g = mu = k = 1.
"""

import math
import time

import numpy as np
import pytest

from rtspect import evans
from rtspect.assembly import HermiteSpace, build_mesh, whole_line_identity_check
from rtspect.modes import gluing_jumps, ode_residual, reconstruct_fields
from rtspect.outer_general import _closure_at, decay_envelopes
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import PhysicalParams
from rtspect.spectrum import (SliceBuilder, exponential_closure,
                              gamma_derivative_check, mode_count)


def report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def accept_tanh(tanh_profile, params):
    t0 = time.time()
    pipe = Pipeline(tanh_profile, params,
                    SolverOptions(n_elements=256, n_modes=8))
    pipe.build()
    points = {n: pipe.solve_mode_index(n) for n in (1, 2, 3)}
    t_galerkin = time.time() - t0
    t0 = time.time()
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 64)
    oracle_roots = sorted(evans.find_roots(tanh_profile, params, grid,
                                           tol=1e-9), reverse=True)
    t_oracle = time.time() - t0
    return dict(pipe=pipe, points=points, oracle=oracle_roots,
                t_galerkin=t_galerkin, t_oracle=t_oracle)


@pytest.fixture(scope="session")
def accept_bump(bump_profile, params):
    pipe = Pipeline(bump_profile, params,
                    SolverOptions(n_elements=256, n_modes=8))
    pipe.build()
    points = [pipe.solve_mode_index(n)[0] for n in range(1, 9)]
    return dict(pipe=pipe, points=points)


def test_criterion_1_spectral_vs_oracle(accept_tanh):
    pipe = accept_tanh["pipe"]
    galerkin = sorted((p.lam for pts in accept_tanh["points"].values()
                       for p in pts), reverse=True)[:3]
    oracle = accept_tanh["oracle"][:3]
    rel = [abs(a / b - 1.0) for a, b in zip(galerkin, oracle)]
    runtime = accept_tanh["t_galerkin"] + accept_tanh["t_oracle"]
    ok = max(rel) <= 1e-4 and runtime <= 60.0
    report(1, "first three growth rates agree with the shooting oracle", ok,
           f"rel gaps {['%.2e' % r for r in rel]}, runtime {runtime:.1f}s")


def test_criterion_2_upper_bound_over_k_grid(bump_profile):
    worst = math.inf
    rows = []
    for k in (0.5, 1.0, 2.0, 4.0):
        par = PhysicalParams(g=1.0, mu=1.0, k=k)
        pipe = Pipeline(bump_profile, par,
                        SolverOptions(n_elements=128, n_modes=5))
        for n in range(1, 6):
            pt = pipe.solve_mode_index(n)[0]
            margin = pipe.bounds.lambda_max - pt.lam
            worst = min(worst, margin)
            rows.append((k, n, margin))
    violations = sum(m <= 0 for *_, m in rows)
    report(2, "every growth rate sits below sqrt(g/L0) on k grid",
           violations == 0, f"20 roots, min margin {worst:.4e}, "
           f"{violations} violations")


def test_criterion_3_compact_sequence_structure(accept_bump):
    pipe = accept_bump["pipe"]
    lams = [p.lam for p in accept_bump["points"]]
    decreasing = all(lams[i + 1] < lams[i] for i in range(7))
    ratio = lams[7] / lams[0]
    gk2 = 1.0
    scan = np.linspace(1e-5 * pipe.bounds.lambda_max,
                       pipe.bounds.lambda_max, 64)
    unique = True
    for n in range(1, 9):
        f = np.array([gk2 * pipe.builder(l).gammas[n - 1] - l for l in scan])
        if int(np.count_nonzero(np.diff(np.sign(f)) != 0)) != 1:
            unique = False
    ok = decreasing and ratio <= 0.5 and unique
    report(3, "compact-gradient sequence strictly decreasing toward 0", ok,
           f"lam8/lam1 = {ratio:.2e}, strictly decreasing: {decreasing}, "
           f"single sign change per curve: {unique}")


def test_criterion_4_general_root_count(accept_tanh):
    pipe = accept_tanh["pipe"]
    count = pipe.count_modes()
    # the certified count reads the top slice; the 64-point scan agrees
    scan = mode_count(pipe.builder, pipe.eps_star,
                      np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 64))
    n_roots = 0
    for n in range(1, count.N + 1):
        pts = (accept_tanh["points"].get(n)
               or pipe.solve_mode_index(n))
        n_roots += len(pts)
    oracle_in_range = [r for r in accept_tanh["oracle"]
                       if pipe.eps_star <= r <= pipe.bounds.lambda_max]
    ok = (n_roots >= count.N and count.N >= 1 and count.N == scan.N
          and pipe.monotone and len(oracle_in_range) >= count.N)
    report(4, "at least N(eps_star) roots on [eps_star, sqrt(g/L0)]", ok,
           f"N(eps)={count.N} (64-point scan: {scan.N}), "
           f"roots found={n_roots}, "
           f"oracle roots in range={len(oracle_in_range)}")


def test_criterion_5_coercivity_everywhere_visited(accept_tanh, accept_bump):
    worst = math.inf
    total = 0
    for pipe in (accept_tanh["pipe"], accept_bump["pipe"]):
        margins = [sl.margin for sl in pipe.builder._cache.values()]
        total += len(margins)
        knorm = float(np.linalg.norm(
            pipe.builder(0.5 * pipe.bounds.lambda_max).forms.K, 2))
        worst = min(worst, min(margins))
        assert min(margins) >= -1e-8 * knorm
    report(5, "discrete coercivity margin at every visited lambda",
           worst > -1e-8 * knorm,
           f"{total} assemblies, worst margin {worst:.4e}")


def test_criterion_6_gamma_monotone_compact(accept_bump):
    pipe = accept_bump["pipe"]
    lams = np.linspace(0.02, pipe.bounds.lambda_max, 16)
    gam = np.stack([pipe.builder(l).gammas[:8] for l in lams])
    uptick = float(np.max(gam[1:] / gam[:-1] - 1.0))
    ok = bool(np.all(gam[1:] <= gam[:-1] * (1 + 1e-8)))
    report(6, "gamma curves non-increasing in lambda (compact case)", ok,
           f"16 slices x 8 curves, worst uptick {uptick:.2e}")


def test_criterion_7_derivative_identity(accept_bump):
    pipe = accept_bump["pipe"]
    lam = 0.5 * pipe.bounds.lambda_max
    err = gamma_derivative_check(pipe.builder, 1, lam, 1e-3 * lam)
    report(7, "d(1/gamma_1)/dlambda matches the boundary-energy identity",
           err <= 1e-3, f"relative error {err:.2e} at h = 1e-3 lambda")


def test_criterion_8_picard_contraction_and_envelopes(accept_tanh,
                                                      tanh_profile, params):
    pipe = accept_tanh["pipe"]
    env = decay_envelopes(tanh_profile, params, pipe.setup, pipe.gbounds)
    worst_ratio = 0.0
    worst_env = 0.0
    for lam in (pipe.eps_star, pipe.bounds.lambda_max):
        sols = pipe.engine.solve(lam)
        for side, s in sols.items():
            worst_ratio = max([worst_ratio, *s.contraction_ratios])
            dev = np.linalg.norm(s.normalized - s.limit, axis=-1)
            worst_env = max(worst_env, float(
                np.max(dev / np.maximum(env.at(side, s.xs), 1e-300))))
    ok = worst_ratio <= 0.5 + 1e-6 and worst_env <= 1.0
    report(8, "fixed-point contraction <= 1/2 and printed decay envelopes",
           ok, f"max ratio {worst_ratio:.4f}, max dev/envelope {worst_env:.3e}")


def test_criterion_9_boundary_coefficient_limits(accept_tanh, tanh_profile,
                                                 params):
    pipe = accept_tanh["pipe"]
    lam = 0.3
    sols = pipe.engine.solve(lam)
    sig_p = math.sqrt(params.k**2 + lam * tanh_profile.rho_plus / params.mu)
    lim = exponential_closure("right", params.k, sig_p)
    gaps, errs = [], []
    for x_end in pipe.setup.right.edges[:-1:4]:
        err = np.abs(_closure_at([sols["right"]], x_end)[0] - lim).max()
        gap = tanh_profile.rho_plus - float(tanh_profile.rho(x_end))
        if err > 1e-11:
            gaps.append(gap)
            errs.append(err)
    slope = np.polyfit(np.log(gaps), np.log(errs), 1)[0]
    report(9, "boundary coefficients approach their limits like rho_+ - rho0",
           slope >= 0.9, f"log-log slope {slope:.3f} over {len(gaps)} stations")


def _window_dofs(lo, hi, n=64):
    space = HermiteSpace(build_mesh(lo, hi, n, "uniform"))
    L = hi - lo
    dofs = space.interpolate(
        lambda x: np.sin(np.pi * (x - lo) / L)**2,
        lambda x: (np.pi / L) * np.sin(2 * np.pi * (x - lo) / L))
    return space, dofs


def test_criterion_10_whole_line_identity(accept_tanh, accept_bump,
                                          tanh_profile, bump_profile, params):
    pipe_t = accept_tanh["pipe"]
    mode_t = pipe_t.mode(max(accept_tanh["points"][1], key=lambda p: p.lam))
    pad = min(2.0, 0.9 * (pipe_t.setup.X_max - mode_t.x_plus))
    space, dofs = _window_dofs(mode_t.x_minus - pad, mode_t.x_plus + pad)
    defect_t = whole_line_identity_check(mode_t, tanh_profile, params,
                                         space, dofs)

    pipe_b = accept_bump["pipe"]
    mode_b = pipe_b.mode(accept_bump["points"][0])
    space_b, dofs_b = _window_dofs(mode_b.x_minus - 0.9, mode_b.x_plus + 0.9)
    defect_b = whole_line_identity_check(mode_b, bump_profile, params,
                                         space_b, dofs_b)
    # compact case: the gravity correction vanishes identically outside
    xs = np.linspace(mode_b.x_plus + 1e-12, mode_b.x_plus + 0.9, 257)
    corr_zero = bool(np.all(np.asarray(bump_profile.drho(xs)) == 0.0))
    ok = defect_t <= 1e-6 and defect_b <= 1e-6 and corr_zero
    report(10, "whole-line weak form equals window form plus corrections", ok,
           f"defects: increasing {defect_t:.2e}, compact {defect_b:.2e}, "
           f"compact correction integrand identically 0: {corr_zero}")


def test_criterion_11_gluing_residual_divergence(accept_tanh, accept_bump,
                                                 tanh_profile, bump_profile,
                                                 params):
    worst_jump = 0.0
    worst_res = 0.0
    worst_div = 0.0
    for data, prof in ((accept_tanh, tanh_profile), (accept_bump, bump_profile)):
        pipe = data["pipe"]
        pts = data["points"]
        pts = ([max(pts[n], key=lambda p: p.lam) for n in (1, 2, 3)]
               if isinstance(pts, dict) else pts[:3])
        for pt in pts:
            mode = pipe.mode(pt)
            worst_jump = max(worst_jump, max(gluing_jumps(mode).values()))
            worst_res = max(worst_res, ode_residual(
                mode, prof, params, pipe.bounds.rho_m)[0])
            xs = np.linspace(mode.x_minus, mode.x_plus, 501)
            f = reconstruct_fields(mode, prof, params, xs)
            div = np.abs(params.k1 * f.psi + params.k2 * f.theta + f.dphi)
            worst_div = max(worst_div, float(div.max()))
    ok = worst_jump <= 1e-6 and worst_res <= 1e-4 and worst_div <= 1e-10
    report(11, "gluing jumps, weak residual and divergence identity", ok,
           f"jumps {worst_jump:.2e}, residual {worst_res:.2e}, "
           f"divergence {worst_div:.2e}")


def test_criterion_12_mesh_convergence(accept_tanh, tanh_profile, params):
    pipe = accept_tanh["pipe"]
    lam_ref = max(accept_tanh["points"][1], key=lambda p: p.lam).lam
    bracket = (lam_ref - 1e-4, lam_ref + 1e-4)
    lams = {}
    for ne in (256, 512):
        from rtspect.spectrum import solve_dispersion
        mesh = build_mesh(*pipe.window, ne, "center:4")
        space = HermiteSpace(mesh)
        builder = SliceBuilder(tanh_profile, params, space, 1,
                               pipe.builder.tails)
        pts = solve_dispersion(builder, 1, bracket, tol=1e-12, n_scan=5)
        lams[ne] = max(p.lam for p in pts)
    diff = abs(lams[256] - lams[512]) / lams[512]
    report(12, "lambda_1 Cauchy difference between 256 and 512 elements",
           diff <= 1e-6, f"|lam(256) - lam(512)|/lam = {diff:.2e}")
