"""Runtime invariant suite behind the `verify` command.

Each check returns (name, passed, detail).  The suite is profile-kind aware:
both kinds check that the gamma curves decrease on the lambda grid and
the derivative identity for 1/gamma_1; strictly increasing profiles add
the monotonicity certificate, the fixed-point construction and the decay
envelopes.  Random probes are seeded for reproducibility.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import whole_line_identity_check, build_mesh, HermiteSpace
from .errors import SolverError
from .evans import find_roots
from .modes import gluing_jumps, ode_residual, reconstruct_fields
from .outer_general import CONTRACTION_SLACK, decay_envelopes
from .profiles import COMPACT, validate
from .spectrum import SCAN_POINTS, gamma_derivative_check


def run_verification(pipe, seed=0):
    """Invariant checks on a built Pipeline; returns a list of results."""
    rng = np.random.default_rng(seed)
    results = []
    prof, par = pipe.profile, pipe.params
    pipe.build()

    rep = validate(prof)
    results.append(("profile invariants", rep.passed,
                    "; ".join(d for _, ok, d in rep.checks if not ok) or "ok"))

    lmax = pipe.bounds.lambda_max
    grid = np.linspace(pipe.eps_star, lmax, 16)
    try:
        slices = [pipe.builder(l) for l in grid]
        margins = [s.margin for s in slices]
        results.append(("coercivity margin on the lambda grid",
                        all(m > -1e-8 for m in margins),
                        f"min margin {min(margins):.3e}"))
    except SolverError as exc:
        results.append(("coercivity margin on the lambda grid", False, str(exc)))
        return results

    sl = slices[len(slices) // 2]
    K, M = sl.forms.K, sl.forms.M_rho
    V = sl.vectors
    res = float((np.linalg.norm(M @ V - (K @ V) * sl.gammas, axis=0)
                 / (np.linalg.norm(K, 2) * np.linalg.norm(V, axis=0))).max())
    results.append(("pencil eigenresidual <= 1e-10", res <= 1e-10, f"{res:.2e}"))

    gram = sl.vectors.T @ M @ sl.vectors
    ortho = np.abs(gram - np.eye(gram.shape[0])).max()
    results.append(("eigenvectors M_rho-orthonormal to 1e-10",
                    ortho <= 1e-10, f"defect {ortho:.2e}"))

    probes = rng.standard_normal((K.shape[0], 64))
    rq = np.einsum("ij,ij->j", probes, M @ probes) / \
        np.einsum("ij,ij->j", probes, K @ probes)
    results.append(("Rayleigh quotient never beats gamma_1",
                    bool(np.all(rq <= sl.gammas[0] * (1 + 1e-8))),
                    f"max probe/gamma_1 = {rq.max() / sl.gammas[0]:.10f}"))

    gam = np.stack([s.gammas for s in slices])
    mono = bool(np.all(gam[1:] <= gam[:-1] * (1 + 1e-8)))
    results.append(("gamma curves non-increasing in lambda", mono,
                    f"worst uptick {np.max(gam[1:] / gam[:-1] - 1):.2e}"))
    lam = 0.5 * lmax
    err = gamma_derivative_check(pipe.builder, 1, lam, 1e-3 * lam)
    results.append(("derivative identity for 1/gamma_1 (<= 1e-3)",
                    err <= 1e-3, f"relative error {err:.2e}"))
    if prof.kind != COMPACT:
        path = f"{2 if pipe.monotone else SCAN_POINTS}-point scan"
        results.append(("monotonicity certificate",
                        not math.isnan(pipe.monotone_margin),
                        f"margin {pipe.monotone_margin:.3e}, {path}"))
        pairs = pipe.builder.tails.pairs(pipe.eps_star)
        ratios = [r for pair in pairs.values() for r in pair.contraction_ratios]
        worst = max(ratios, default=0.0)
        results.append(("fixed-point contraction <= 1/2",
                        worst <= 0.5 + CONTRACTION_SLACK,
                        f"max ratio {worst:.4f}"))
        env = decay_envelopes(prof, par, pipe.setup, pipe.gbounds)
        env_ratios = []
        for side, pair in pairs.items():
            dev = np.linalg.norm(pair.normalized - pair.limit, axis=-1)
            env_ratios.append(np.max(
                dev / np.maximum(env.at(side, pair.xs), 1e-300)))
        worst = float(np.max(env_ratios))     # NaN propagates and fails
        results.append(("decaying solutions inside printed envelopes",
                        worst <= 1.0, f"max dev/envelope = {worst:.3e}"))

    pts = pipe.solve_mode_index(1)
    pt = max(pts, key=lambda p: p.lam)
    results.append(("lambda_1 below sqrt(g/L0)", pt.lam <= lmax,
                    f"margin {lmax - pt.lam:.4e}"))

    lo = max(0.5 * pt.lam, 0.0 if prof.kind == COMPACT else pipe.eps_star)
    scan = np.linspace(lo, min(1.5 * pt.lam, 0.999 * lmax), 17)
    roots = find_roots(prof, par, scan, tol=1e-8)
    agree = min((abs(r / pt.lam - 1.0) for r in roots), default=math.inf)
    results.append(("lambda_1 confirmed by the shooting oracle (1e-4)",
                    agree <= 1e-4, f"relative gap {agree:.2e}"))

    mode = pipe.mode(pt)
    jumps = gluing_jumps(mode)
    worst_jump = max(jumps.values())
    results.append(("gluing jumps <= 1e-6", worst_jump <= 1e-6,
                    f"worst {worst_jump:.2e}"))

    resid, _, _ = ode_residual(mode, prof, par, pipe.bounds.rho_m)
    results.append(("scaled mode-equation residual <= 1e-4", resid <= 1e-4,
                    f"{resid:.2e}"))

    xs = np.linspace(mode.x_minus, mode.x_plus, 401)
    fields = reconstruct_fields(mode, prof, par, xs)
    div = np.abs(par.k1 * fields.psi + par.k2 * fields.theta + fields.dphi).max()
    results.append(("divergence-free reconstruction <= 1e-10", div <= 1e-10,
                    f"{div:.2e}"))

    span = mode.x_plus - mode.x_minus
    pad = (min(2.0 * prof.scale, 0.45 * span) if prof.kind == COMPACT
           else min(2.0 * prof.scale,
                    0.9 * (pipe.setup.X_max - mode.x_plus)))
    wspace = HermiteSpace(build_mesh(mode.x_minus - pad, mode.x_plus + pad,
                                     64, "uniform"))
    w_lo, w_hi = wspace.mesh.x_minus, wspace.mesh.x_plus
    tdofs = wspace.interpolate(
        lambda x: np.sin(np.pi * (x - w_lo) / (w_hi - w_lo))**2,
        lambda x: (np.pi / (w_hi - w_lo))
        * np.sin(2 * np.pi * (x - w_lo) / (w_hi - w_lo)))
    defect = whole_line_identity_check(mode, prof, par, wspace, tdofs)
    results.append(("whole-line form identity defect <= 1e-6",
                    defect <= 1e-6, f"{defect:.2e}"))
    return results


def format_results(results):
    lines = []
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name:<{width}}  {detail}")
    lines.append(f"{sum(ok for _, ok, _ in results)}/{len(results)} checks passed")
    return "\n".join(lines)
