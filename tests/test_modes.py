import copy
import math

import numpy as np
import pytest

from rtspect.errors import ExtrapolationError, GluingError
from rtspect.modes import (glue_mode, gluing_jumps, ode_residual,
                           raw_trace_defects, reconstruct_fields)
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import PhysicalParams
from rtspect.spectrum import compact_outer_basis


@pytest.fixture(scope="module")
def bump_mode(bump_pipe):
    pt = bump_pipe.solve_mode_index(1)[0]
    return bump_pipe.mode(pt), pt


@pytest.fixture(scope="module")
def tanh_mode(tanh_pipe):
    pt = tanh_pipe.solve_mode_index(1)[0]
    return tanh_pipe.mode(pt), pt


def test_gluing_matches_values_and_slopes(bump_mode):
    mode, _ = bump_mode
    jumps = gluing_jumps(mode)
    assert max(jumps.values()) <= 1e-6


def test_gluing_matches_general(tanh_mode):
    mode, _ = tanh_mode
    jumps = gluing_jumps(mode)
    assert max(jumps.values()) <= 1e-6


def test_second_derivative_trace_within_galerkin_residual(bump_mode):
    # raw cubic traces satisfy the closure only to discretization accuracy
    mode, _ = bump_mode
    defects = raw_trace_defects(mode)
    assert defects[("right", 2)] <= 0.05
    assert defects[("right", 3)] <= 0.15


def test_raw_traces_improve_with_mesh(bump_profile, params):
    vals = {}
    for ne in (48, 96, 192):
        pipe = Pipeline(bump_profile, params,
                        SolverOptions(n_elements=ne, n_modes=1))
        mode = pipe.mode(pipe.solve_mode_index(1)[0])
        vals[ne] = raw_trace_defects(mode)[("right", 2)]
    assert vals[96] < vals[48] and vals[192] < vals[96]
    # second-derivative trace is (at least) first order; usually quadratic
    assert vals[192] <= 0.6 * vals[96]


def test_mode_normalization_and_sign(bump_mode, bump_pipe):
    mode, _ = bump_mode
    xs = np.linspace(mode.x_minus - 4, mode.x_plus + 4, 3001)
    phi = mode.eval(xs)[0]
    assert np.max(np.abs(phi)) == pytest.approx(1.0, abs=1e-3)
    assert mode.eval(bump_pipe.x_mid)[0] >= 0


def test_eval_matches_tail_formula(bump_mode, bump_profile, params):
    mode, _ = bump_mode
    a1, a2 = mode.outer_right.amps
    _, tau = compact_outer_basis(bump_profile, params, mode.lam)
    k, a = params.k, bump_profile.support[1]
    x = mode.x_plus + 10.0
    expect = a1 * math.exp(-k * (x - a)) + a2 * math.exp(-tau * (x - a))
    assert mode.eval(x)[0] == pytest.approx(expect, rel=1e-12)


def test_tail_matches_closed_form_beyond_reach(bump_mode, bump_profile,
                                               params):
    # the glued tail is A1 e^{-k s} + A2 e^{-tau s}, s = x - a, exactly and
    # arbitrarily far out: up to a + 20/k, past the 12/k scanned for sup |phi|
    mode, _ = bump_mode
    tail = mode.outer_right
    _, tau = compact_outer_basis(bump_profile, params, mode.lam)
    k, a = params.k, bump_profile.support[1]
    xs = a + np.linspace(0.0, 20.0 / k, 101)[1:]
    assert xs[-1] > tail.reach
    a1, a2 = tail.amps
    got = list(mode.eval(xs)) + [tail.fourth_derivative(xs)]
    for j in range(5):
        expect = (a1 * (-k)**j * np.exp(-k * (xs - a))
                  + a2 * (-tau)**j * np.exp(-tau * (xs - a)))
        assert got[j] == pytest.approx(expect, rel=1e-12), f"derivative {j}"


def test_eval_endpoint_continuity(bump_mode):
    mode, _ = bump_mode
    inner = mode.eval(mode.x_plus)
    outer = mode.eval(mode.x_plus + 1e-12)
    assert inner[0] == pytest.approx(outer[0], rel=1e-9)
    assert inner[1] == pytest.approx(outer[1], rel=1e-9)


def test_decay_bound(bump_mode, bump_pipe, tanh_mode, tanh_pipe):
    mode, _ = bump_mode
    a1, a2 = mode.outer_right.amps
    _, tau = compact_outer_basis(bump_pipe.profile, bump_pipe.params, mode.lam)
    k = bump_pipe.params.k
    xs = np.linspace(mode.x_plus, mode.x_plus + 8, 200)
    phi = mode.eval(xs)[0]
    bound = 2 * np.maximum(abs(a1) * np.exp(-k * (xs - mode.x_plus)),
                           abs(a2) * np.exp(-tau * (xs - mode.x_plus)))
    assert np.all(np.abs(phi) <= bound + 1e-14)
    gmode, _ = tanh_mode
    rho_minus = 1.0
    delta = math.sqrt(tanh_pipe.params.k**2
                      + tanh_pipe.eps_star * rho_minus / tanh_pipe.params.mu)
    xs = np.linspace(gmode.x_plus, tanh_pipe.setup.X_max - 1e-6, 200)
    phi = gmode.eval(xs)[0]
    b1, b2 = gmode.outer_right.amps
    k = tanh_pipe.params.k
    bound = 2 * np.maximum(abs(b1) * np.exp(-k * (xs - gmode.x_plus)),
                           abs(b2) * np.exp(-delta * (xs - gmode.x_plus)))
    assert np.all(np.abs(phi) <= bound * (1 + 1e-9) + 1e-14)


def test_trivial_inner_rejected(bump_pipe):
    pt = bump_pipe.solve_mode_index(1)[0]
    bad = copy.copy(pt)
    bad.dofs = np.zeros_like(pt.dofs)
    with pytest.raises(GluingError):
        tails = bump_pipe.builder.tails
        glue_mode(bad, bump_pipe.space, tails(pt.lam), tails.pairs(pt.lam))


def test_extrapolation_error_beyond_truncation(tanh_mode, tanh_pipe):
    mode, _ = tanh_mode
    with pytest.raises(ExtrapolationError):
        mode.eval(tanh_pipe.setup.X_max + 1.0)


def test_residual_small_and_outer_exact(bump_mode, bump_pipe, bump_profile,
                                        params):
    mode, _ = bump_mode
    total, inner, outer = ode_residual(mode, bump_profile, params,
                                       bump_pipe.bounds.rho_m)
    assert outer <= 1e-10   # closed-form tails solve the equation exactly
    # the 1e-4 target applies to default 256-element meshes (acceptance
    # suite); this shared fixture runs at 128 elements
    assert total <= 2.5e-4


def test_residual_refines_at_second_order(bump_profile, params):
    res = {}
    for ne in (64, 128):
        pipe = Pipeline(bump_profile, params,
                        SolverOptions(n_elements=ne, n_modes=1))
        mode = pipe.mode(pipe.solve_mode_index(1)[0])
        res[ne] = ode_residual(mode, bump_profile, params,
                               pipe.bounds.rho_m)[0]
    assert res[128] <= res[64] / 4.0


def test_fields_divergence_free(bump_mode, bump_profile, params):
    mode, _ = bump_mode
    xs = np.linspace(mode.x_minus, mode.x_plus, 501)
    f = reconstruct_fields(mode, bump_profile, params, xs)
    div = params.k1 * f.psi + params.k2 * f.theta + f.dphi
    assert np.max(np.abs(div)) <= 1e-10


def test_fields_divergence_free_split_wavevector(bump_profile):
    par = PhysicalParams(g=1.0, mu=1.0, k=math.sqrt(2.0), k1=1.0, k2=1.0)
    pipe = Pipeline(bump_profile, par, SolverOptions(n_elements=96, n_modes=1))
    mode = pipe.mode(pipe.solve_mode_index(1)[0])
    xs = np.linspace(mode.x_minus, mode.x_plus, 301)
    f = reconstruct_fields(mode, bump_profile, par, xs)
    div = par.k1 * f.psi + par.k2 * f.theta + f.dphi
    assert np.max(np.abs(div)) <= 1e-10


def test_fields_momentum_residual(bump_mode, bump_profile, params):
    # lam rho0 psi - k1 q + mu (k^2 psi - psi'') = 0 given the closures;
    # psi'' = -k1 phi'''/k^2
    mode, _ = bump_mode
    lam = mode.lam
    xs = np.linspace(mode.x_minus + 0.05, mode.x_plus - 0.05, 401)
    f = reconstruct_fields(mode, bump_profile, params, xs)
    rho = np.asarray(bump_profile.rho(xs))
    k, k1, mu = params.k, params.k1, params.mu
    psi_dd = -k1 * f.d3phi / k**2
    res = lam * rho * f.psi - k1 * f.q + mu * (k**2 * f.psi - psi_dd)
    scale = np.max(np.abs(f.q)) * k1 + 1e-300
    assert np.max(np.abs(res)) <= 1e-8 * scale


def test_zeta_sign_opposes_phi(bump_mode, bump_profile, params):
    mode, _ = bump_mode
    xs = np.linspace(-0.8, 0.8, 101)
    f = reconstruct_fields(mode, bump_profile, params, xs)
    drho = np.asarray(bump_profile.drho(xs))
    mask = (drho > 0) & (np.abs(f.phi) > 1e-8)
    assert np.all(np.sign(f.zeta[mask]) == -np.sign(f.phi[mask]))


def test_background_pressure_gradient(bump_mode, bump_profile, params):
    mode, _ = bump_mode
    xs = np.linspace(-1.5, 1.5, 401)
    f = reconstruct_fields(mode, bump_profile, params, xs,
                           with_background=True)
    dP0 = np.gradient(f.P0, xs)
    rho = np.asarray(bump_profile.rho(xs))
    assert dP0[5:-5] == pytest.approx(-params.g * rho[5:-5], rel=5e-3)
