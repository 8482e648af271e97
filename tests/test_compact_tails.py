import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtspect.errors import DegenerateBasisError, SolverError
from rtspect.modes import Tail, glue_tail
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import PhysicalParams, limit_box, make_profile
from rtspect.spectrum import (CompactTails, ExponentialPair,
                              compact_outer_basis, exponential_closure)

BUMP = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)


def test_decay_rates_examples():
    prof = make_profile("bump", rho_minus=0.5, rho_plus=1.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    _, tau_plus = compact_outer_basis(prof, par, 3.0)
    assert tau_plus == pytest.approx(2.0, rel=1e-14)         # sqrt(1 + 3)
    _, tau_small = compact_outer_basis(prof, par, 1e-9)
    assert tau_small == pytest.approx(1.0, rel=1e-8)         # tau -> k
    prof2 = make_profile("bump", rho_minus=5.0, rho_plus=6.0, a=1.0)
    par2 = PhysicalParams(g=1.0, mu=1.0, k=2.0)
    tau_minus, _ = compact_outer_basis(prof2, par2, 1.0)
    assert tau_minus == pytest.approx(3.0, rel=1e-14)        # sqrt(4 + 5)


def test_rate_identity_tau_sq_minus_k_sq():
    prof = make_profile("bump", rho_minus=1.3, rho_plus=2.7, a=0.8)
    par = PhysicalParams(g=1.0, mu=0.7, k=1.4)
    tau_minus, tau_plus = compact_outer_basis(prof, par, 0.9)
    assert tau_plus**2 - par.k**2 == pytest.approx(
        0.9 * prof.rho_plus / par.mu, rel=1e-13)
    assert tau_minus > par.k and tau_plus > par.k


def test_rejects_nonpositive_lambda():
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    for lam in (0.0, -1.0, np.array([0.5, 0.0, 1.0])):
        with pytest.raises(SolverError, match="lambda > 0"):
            compact_outer_basis(BUMP, par, lam)


def test_tabulated_window_is_the_support_of_its_data():
    # the same table shifted by s: the window is the span of the samples,
    # not a box about 0 (that grew to (-22, 22) at s = 20 and lost the
    # roots, and at s = 100 left M_rho short of rank), so the roots move
    # only at round-off
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    roots = []
    for s in (0.0, 20.0, 100.0):
        xs = np.linspace(s - 2.0, s + 2.0, 41)
        prof = make_profile("tabulated", samples=list(zip(
            xs, 2.0 + np.tanh(1.5 * (xs - s)))))
        pipe = Pipeline(prof, par, SolverOptions(n_elements=128)).build()
        window = (xs[0], xs[-1])
        assert prof.support == limit_box(prof) == pipe.window == window
        assert {type(x) for x in pipe.window} == {float}
        roots.append([p.lam for n in (1, 2) for p in pipe.solve_mode_index(n)])
    assert len(roots[0]) == 2
    for shifted in roots[1:]:
        assert shifted == pytest.approx(roots[0], rel=1e-8)


def test_rejects_increasing_profile():
    tanh = make_profile("tanh", rho_minus=1.0, rho_plus=3.0, ell=1.0)
    with pytest.raises(SolverError, match="compact-gradient"):
        CompactTails(tanh, PhysicalParams(g=1.0, mu=1.0, k=1.0))


def _pair(side, k=1.0, tau=2.0, a=1.0):
    # direct construction for closed-form checks
    s = 1.0 if side == "right" else -1.0
    return ExponentialPair(side, (k, tau), s * a, s * (a + 12.0 / k),
                           s * math.inf)


def _tail(pair, a1, a2):
    """a1 e^{-k|x -+ a|} + a2 e^{-tau|x -+ a|}, phases referenced at +-a."""
    return Tail(pair.side, (a1, a2), pair, pair.samples_at(pair.x_end)[:, 4])


def _glue(pair, phi, dphi):
    """Amplitudes of the tail through (phi, phi') at +-a, by the mode gluing."""
    return glue_tail(pair.side, pair, pair.x_end, phi, dphi).amps


def test_bc_coefficient_values():
    assert exponential_closure("right", 1.0, 2.0) == pytest.approx(
        [2.0, 3.0, -6.0, -7.0])
    assert exponential_closure("left", 1.0, 2.0) == pytest.approx(
        [2.0, -3.0, 6.0, -7.0])


def test_bc_annihilates_pure_slow_tail():
    # phi = e^{-k(x-a)}: n11*1 + n12*(-k) + k^2 = 0 at x = a
    k, tau = 1.0, 2.0
    n11, n12, _, _ = exponential_closure("right", k, tau)
    assert n11 - n12 * k + k**2 == pytest.approx(0.0, abs=1e-14)


@given(a1=st.floats(-5, 5), a2=st.floats(-5, 5),
       lam=st.floats(0.05, 0.9), k=st.floats(0.3, 2.5))
@settings(max_examples=60, deadline=None)
def test_bc_annihilates_decaying_span(a1, a2, lam, k):
    par = PhysicalParams(g=1.0, mu=1.0, k=k)
    tails = CompactTails(BUMP, par)
    row, pairs = tails(lam), tails.pairs(lam)     # row: left end, then right
    for side, n, x in (("right", row[4:], 1.0), ("left", row[:4], -1.0)):
        tau = pairs[side].rates[1]
        p, dp, d2p, d3p = _tail(pairs[side], a1, a2).eval(np.array(x))
        scale = max(abs(a1), abs(a2), 1.0) * max(tau, k)**3
        assert abs(n[0] * p + n[1] * dp + d2p) <= 1e-12 * scale
        assert abs(n[2] * p + n[3] * dp + d3p) <= 1e-12 * scale


def test_extension_identity_cases():
    # pure slow tail: phi' = -k phi
    a1, a2 = _glue(_pair("right"), 1.0, -1.0)
    assert (a1, a2) == pytest.approx((1.0, 0.0), abs=1e-14)
    # pure fast tail: phi' = -tau phi
    a1, a2 = _glue(_pair("right"), 1.0, -2.0)
    assert (a1, a2) == pytest.approx((0.0, 1.0), abs=1e-14)
    # left identity cases mirror with growing exponentials
    a1, a2 = _glue(_pair("left"), 1.0, 1.0)
    assert (a1, a2) == pytest.approx((1.0, 0.0), abs=1e-14)


@given(phi=st.floats(-3, 3), dphi=st.floats(-3, 3),
       lam=st.floats(0.05, 0.9), side=st.sampled_from(["left", "right"]))
@settings(max_examples=60, deadline=None)
def test_extension_roundtrip(phi, dphi, lam, side):
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    pair = CompactTails(BUMP, par).pairs(lam)[side]
    a1, a2 = _glue(pair, phi, dphi)
    x = 1.0 if side == "right" else -1.0
    p, dp, _, _ = _tail(pair, a1, a2).eval(np.array(x))
    scale = max(abs(phi), abs(dphi), 1e-12)
    assert abs(p - phi) <= 1e-12 * scale
    assert abs(dp - dphi) <= 1e-12 * scale


def test_closed_form_tail_values():
    vals = _tail(_pair("right"), 1.0, 0.0).eval(np.array(1.0))
    assert vals == pytest.approx((1.0, -1.0, 1.0, -1.0))
    vals = _tail(_pair("left"), 0.0, 1.0).eval(np.array(-1.0))
    assert vals == pytest.approx((1.0, 2.0, 4.0, 8.0))


def test_outer_ode_residual_is_tiny():
    # the tails solve the constant-coefficient equation exactly
    par = PhysicalParams(g=1.0, mu=1.0, k=1.3)
    lam = 0.4
    xs = np.linspace(1.0, 6.0, 50)
    tail = _tail(CompactTails(BUMP, par).pairs(lam)["right"], 0.7, -0.4)
    p, dp, d2p, d3p = tail.eval(xs)
    d4p = tail.fourth_derivative(xs)
    nu = BUMP.rho_plus / par.mu
    k = par.k
    res = -lam * nu * (k**2 * p - d2p) - (d4p - 2 * k**2 * d2p + k**4 * p)
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(d4p))


@given(theta=st.floats(-4, 4), dtheta=st.floats(-4, 4), lam=st.floats(0.01, 0.95))
@settings(max_examples=60, deadline=None)
def test_endpoint_quadratic_form_nonnegative(theta, dtheta, lam):
    # BV(th, th)/mu = k tau (k+tau) (th + th'/(k+tau))^2
    #                 + (k^2 + k tau + tau^2)/(k+tau) th'^2 >= 0
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    k, (_, tau) = par.k, compact_outer_basis(BUMP, par, lam)
    bv = (k * tau * (k + tau) * theta**2 + 2 * k * tau * theta * dtheta
          + (k + tau) * dtheta**2)
    assert bv >= -1e-12 * (1 + theta**2 + dtheta**2) * (k + tau)**3
    sos = (k * tau * (k + tau) * (theta + dtheta / (k + tau))**2
           + (k**2 + k * tau + tau**2) / (k + tau) * dtheta**2)
    assert bv == pytest.approx(sos, abs=1e-11 * (1 + theta**2 + dtheta**2) * (k + tau)**3)


def test_degenerate_basis_rejected():
    # tau - k = 1.5e-9 on the right at k = 1, below DEGENERATE_REL * k
    tails = CompactTails(BUMP, PhysicalParams(g=1.0, mu=1.0, k=1.0))
    with pytest.raises(DegenerateBasisError, match="lambda"):
        tails.pairs(1e-9)
