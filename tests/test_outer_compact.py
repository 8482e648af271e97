import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtspect.errors import DegenerateBasisError, SolverError
from rtspect.modes import Tail, glue_tail
from rtspect.outer_compact import (CompactOuterBasis,
                                   compact_decaying_solutions,
                                   compact_outer_basis, exponential_closure)
from rtspect.profiles import PhysicalParams, make_profile
from rtspect.spectrum import CompactTails


def basis_for(k=1.0, lam=3.0, rho_minus=1.0, rho_plus=1.0, mu=1.0, a=1.0):
    prof = make_profile("bump", rho_minus=min(rho_minus, rho_plus - 1e-9)
                        if rho_minus >= rho_plus else rho_minus,
                        rho_plus=rho_plus, a=a)
    par = PhysicalParams(g=1.0, mu=mu, k=k)
    return compact_outer_basis(prof, par, lam)


def test_decay_rates_examples():
    prof = make_profile("bump", rho_minus=0.5, rho_plus=1.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    b = compact_outer_basis(prof, par, 3.0)
    assert b.tau_plus == pytest.approx(2.0, rel=1e-14)       # sqrt(1 + 3)
    b_small = compact_outer_basis(prof, par, 1e-9)
    assert b_small.tau_plus == pytest.approx(1.0, rel=1e-8)  # tau -> k
    prof2 = make_profile("bump", rho_minus=5.0, rho_plus=6.0, a=1.0)
    par2 = PhysicalParams(g=1.0, mu=1.0, k=2.0)
    b2 = compact_outer_basis(prof2, par2, 1.0)
    assert b2.tau_minus == pytest.approx(3.0, rel=1e-14)     # sqrt(4 + 5)


def test_rate_identity_tau_sq_minus_k_sq():
    prof = make_profile("bump", rho_minus=1.3, rho_plus=2.7, a=0.8)
    par = PhysicalParams(g=1.0, mu=0.7, k=1.4)
    b = compact_outer_basis(prof, par, 0.9)
    assert b.tau_plus**2 - par.k**2 == pytest.approx(
        0.9 * prof.rho_plus / par.mu, rel=1e-13)
    assert b.tau_minus > par.k and b.tau_plus > par.k


def test_rejects_nonpositive_lambda():
    prof = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    with pytest.raises(SolverError):
        compact_outer_basis(prof, par, 0.0)


def _basis(k, tau_minus, tau_plus, a=1.0, lam=1.0):
    # direct construction for closed-form checks
    return CompactOuterBasis(k=k, lam=lam, tau_minus=tau_minus,
                             tau_plus=tau_plus, a=a)


def _tail(basis, side, a1, a2):
    """a1 e^{-k|x -+ a|} + a2 e^{-tau|x -+ a|}, phases referenced at +-a."""
    pair = compact_decaying_solutions(basis)[side]
    x_end = basis.a if side == "right" else -basis.a
    return Tail(side, (a1, a2), pair, pair.samples_at(x_end)[:, 4])


def _glue(basis, side, phi, dphi):
    """Amplitudes of the tail through (phi, phi') at +-a, by the mode gluing."""
    pair = compact_decaying_solutions(basis)[side]
    x_end = basis.a if side == "right" else -basis.a
    return glue_tail(side, pair, x_end, phi, dphi).amps


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
    prof = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=k)
    basis = compact_outer_basis(prof, par, lam)
    row = CompactTails(prof, par)(lam)      # left end, then right
    for side, n, x, tau in (("right", row[4:], 1.0, basis.tau_plus),
                            ("left", row[:4], -1.0, basis.tau_minus)):
        p, dp, d2p, d3p = _tail(basis, side, a1, a2).eval(np.array(x))
        scale = max(abs(a1), abs(a2), 1.0) * max(tau, k)**3
        assert abs(n[0] * p + n[1] * dp + d2p) <= 1e-12 * scale
        assert abs(n[2] * p + n[3] * dp + d3p) <= 1e-12 * scale


def test_extension_identity_cases():
    b = _basis(1.0, 2.0, 2.0)
    # pure slow tail: phi' = -k phi
    a1, a2 = _glue(b, "right", 1.0, -1.0)
    assert (a1, a2) == pytest.approx((1.0, 0.0), abs=1e-14)
    # pure fast tail: phi' = -tau phi
    a1, a2 = _glue(b, "right", 1.0, -2.0)
    assert (a1, a2) == pytest.approx((0.0, 1.0), abs=1e-14)
    # left identity cases mirror with growing exponentials
    a1, a2 = _glue(b, "left", 1.0, 1.0)
    assert (a1, a2) == pytest.approx((1.0, 0.0), abs=1e-14)


@given(phi=st.floats(-3, 3), dphi=st.floats(-3, 3),
       lam=st.floats(0.05, 0.9), side=st.sampled_from(["left", "right"]))
@settings(max_examples=60, deadline=None)
def test_extension_roundtrip(phi, dphi, lam, side):
    prof = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    basis = compact_outer_basis(prof, par, lam)
    a1, a2 = _glue(basis, side, phi, dphi)
    x = 1.0 if side == "right" else -1.0
    p, dp, _, _ = _tail(basis, side, a1, a2).eval(np.array(x))
    scale = max(abs(phi), abs(dphi), 1e-12)
    assert abs(p - phi) <= 1e-12 * scale
    assert abs(dp - dphi) <= 1e-12 * scale


def test_closed_form_tail_values():
    b = _basis(1.0, 2.0, 2.0)
    vals = _tail(b, "right", 1.0, 0.0).eval(np.array(1.0))
    assert vals == pytest.approx((1.0, -1.0, 1.0, -1.0))
    vals = _tail(b, "left", 0.0, 1.0).eval(np.array(-1.0))
    assert vals == pytest.approx((1.0, 2.0, 4.0, 8.0))


def test_outer_ode_residual_is_tiny():
    # the tails solve the constant-coefficient equation exactly
    prof = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.3)
    lam = 0.4
    basis = compact_outer_basis(prof, par, lam)
    xs = np.linspace(1.0, 6.0, 50)
    tail = _tail(basis, "right", 0.7, -0.4)
    p, dp, d2p, d3p = tail.eval(xs)
    d4p = tail.fourth_derivative(xs)
    nu = prof.rho_plus / par.mu
    k = par.k
    res = -lam * nu * (k**2 * p - d2p) - (d4p - 2 * k**2 * d2p + k**4 * p)
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(d4p))


@given(theta=st.floats(-4, 4), dtheta=st.floats(-4, 4), lam=st.floats(0.01, 0.95))
@settings(max_examples=60, deadline=None)
def test_endpoint_quadratic_form_nonnegative(theta, dtheta, lam):
    # BV(th, th)/mu = k tau (k+tau) (th + th'/(k+tau))^2
    #                 + (k^2 + k tau + tau^2)/(k+tau) th'^2 >= 0
    prof = make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.0)
    basis = compact_outer_basis(prof, par, lam)
    k, tau = par.k, basis.tau_plus
    bv = (k * tau * (k + tau) * theta**2 + 2 * k * tau * theta * dtheta
          + (k + tau) * dtheta**2)
    assert bv >= -1e-12 * (1 + theta**2 + dtheta**2) * (k + tau)**3
    sos = (k * tau * (k + tau) * (theta + dtheta / (k + tau))**2
           + (k**2 + k * tau + tau**2) / (k + tau) * dtheta**2)
    assert bv == pytest.approx(sos, abs=1e-11 * (1 + theta**2 + dtheta**2) * (k + tau)**3)


def test_degenerate_basis_rejected():
    b = _basis(1.0, 1.0 + 1e-10, 1.0 + 1e-10)
    with pytest.raises(DegenerateBasisError, match="lambda"):
        compact_decaying_solutions(b)
