import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rtspect import evans as ev
from rtspect.errors import SolverError, StiffnessError
from rtspect.profiles import limit_box

from conftest import BUMP_ORACLE_LAM1, TANH_ORACLE_ROOTS


def test_pairing_equals_full_determinant():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v, p, q = rng.standard_normal((4, 4))
        det = np.linalg.det(np.stack([u, v, p, q], axis=1))
        pair = ev._pairing(ev._wedge_of(u, v), ev._wedge_of(p, q))
        assert pair == pytest.approx(det, rel=1e-10, abs=1e-12)


def _companion(profile, params, lam, x):
    """A(x) of U' = A U for U = (phi, phi', phi'', phi''')."""
    rho = float(profile.rho(x))
    drho = float(profile.drho(x))
    k, mu, g = params.k, params.mu, params.g

    def fourth(U):
        # -lam^2(rho k^2 phi - (rho phi')') = lam mu (phi'''' - 2k^2 phi'' + k^4 phi)
        #   - g k^2 rho' phi, solved for phi''''
        return ((-lam**2 * (rho * k**2 * U[0] - drho * U[1] - rho * U[2])
                 + g * k**2 * drho * U[0]) / (lam * mu)
                + 2 * k**2 * U[2] - k**4 * U[0])

    A = np.eye(4, k=1)
    A[3] = [fourth(e) for e in np.eye(4)]
    return A


@pytest.mark.parametrize("fixture", ("bump_profile", "tanh_profile"))
def test_wedge_rhs_is_compound_of_mode_equation(request, params, fixture):
    # unshifted, the written-out system is d(u ^ v) = Au ^ v + u ^ Av with
    # the companion matrix of the mode equation; on an array of lambdas it
    # is the per-lambda calls stacked as columns, bit for bit (the same
    # arithmetic per element), with or without the shift
    profile = request.getfixturevalue(fixture)
    rng = np.random.default_rng(4)
    lams = np.array([0.05, 0.3, 0.9])
    for lam in lams:
        for x in (-0.7, 0.0, 0.45):
            A = _companion(profile, params, lam, x)
            u, v = rng.standard_normal((2, 4))
            lhs = ev._wedge_rhs(profile, params, lam, x, ev._wedge_of(u, v), 0.0)
            rhs = ev._wedge_of(A @ u, v) + ev._wedge_of(u, A @ v)
            assert np.abs(lhs - rhs).max() <= 1e-12
    w = rng.standard_normal((6, lams.size))
    for x in (-0.7, 0.0, 0.45):
        for direction in (-1.0, 0.0, 1.0):
            batch = ev._wedge_rhs(profile, params, lams, x, w, direction)
            single = np.column_stack([
                ev._wedge_rhs(profile, params, lam, x, w[:, j], direction)
                for j, lam in enumerate(lams)])
            assert np.array_equal(batch, single)


def test_off_spectrum_value_nonzero(bump_profile, params, bump_bounds):
    # no characteristic value at the bound sqrt(g/L0)
    s = ev.evans_function(bump_profile, params, bump_bounds.lambda_max)
    assert s.sign != 0
    assert np.isfinite(s.log_magnitude)


def test_sign_change_across_root(bump_profile, params):
    lo = ev.evans_function(bump_profile, params, 0.30)
    hi = ev.evans_function(bump_profile, params, 0.32)
    assert lo.sign * hi.sign < 0


def test_root_matches_frozen_value(bump_profile, params):
    roots = ev.find_roots(bump_profile, params, np.linspace(0.28, 0.34, 5),
                          tol=1e-9)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(BUMP_ORACLE_LAM1, abs=2e-9)


def test_roots_bracketed_within_half_tol(bump_profile, params):
    # the refinement contract: the scalar Evans sign changes across every
    # returned root +- tol/2
    tol = 1e-9
    roots = ev.find_roots(bump_profile, params, np.linspace(0.02, 0.6, 12),
                          tol=tol)
    assert len(roots) >= 2
    for r in roots:
        lo = ev.evans_function(bump_profile, params, r - 0.5 * tol)
        hi = ev.evans_function(bump_profile, params, r + 0.5 * tol)
        assert lo.sign * hi.sign < 0


def test_k_section_keeps_exact_zeros(monkeypatch, params):
    # a fake Evans value with an exact zero on the scan grid, one at an
    # interior k-section point of the first round, and a plain sign change
    zeros = (0.25, 0.5 + 0.25 * 3 / 16, 0.8)
    calls = []

    def fake(_profile, _params, lam):
        calls.append(np.size(lam))
        return tuple(ev.EvansSample(lam=float(l), value=float(np.prod(
            [l - z for z in zeros])), scale_exponent=0.0) for l in lam)

    monkeypatch.setattr(ev, "evans_function", fake)
    tol = 1e-9
    roots = ev.find_roots(None, params, np.linspace(0.0, 1.0, 5), tol=tol)
    assert roots[:2] == [0.25, 0.546875]
    assert abs(roots[2] - 0.8) <= 0.5 * tol
    # the scan, then one batch per round over the brackets still open
    assert calls[0] == 5 and set(calls[1:]) == {2 * ev._SECTIONS,
                                                ev._SECTIONS}


def test_matching_point_invariance(bump_profile, params):
    # moving the matching point changes neither the sign nor the total
    # log-magnitude beyond integration tolerance
    s0 = ev.evans_function(bump_profile, params, 0.29, match_x=0.0)
    s1 = ev.evans_function(bump_profile, params, 0.29, match_x=0.2)
    assert s0.sign == s1.sign
    assert s0.log_magnitude == pytest.approx(s1.log_magnitude, abs=1e-6)


def test_log_magnitude_matches_unshifted_integration(bump_profile, params):
    # the bump window (+-1.001) is short enough to integrate the wedge
    # system without the shift: the pairing at the matching point is then
    # the Evans value at its full scale
    lam = 0.29
    s = ev.evans_function(bump_profile, params, lam)
    lo, hi = ev._matching_bounds(bump_profile)
    m = 0.5 * (lo + hi)

    def rhs(x, w):
        return ev._wedge_rhs(bump_profile, params, lam, x, w, 0.0)

    planes, log0 = [], 0.0
    for side, x0 in (("left", lo), ("right", hi)):
        w0, log_w0 = ev._initial_plane(bump_profile, params, lam, side)
        sol = solve_ivp(rhs, (x0, m), w0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        planes.append(sol.y[:, -1])
        log0 += log_w0
    direct = ev._pairing(*planes)
    assert s.sign == math.copysign(1.0, direct)
    assert s.log_magnitude == pytest.approx(math.log(abs(direct)) + log0,
                                            abs=1e-6)


def test_scale_invariance_under_plane_rescaling():
    # doubling both plane representatives multiplies the wedge by 4: pure
    # positive scale, absorbed by normalization without touching the sign
    rng = np.random.default_rng(11)
    u, v, p, q = rng.standard_normal((4, 4))
    w = ev._wedge_of(u, v)
    w2 = ev._wedge_of(2 * u, 2 * v)
    assert w2 == pytest.approx(4.0 * w, rel=1e-13)
    a = ev._pairing(w, ev._wedge_of(p, q))
    b = ev._pairing(w2, ev._wedge_of(p, q))
    assert math.copysign(1, a) == math.copysign(1, b)
    assert b == pytest.approx(4.0 * a, rel=1e-13)


def test_matching_bounds_found_once_per_profile(monkeypatch, tanh_profile,
                                                params):
    # the integration ends depend on the profile alone; a root search
    # evaluates the Evans function many times but finds them once
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return limit_box(*args, **kwargs)

    monkeypatch.setattr(ev, "limit_box", counted)
    ev._matching_bounds.cache_clear()
    evals = []
    real = ev.evans_function
    monkeypatch.setattr(ev, "evans_function",
                        lambda *a, **kw: evals.append(1) or real(*a, **kw))
    ev.find_roots(tanh_profile, params, np.linspace(0.2, 0.3, 8), tol=1e-6)
    assert len(evals) > 1
    assert len(calls) == 1
    ev._matching_bounds.cache_clear()


def test_rejects_nonpositive_lambda(bump_profile, params):
    with pytest.raises(SolverError):
        ev.evans_function(bump_profile, params, 0.0)
    with pytest.raises(SolverError):
        ev.evans_function(bump_profile, params, np.array([0.3, -0.1]))


def test_batch_matches_single_calls_on_tanh_scan(tanh_profile, params):
    # the benchmark's 64-point scan: one array call against 64 scalar calls
    from rtspect.pipeline import Pipeline
    pipe = Pipeline(tanh_profile, params)
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 64)
    batch = ev.evans_function(tanh_profile, params, grid)
    assert isinstance(batch, tuple) and len(batch) == grid.size
    for lam, b in zip(grid, batch):
        s = ev.evans_function(tanh_profile, params, lam)
        assert isinstance(s, ev.EvansSample)
        assert b.lam == s.lam == lam
        assert b.sign == s.sign != 0
        assert b.log_magnitude == pytest.approx(s.log_magnitude, abs=1e-8)


def _recording_solve_ivp(monkeypatch):
    # wrap the module's solve_ivp; returns the list of (state size, rtol,
    # atol) of every call
    seen = []
    own = ev.solve_ivp

    def recording(*args, **kwargs):
        seen.append((args[2].size, kwargs["rtol"], kwargs["atol"]))
        return own(*args, **kwargs)

    monkeypatch.setattr(ev, "solve_ivp", recording)
    return seen


@pytest.mark.parametrize("m", [1, 64])
def test_own_dop853_is_scipys(monkeypatch, tanh_profile, params, m):
    # on the oracle's own right-hand side, every segment of a scan of m
    # lambdas ends on the same bytes after the same number of evaluations
    # as scipy's DOP853
    own, calls = ev.solve_ivp, []

    def both(fun, t_span, y0, **kwargs):
        ours = own(fun, t_span, y0, **kwargs)
        ref = solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
        calls.append((ours.y[:, -1].tobytes() == ref.y[:, -1].tobytes(),
                      ours.nfev, ref.nfev, ours.success, ref.success))
        return ours

    monkeypatch.setattr(ev, "solve_ivp", both)
    ev.evans_function(tanh_profile, params, np.linspace(0.01, 0.3, m))
    assert len(calls) == 2          # the tanh window is two segments
    for same, nfev, ref_nfev, ok, ref_ok in calls:
        assert same and ok and ref_ok
        assert type(nfev) is int and nfev == ref_nfev


def test_own_dop853_reports_a_failed_step_like_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1, so the step size shrinks
    # below the spacing of floats there
    def blow_up(_t, y):
        return y * y

    ours = ev.solve_ivp(blow_up, (0.0, 1.5), np.ones(1), rtol=1e-8,
                        atol=1e-10)
    ref = solve_ivp(blow_up, (0.0, 1.5), np.ones(1), method="DOP853",
                    rtol=1e-8, atol=1e-10)
    assert not ours.success and not ref.success
    assert ours.message == ref.message
    assert "step size" in ours.message
    assert ours.nfev == ref.nfev
    assert ours.y[:, -1].tobytes() == ref.y[:, -1].tobytes()


def test_batch_tolerance_is_per_lambda(monkeypatch, bump_profile, params):
    # solve_ivp's error norm is an RMS over all 12m components (two sides
    # of m lambdas): tolerances divided by sqrt(2m) keep each side of each
    # lambda within _RTOL
    seen = _recording_solve_ivp(monkeypatch)
    ev.evans_function(bump_profile, params, 0.3)
    ev.evans_function(bump_profile, params, np.linspace(0.2, 0.5, 16))
    r2, r32 = math.sqrt(2), math.sqrt(32)
    assert {s[1:] for s in seen if s[0] == 12} == {(ev._RTOL / r2,
                                                    ev._RTOL * 1e-2 / r2)}
    assert {s[1:] for s in seen if s[0] == 192} == {(ev._RTOL / r32,
                                                     ev._RTOL * 1e-2 / r32)}


def test_both_sides_integrate_as_one_state(monkeypatch, bump_profile, params):
    # the bump window (+-1.001) is shorter than one 8-unit segment, so an
    # integration takes the minimum of two segments; both sides of all m
    # lambdas share each segment's solve_ivp call
    seen = _recording_solve_ivp(monkeypatch)
    m = 5
    ev.evans_function(bump_profile, params, np.linspace(0.2, 0.5, m))
    assert [s[0] for s in seen] == [12 * m, 12 * m]


def _one_side(profile, params, lams, x_from, x_to, w0):
    """Reference: one side on its own, in x, with the shift and the
    per-lambda renormalization of the oracle, to a tighter tolerance."""
    direction = 1.0 if x_to > x_from else -1.0

    def rhs(x, y):
        return ev._wedge_rhs(profile, params, lams, x, y.reshape(w0.shape),
                             direction).ravel()

    w, log_scale = w0, np.zeros(lams.size)
    xs = np.linspace(x_from, x_to, max(2, int(abs(x_to - x_from) / 8.0)) + 1)
    for a, b in zip(xs[:-1], xs[1:]):
        sol = solve_ivp(rhs, (a, b), w.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        w = sol.y[:, -1].reshape(w0.shape)
        nrm = np.linalg.norm(w, axis=0)
        w, log_scale = w / nrm, log_scale + np.log(nrm)
    return w, log_scale


def test_fused_sides_match_per_side_integration(tanh_profile, params):
    # at match_x = 0.8 the two spans differ (about 12.3 and 10.7 on the
    # tanh window), so each side runs at its own speed in t
    lams = np.array([0.01, 0.05, 0.15, 0.27, 0.4])
    lo, hi = ev._matching_bounds(tanh_profile)
    match = 0.8
    w_l, log_l0 = ev._initial_plane(tanh_profile, params, lams, "left")
    w_r, log_r0 = ev._initial_plane(tanh_profile, params, lams, "right")
    w_l, log_l = _one_side(tanh_profile, params, lams, lo, match, w_l)
    w_r, log_r = _one_side(tanh_profile, params, lams, hi, match, w_r)
    raw = ev._pairing(w_l, w_r)
    log_ref = (np.log(np.abs(raw)) + log_l + log_r + log_l0 + log_r0
               + ev._shift_integral(tanh_profile, params, lams, lo, hi))
    fused = ev.evans_function(tanh_profile, params, lams, match_x=match)
    assert [s.sign for s in fused] == list(np.sign(raw))
    assert np.abs([s.log_magnitude for s in fused] - log_ref).max() <= 1e-8


def test_failed_integration_names_segment(monkeypatch, bump_profile, params):
    class Failed:
        success = False
        message = "step size too small"

    monkeypatch.setattr(ev, "solve_ivp", lambda *_args, **_kwargs: Failed())
    # the bump window is +-1.001; the first segment runs each side from its
    # end halfway to the matching point
    with pytest.raises(StiffnessError,
                       match=r"on \[-1, -0\.5\] and \[1, 0\.5\] for lambda in "
                             r"\[0\.3, 0\.3\]: step size too small"):
        ev.evans_function(bump_profile, params, 0.3)


def test_root_set_stable_under_matching_shift(tanh_profile, params):
    grid = np.linspace(0.2, 0.35, 7)
    signs = [[s.sign for s in ev.evans_function(tanh_profile, params, grid,
                                                 match_x=m)]
             for m in (0.0, 0.8)]
    assert signs[0] == signs[1]


def _fake_evans(monkeypatch, value, exponent=lambda _lam: 0.0, cap=200):
    # replace the Evans function by value(lam) exp(exponent(lam)); returns
    # the list of batch sizes, and stops a search that makes `cap` batches
    calls = []

    def fake(_profile, _params, lam):
        calls.append(np.size(lam))
        if len(calls) > cap:
            raise RuntimeError(f"more than {cap} batches")
        return tuple(ev.EvansSample(lam=float(l), value=float(value(l)),
                                    scale_exponent=float(exponent(l)))
                     for l in lam)

    monkeypatch.setattr(ev, "evans_function", fake)
    return calls


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_find_roots_rejects_a_tol_that_is_not_finite_and_nonnegative(
        monkeypatch, params, tol):
    calls = _fake_evans(monkeypatch, lambda lam: lam - 0.3)
    with pytest.raises(SolverError, match="finite tol >= 0"):
        ev.find_roots(None, params, np.linspace(0.1, 0.5, 3), tol=tol)
    assert calls == []


def test_find_roots_accepts_a_zero_tol(monkeypatch, params):
    # tol = 0 refines a root off the scan grid until round-off stops it
    calls = _fake_evans(monkeypatch, lambda lam: math.tanh(lam - 0.3 - 1e-12))
    (root,) = ev.find_roots(None, params, np.linspace(0.1, 0.5, 3), tol=0.0)
    assert abs(root - (0.3 + 1e-12)) <= 4 * np.finfo(float).eps
    assert len(calls) < 200


def test_tanh_fixture_roots_in_four_batches(monkeypatch, tanh_profile,
                                            params):
    from rtspect.pipeline import Pipeline
    pipe = Pipeline(tanh_profile, params)
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 64)
    calls = []
    real = ev.evans_function
    monkeypatch.setattr(ev, "evans_function",
                        lambda *a: calls.append(1) or real(*a))
    tol = 1e-9
    roots = ev.find_roots(tanh_profile, params, grid, tol=tol)
    assert len(calls) <= 4
    assert roots == pytest.approx(sorted(TANH_ORACLE_ROOTS), abs=tol)
    for r in roots:
        lo = real(tanh_profile, params, r - 0.5 * tol)
        hi = real(tanh_profile, params, r + 0.5 * tol)
        assert lo.sign * hi.sign < 0


@pytest.mark.parametrize("z", [0.3, 0.3 + 1e-3 / 7, 0.5 + 3e-8, 0.375 - 2e-8])
def test_step_like_value_keeps_the_contract_in_twice_k_section(
        monkeypatch, params, z):
    # a sign change much sharper than the bracket defeats the interpolant;
    # the uniform rounds that follow a poor one bound the rounds made
    calls = _fake_evans(monkeypatch, lambda lam: math.tanh((lam - z) / 1e-7))
    tol, grid = 1e-9, np.linspace(0.0, 1.0, 9)
    (root,) = ev.find_roots(None, params, grid, tol=tol)
    assert abs(root - z) <= 0.5 * tol
    k_section = math.ceil(math.log((grid[1] - grid[0]) / tol,
                                   ev._SECTIONS + 1))
    assert len(calls) - 1 <= 2 * k_section


def test_root_placement_reads_the_scale_exponent(monkeypatch, params):
    # the same Evans value, once as it is and once with most of it moved
    # into scale exponents far beyond the float range
    def value(lam):
        return (lam - 0.3) * (lam + 1.0) ** 3

    tol, grid = 1e-12, np.linspace(0.1, 0.5, 5)
    plain = _fake_evans(monkeypatch, value)
    expected = ev.find_roots(None, params, grid, tol=tol)
    split = _fake_evans(monkeypatch,
                        lambda lam: value(lam) * math.exp(-600 * lam),
                        lambda lam: 1000 + 600 * lam)
    assert ev.find_roots(None, params, grid, tol=tol) == expected
    assert len(split) == len(plain) <= 4


def test_first_round_keeps_the_first_of_three_sign_changes():
    # the scan bracket [0.01513, 0.02438] holds sign changes near 0.01703,
    # 0.01948 and 0.02235; the uniform first round keeps the first one, as
    # the k-section did, so every root equals the k-section's within tol
    from rtspect.pipeline import Pipeline
    from rtspect.profiles import PhysicalParams, make_profile
    profile = make_profile("tanh", rho_minus=1.0, rho_plus=10.0, ell=3.0)
    par = PhysicalParams(g=1.0, mu=0.1, k=1.0)
    pipe = Pipeline(profile, par)
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 64)
    k_section = [
        0.017057990601671826, 0.04624388536937088, 0.05390352688184691,
        0.06299624295760312, 0.0738185221644321, 0.08674020075803282,
        0.10223033992004649, 0.12089690701927039, 0.14355034753982845,
        0.1713105280893138, 0.20579684584917507, 0.24948715908435554,
        0.30643754819323393, 0.38379768579685986, 0.49498978702612434]
    tol = 1e-9
    roots = ev.find_roots(profile, par, grid, tol=tol)
    assert roots == pytest.approx(k_section, abs=tol)


def test_find_roots_logs_one_debug_record(monkeypatch, params, caplog):
    # three sign changes in one scan bracket: the first round passes over
    # two roots, and the record says so; logging changes no number
    zeros = (0.3, 0.33, 0.36, 0.8)
    calls = _fake_evans(monkeypatch, lambda lam: np.prod([lam - z
                                                          for z in zeros]))
    grid = np.linspace(0.0, 1.0, 5)
    quiet = ev.find_roots(None, params, grid, tol=1e-9)
    assert caplog.records == []
    n_quiet = len(calls)
    with caplog.at_level("DEBUG", logger="rtspect"):
        loud = ev.find_roots(None, params, grid, tol=1e-9)
    assert loud == quiet and len(calls) == 2 * n_quiet
    (record,) = caplog.records
    assert record.levelname == "DEBUG" and record.name == "rtspect"
    assert record.getMessage() == (
        f"find_roots: 5 scan points, {n_quiet - 1} rounds, "
        f"{sum(calls[:n_quiet])} lambdas evaluated, 2 brackets closed by a "
        f"clustered round, 1 where a round saw more than one sign change")


@pytest.mark.parametrize("slope", [-2e4, 2e4])
def test_root_keeps_its_sign_where_the_exponent_leaves_the_float_range(
        monkeypatch, params, slope):
    # across the scan bracket the scale exponent moves by 2000, more than
    # one float can scale, yet each point keeps the sign of its value
    _fake_evans(monkeypatch, lambda lam: 0.38 - lam, lambda lam: slope * lam)
    (root,) = ev.find_roots(None, params, np.linspace(0.1, 0.5, 5), tol=1e-9)
    assert abs(root - 0.38) <= 0.5e-9
