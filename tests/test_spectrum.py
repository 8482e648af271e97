import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

from rtspect import outer_general as og
from rtspect import pipeline, spectrum
from rtspect.assembly import coercivity_check
from rtspect.errors import (BracketError, CoercivityError, ConfigError,
                            RankError, SolverError, StepSizeError)
from rtspect.outer_general import FIT_CHECK_TOL
from rtspect.pipeline import Pipeline, SolverOptions, k_grid_work
from rtspect.profiles import PhysicalParams, make_profile
from rtspect.spectrum import (SCAN_POINTS, SliceBuilder,
                              gamma_derivative_check, gamma_spectrum,
                              mode_count, monotone_margin, solve_dispersion)

# certificate margin of the noise-floor case on its 17-node fit
NOISE_FLOOR_MARGIN = 0.0051280882


def test_pencil_residual_and_orthonormality(bump_pipe):
    sl = bump_pipe.builder(0.3)
    K, M = sl.forms.K, sl.forms.M_rho
    knorm = np.linalg.norm(K, 2)
    for j, gam in enumerate(sl.gammas):
        c = sl.vectors[:, j]
        r = np.linalg.norm(M @ c - gam * (K @ c))
        assert r <= 1e-10 * knorm * np.linalg.norm(c)
    gram = sl.vectors.T @ M @ sl.vectors
    assert np.abs(gram - np.eye(len(sl.gammas))).max() <= 1e-10


@pytest.mark.parametrize("frac", (0.1, 0.5, 1.0))
@pytest.mark.parametrize("fixture", ("bump_pipe", "tanh_pipe"))
def test_banded_pencil_matches_dense(request, fixture, frac):
    # Lanczos on L^-1 M_rho L^-T against the dense generalized eigensolve
    pipe = request.getfixturevalue(fixture)
    sl = pipe.builder(frac * pipe.bounds.lambda_max)
    w, v = eigh(sl.forms.M_rho, sl.forms.K)
    n = len(sl.gammas)
    gam = w[::-1][:n]
    vec = v[:, ::-1][:, :n] / np.sqrt(gam)
    assert sl.gammas == pytest.approx(gam, rel=1e-9, abs=0)
    sign = np.sign(np.einsum("ij,ij->j", vec, sl.vectors))
    assert np.abs(sl.vectors - sign * vec).max() <= 1e-8 * np.abs(vec).max()


def test_lanczos_failure_is_solver_error(bump_pipe, monkeypatch):
    forms = bump_pipe.builder(0.3).forms

    def stalled(*_args, **_kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.ones(2), np.ones((forms.K_band.shape[1], 2)))

    monkeypatch.setattr(spectrum, "eigsh", stalled)
    with pytest.raises(SolverError, match="Lanczos found 2 of 4"):
        gamma_spectrum(forms, 4)


def test_gammas_positive_descending(bump_pipe):
    sl = bump_pipe.builder(0.5)
    assert np.all(sl.gammas > 0)
    assert np.all(np.diff(sl.gammas) <= 0)


def test_rayleigh_quotient_bound(bump_pipe):
    sl = bump_pipe.builder(0.4)
    rng = np.random.default_rng(7)
    K, M = sl.forms.K, sl.forms.M_rho
    x = rng.standard_normal((K.shape[0], 100))
    rq = np.einsum("ij,ij->j", x, M @ x) / np.einsum("ij,ij->j", x, K @ x)
    assert np.all(rq <= sl.gammas[0] * (1 + 1e-8))


def test_gamma_decay_regression(tanh_pipe, tanh_bounds):
    b40 = SliceBuilder(tanh_pipe.profile, tanh_pipe.params,
                       tanh_pipe.space, 40, tanh_pipe.builder.tails)
    sl = b40(0.5 * tanh_bounds.lambda_max)
    assert sl.gammas[39] <= 1e-2 * sl.gammas[0]


def test_rank_error(bump_pipe):
    sl = bump_pipe.builder(0.3)
    with pytest.raises(RankError, match="rank"):
        gamma_spectrum(sl.forms, sl.forms.K.shape[0] + 2)


def test_compact_monotone_gammas(bump_pipe, bump_bounds):
    lams = np.linspace(0.02, bump_bounds.lambda_max, 16)
    gam = np.stack([bump_pipe.builder(l).gammas for l in lams])
    assert np.all(gam[1:] <= gam[:-1] * (1 + 1e-8))


def test_compact_single_sign_change(bump_pipe, bump_bounds):
    gk2 = 1.0
    lams = np.linspace(1e-4 * bump_bounds.lambda_max,
                       bump_bounds.lambda_max, 64)
    for n in (1, 2, 3):
        f = np.array([gk2 * bump_pipe.builder(l).gammas[n - 1] - l
                      for l in lams])
        changes = int(np.count_nonzero(np.diff(np.sign(f)) != 0))
        assert changes == 1


def test_compact_roots_decreasing_below_bound(bump_pipe, bump_bounds):
    pts = [bump_pipe.solve_mode_index(n)[0] for n in (1, 2, 3, 4)]
    lams = [p.lam for p in pts]
    assert all(lams[i + 1] < lams[i] for i in range(3))
    assert all(l <= bump_bounds.lambda_max for l in lams)
    assert all(p.residual <= 1e-8 for p in pts)


def test_compact_root_search_cost(bump_profile, params):
    # Brent's method assembles 17 slices for these four roots, bisection 93;
    # counted on a fresh cache so no other test's slices are included
    pipe = Pipeline(bump_profile, params,
                    SolverOptions(n_elements=128, n_modes=8)).build()
    for n in (1, 2, 3, 4):
        pipe.solve_mode_index(n)
    assert len(pipe.builder._cache) <= 40


def test_pipeline_rejects_eps_star_outside_bound(bump_profile, params,
                                                  bump_bounds):
    for eps in (0.0, -0.01, bump_bounds.lambda_max):
        with pytest.raises(ConfigError, match="eps_star"):
            Pipeline(bump_profile, params, SolverOptions(eps_star=eps))
    pipe = Pipeline(bump_profile, params, SolverOptions(eps_star=0.02))
    assert pipe.eps_star == 0.02


def test_bracket_errors(bump_pipe, bump_bounds):
    with pytest.raises(BracketError, match="lower the bracket floor"):
        solve_dispersion(bump_pipe.builder, 8,
                         (0.5 * bump_bounds.lambda_max, bump_bounds.lambda_max),
                         n_scan=2)
    with pytest.raises(BracketError, match="widen"):
        solve_dispersion(bump_pipe.builder, 1,
                         (1e-4 * bump_bounds.lambda_max,
                          0.5 * bump_pipe.solve_mode_index(1)[0].lam),
                         n_scan=2)


def test_general_roots_reverified(tanh_pipe):
    pts = tanh_pipe.solve_mode_index(1)
    assert len(pts) >= 1
    gk2 = tanh_pipe.params.g * tanh_pipe.params.k**2
    for p in pts:
        sl = tanh_pipe.builder(p.lam)  # fresh boundary coefficients at lam
        assert abs(gk2 * sl.gammas[p.n - 1] - p.lam) <= 1e-8 * gk2


def test_boundary_fit_matches_direct_solves(tanh_profile, params):
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64)).build()
    fit = pipe.builder.tails
    # build fits the window's 17 rows and measures nothing yet
    assert fit.n_nodes == 17 and math.isnan(fit.miss)
    lo, hi = pipe.engine.lam_range
    lams = np.exp(np.random.default_rng(3).uniform(math.log(lo),
                                                   math.log(hi), 50))
    direct = og._closure_rows(pipe.engine.solve(lams), pipe.window)
    coarse = np.array([fit(lam) for lam in lams])
    assert og._relative_miss(coarse, direct) <= FIT_CHECK_TOL
    # one forced refinement doubles the nodes once, to a resolved series
    fit.refine()
    mag = np.abs(fit.coeffs)
    tail = (mag[3 * (fit.n_nodes - 1) // 4 + 1:].max(axis=0)
            / mag.max(axis=0)).max()
    assert fit.n_nodes == 33 and tail < 1e-13
    for lam, ref in zip(lams, direct):
        assert fit(lam).shape == (8,)
        assert fit(lam) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(SolverError, match="outside"):
        pipe.builder(0.5 * lo)


def _recorded_batches(monkeypatch):
    batches = []
    solve = og.OuterSolutions.solve

    def recording(self, lam):
        batches.append(np.atleast_1d(lam).copy())
        return solve(self, lam)

    monkeypatch.setattr(og.OuterSolutions, "solve", recording)
    return batches


def test_window_search_and_fit_share_one_batch(tanh_profile, params,
                                              monkeypatch):
    # the window test runs at the fit's 17 nodes and hands the fit their
    # n_ij, so build and the first slice solve one batch of 17 and no more
    batches = _recorded_batches(monkeypatch)
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64)).build()
    pipe.builder(0.3)
    assert [b.size for b in batches] == [17]
    assert pipe.builder.tails.n_nodes == 17
    # Chebyshev points of the second kind in log lambda
    lo, hi = pipe.engine.lam_range
    s = np.cos(np.pi * np.arange(17) / 16)
    nodes = np.exp(math.log(lo) + 0.5 * (1.0 + s) * math.log(hi / lo))
    assert batches[0] == pytest.approx(nodes, rel=1e-14)


def test_root_check_miss_refines_the_fit_and_searches_again(
        tanh_profile, params, monkeypatch, caplog):
    # a corrupted 17-node series fails the first root check; the fit
    # doubles from its clean rows, every slice on the old series goes, the
    # search runs again and the certificate is made again on the new fit
    opts = SolverOptions(n_elements=64)
    ref = Pipeline(tanh_profile, params, opts).build()
    ref.builder.tails.refine()
    want = ref.solve_mode_index(1)
    pipe = Pipeline(tanh_profile, params, opts).build()
    fit = pipe.builder.tails
    fit.coeffs[2, 5] += 1e-6 * np.abs(fit.coeffs[:, 5]).max()
    assert pipe.monotone
    coarse_margin = pipe.monotone_margin
    built = []
    call = SliceBuilder.__call__

    def recording(self, lam):
        sl = call(self, lam)
        built.append((fit.n_nodes, sl))
        return sl

    # a second builder on the same fit, with a slice of its own
    other = SliceBuilder(pipe.profile, pipe.params, pipe.space, 4, fit)
    before = other(0.3)
    monkeypatch.setattr(SliceBuilder, "__call__", recording)
    with caplog.at_level(logging.DEBUG, logger="rtspect"):
        got = pipe.solve_mode_index(1)
    assert fit.n_nodes == 33
    assert other(0.3) is not before and not np.array_equal(
        other(0.3).forms.K_band, before.forms.K_band)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert f"refined to {fit.n_nodes} nodes" in record.getMessage()
    stale = [sl for nodes, sl in built if nodes == 17]
    assert stale and not {id(sl) for sl in stale} & set(
        map(id, pipe.builder._cache.values()))
    assert [p.lam for p in got] == pytest.approx([p.lam for p in want],
                                                 rel=1e-12)
    # the certificate was made again, on the refined fit
    deg = 4 * (fit.n_nodes - 1)
    lams = og._fit_lambdas(pipe.engine.lam_range, np.arange(deg + 1), deg)
    assert pipe.monotone and pipe.monotone_margin != coarse_margin
    assert pipe.monotone_margin == monotone_margin(pipe.builder.volume,
                                                   fit.slopes(lams))
    assert fit.miss <= FIT_CHECK_TOL


def test_corrupted_fit_fails_the_root_check(tanh_profile, params, caplog):
    # a corrupted node stays a node of the doubled fit, so the miss
    # survives the one refinement and the check raises
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64)).build()
    rows = pipe.builder.tails._rows.copy()
    rows[8, 5] += 1e-6 * np.abs(rows[:, 5]).max()
    fit = og.BoundaryFit(pipe.engine, pipe.window, rows)
    pipe.builder.tails = fit
    with pytest.raises(SolverError, match="log-lambda fit miss"):
        pipe.solve_mode_index(1)
    assert fit.n_nodes == 33 and fit.miss > FIT_CHECK_TOL
    # the logger is silent unless asked
    assert not [r for r in caplog.records if r.name == "rtspect"]


def test_noise_floor_case_needs_no_refinement():
    # tanh (k, mu, rho_plus) = (10, 10, 1.2): the direct n_ij are noisy at
    # about 4e-10, above the root check; with no root above eps_star
    # nothing is checked, so the fit keeps its 17 nodes, and build, the
    # count and the certificate on that fit all succeed
    prof = make_profile("tanh", rho_minus=1.0, rho_plus=1.2, ell=1.0)
    par = PhysicalParams(g=1.0, mu=10.0, k=10.0)
    pipe = Pipeline(prof, par, SolverOptions(n_elements=128)).build()
    assert pipe.count_modes().N == 0
    assert pipe.monotone
    assert pipe.monotone_margin == pytest.approx(NOISE_FLOOR_MARGIN, rel=1e-7)
    assert pipe.builder.tails.n_nodes == 17


def test_count_modes_builds_first(tanh_profile, params):
    # like its siblings, count_modes builds an unbuilt Pipeline itself
    opts = SolverOptions(n_elements=64)
    got = Pipeline(tanh_profile, params, opts).count_modes()
    want = Pipeline(tanh_profile, params, opts).build().count_modes()
    assert (got.eps_star, got.N) == (want.eps_star, want.N)
    assert np.array_equal(got.b, want.b)


def test_refinement_is_one_doubling_at_the_noise_floor(monkeypatch):
    # at the noise floor a further doubling cannot meet the root check, so
    # a refinement is one batch of the 16 midpoints and leaves 33 nodes;
    # the root check alone judges the result
    prof = make_profile("tanh", rho_minus=1.0, rho_plus=1.2, ell=1.0)
    par = PhysicalParams(g=1.0, mu=10.0, k=10.0)
    pipe = Pipeline(prof, par, SolverOptions(n_elements=128)).build()
    batches = _recorded_batches(monkeypatch)
    fit = pipe.builder.tails
    fit.refine()
    assert [b.size for b in batches] == [16]
    assert fit.n_nodes == 33 and math.isnan(fit.miss)


@pytest.mark.parametrize("fixture", ("bump_pipe", "tanh_pipe"))
def test_one_tail_source_checks_roots_and_glues_modes(fixture, request,
                                                      monkeypatch):
    # both profile kinds run every root through tails.check and glue the
    # mode from tails.pairs at its lambda
    pipe = request.getfixturevalue(fixture)
    tails = pipe.builder.tails
    check, pairs = tails.check, tails.pairs
    checked, handed = [], []

    def recording_pairs(lam):
        handed.append((lam, pairs(lam)))
        return handed[-1][1]

    monkeypatch.setattr(tails, "check",
                        lambda lam: checked.append(lam) or check(lam))
    pts = pipe.solve_mode_index(2)
    assert pts and checked == [p.lam for p in pts]
    # the fit's check reads the pairs too, so record from here on
    monkeypatch.setattr(tails, "pairs", recording_pairs)
    mode = pipe.mode(pts[0])
    [(lam, out)] = handed
    assert lam == pts[0].lam
    assert mode.outer_left.pair is out["left"]
    assert mode.outer_right.pair is out["right"]


def test_increasing_bracket_error_names_eps_star(tanh_profile, params):
    # the tanh fixture has 4 roots above eps_star; for an increasing profile
    # the bracket floor is eps_star, so the message points at its key
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64))
    with pytest.raises(BracketError, match=r"lower \[numerical\] eps_star"):
        pipe.solve_mode_index(5)


def test_mode_count_monotonicity(tanh_pipe, tanh_bounds):
    grid = np.linspace(0.01 * tanh_bounds.lambda_max, tanh_bounds.lambda_max, 16)
    eps1 = 0.01 * tanh_bounds.lambda_max
    base = mode_count(tanh_pipe.builder, eps1, grid)
    assert base.N >= 1
    assert np.all(np.diff(base.b) <= 1e-12)
    # N never decreases when eps_star halves, never increases when it grows
    lower = mode_count(tanh_pipe.builder, eps1 / 2, grid)
    higher = mode_count(tanh_pipe.builder, 4 * eps1, grid)
    assert lower.N >= base.N >= higher.N


@pytest.mark.parametrize("fixture, n_elements, n_slices", (
    ("tanh_profile", 256, 15), ("bump_profile", 128, 15)))
def test_margin_is_bisected_only_where_it_is_read(
        request, params, count_calls, fixture, n_elements, n_slices):
    # roots 1-3 and the count: every slice is built, but only the three
    # root slices read their margin; the others bisect it on a later read,
    # bit for bit the margin an eager check gives
    pipe = Pipeline(request.getfixturevalue(fixture), params,
                    SolverOptions(n_elements=n_elements)).build()
    checks = count_calls(spectrum, "coercivity_check")
    pts = [p for n in (1, 2, 3) for p in pipe.solve_mode_index(n)]
    pipe.count_modes()
    cached = list(pipe.builder._cache.values())
    assert len(cached) == n_slices
    assert len(checks) == len(pts) == 3
    late = [sl.margin.hex() for sl in cached]
    assert len(checks) == n_slices
    assert late == [coercivity_check(sl.forms).hex() for sl in cached]
    assert {p.margin.hex() for p in pts} <= set(late)


def test_slice_that_does_not_factor_is_checked_when_built(bump_pipe,
                                                         monkeypatch,
                                                         count_calls):
    # a threshold raised past eta_min: K - threshold*G does not factor, so
    # the builder bisects at once; a margin just below zero is returned,
    # one past the -1e-8 ||K||_2 allowance raises CoercivityError
    forms = bump_pipe.builder(0.3).forms
    knorm = float(np.linalg.norm(forms.K, 2))
    eta = eigh(forms.K, forms.G, subset_by_index=[0, 0], eigvals_only=True)[0]
    assemble = spectrum.assemble_forms
    checks = count_calls(spectrum, "coercivity_check")
    for deficit, raises in ((1e-10, False), (1e-7, True)):
        def raised(*args, threshold=eta + deficit * knorm):
            return dataclasses.replace(assemble(*args), threshold=threshold)
        monkeypatch.setattr(spectrum, "assemble_forms", raised)
        builder = SliceBuilder(bump_pipe.profile, bump_pipe.params,
                               bump_pipe.space, 4, bump_pipe.builder.tails)
        checks.clear()
        if raises:
            with pytest.raises(CoercivityError, match="coercivity failed"):
                builder(0.3)
        else:
            sl = builder(0.3)
            assert len(checks) == 1
            assert sl.margin == pytest.approx(-deficit * knorm, rel=1e-6)
        assert len(checks) == 1


def test_shared_k_free_forms_give_the_same_bands(bump_profile, tanh_profile):
    # a k grid's shared bounds and k-free forms against a Pipeline's own
    opts = SolverOptions(n_elements=64, n_modes=3)
    shared = k_grid_work(bump_profile, PhysicalParams(g=1.0, mu=1.0, k=0.5),
                         opts)
    for k in (0.5, 2.0):
        par = PhysicalParams(g=1.0, mu=2.0, k=k)
        own = Pipeline(bump_profile, par, opts).build()
        grid = Pipeline(bump_profile, par, opts, shared).build()
        assert grid.space is shared.free.space
        assert grid.bounds == own.bounds
        a, b = own.builder.volume, grid.builder.volume
        for name in ("K_mu", "K_rho", "M_band", "G_band"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.rho_ends, a.rank) == (b.rho_ends, b.rank)
    # an increasing profile's window moves with k: only its bounds are shared
    assert k_grid_work(tanh_profile, PhysicalParams(g=1.0, mu=1.0, k=1.0),
                       opts).free is None


def test_mode_count_at_the_curve_cap_raises(bump_profile):
    # bump, k = 4, eps_star = 1e-4 sqrt(g/L0): N(eps_star) is 13, so when
    # 8 or 12 curves are computed, all of them stay above eps_star/(g k^2)
    par = PhysicalParams(g=1.0, mu=1.0, k=4.0)

    def count(n_modes):
        return Pipeline(bump_profile, par, SolverOptions(
            n_elements=128, n_modes=n_modes, eps_star=5.7735e-5)
            ).build().count_modes()

    for n_modes, n_max in ((3, 8), (8, 8), (12, 12)):
        with pytest.raises(SolverError, match=rf"N\(eps_star\) >= {n_max}: "
                           r".*\[numerical\] n_modes"):
            count(n_modes)
    assert count(16).N == 13


def test_cache_clears_are_logged(bump_pipe, tanh_pipe, monkeypatch, caplog):
    monkeypatch.setattr(spectrum, "SLICE_CACHE_LIMIT", 2)
    monkeypatch.setattr(og, "OUTER_CACHE_LIMIT", 1)
    builder = SliceBuilder(bump_pipe.profile, bump_pipe.params,
                           bump_pipe.space, 4, bump_pipe.builder.tails)
    engine = og.OuterSolutions(tanh_pipe.profile, tanh_pipe.params,
                               tanh_pipe.setup)
    with caplog.at_level(logging.DEBUG, logger="rtspect"):
        for lam in (0.1, 0.2, 0.3, 0.4):
            builder(lam)
        for lam in (0.1, 0.2, 0.3):
            engine.solve(lam)
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.DEBUG, "slice cache cleared at 3 entries"),
        (logging.DEBUG, "outer solution cache cleared at 2 entries")]
    assert list(builder._cache) == [0.4] and list(engine._cache) == [0.3]


@pytest.mark.parametrize("fixture, n_roots", (("tanh_profile", 3),
                                              ("bump_profile", 1)))
def test_count_reads_only_search_slices(request, params, fixture, n_roots):
    # a fresh Pipeline: the shared fixtures clear their caches at 512 slices
    pipe = Pipeline(request.getfixturevalue(fixture), params,
                    SolverOptions(n_elements=64)).build()
    for n in range(1, n_roots + 1):
        pipe.solve_mode_index(n)
    built = len(pipe.builder._cache)
    count = pipe.count_modes()
    assert len(pipe.builder._cache) == built
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 16)
    ref = mode_count(pipe.builder, pipe.eps_star, grid)
    assert count.N == ref.N
    assert np.array_equal(count.b, ref.b)


@pytest.mark.parametrize("fixture", ("tanh_pipe", "bump_pipe"))
def test_fit_slopes_match_central_differences(request, fixture):
    # both tail sources: the log-lambda fit on tanh, the closed form on bump.
    # h = 1e-3 lambda: the difference quotient's truncation error,
    # h^2/6 |d3n/dlambda3|, is about 1e-7 relative for coefficients analytic
    # in log lambda on an O(1) scale, and the direct n_ij's Picard noise
    # (far below the fit's 1e-10 check) over h is at most 1e-7 as well;
    # measured 2e-9 to 1.2e-8 on tanh and 1.3e-10 to 1.4e-8 on bump
    pipe = request.getfixturevalue(fixture)
    tails = pipe.builder.tails
    lo, hi = pipe.eps_star, pipe.bounds.lambda_max
    lams = np.array([2.0 * lo, math.sqrt(lo * hi), 0.9 * hi])
    h = 1e-3 * lams
    ends = np.concatenate([lams - h, lams + h])
    if pipe.engine is not None:     # the direct n_ij, not the fit's
        both = og._closure_rows(pipe.engine.solve(ends), tails.window)
    else:
        both = np.array([tails(lam) for lam in ends])
    fd = (both[3:] - both[:3]) / (2.0 * h[:, None])
    slopes = tails.slopes(lams)
    assert slopes.shape == (3, 8)
    assert np.all(np.abs(slopes - fd).max(axis=1)
                  <= 1e-6 * np.abs(slopes).max(axis=1))


def test_certificate_is_positive_on_the_bump_fixture(bump_pipe):
    # the paper's theorem, discretely: K' = K_rho + E' is positive definite
    # for a compact profile, with the closed-form slopes of the n_ij
    lmax = bump_pipe.bounds.lambda_max
    lams = np.geomspace(1e-4 * lmax, lmax, 33)
    slopes = bump_pipe.builder.tails.slopes(lams)
    assert monotone_margin(bump_pipe.builder.volume, slopes) > 0.05
    assert bump_pipe.monotone and math.isnan(bump_pipe.monotone_margin)


def test_certified_increasing_profile_scans_the_bracket_ends(tanh_profile,
                                                             params):
    pipe = Pipeline(tanh_profile, params, SolverOptions(n_elements=64)).build()
    assert math.isnan(pipe.monotone_margin)        # build pays nothing
    pts = pipe.solve_mode_index(1)
    assert pipe.monotone and pipe.monotone_margin > 0.05
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, SCAN_POINTS)
    assert not set(grid[1:-1].tolist()) & set(pipe.builder._cache)
    assert pipe.count_grid == (pipe.bounds.lambda_max,)
    assert [p.lam for p in pts] == [p.lam for p in pipe.dispersion(1)]


def test_uncertified_profile_keeps_the_scan(tanh_profile, params,
                                            monkeypatch):
    # a negative certificate sends an increasing profile down the 64-point
    # scan, which must give what solve_dispersion and mode_count give there
    monkeypatch.setattr(pipeline, "monotone_margin", lambda *_: -1.0)
    opts = SolverOptions(n_elements=64)
    pipe = Pipeline(tanh_profile, params, opts).build()
    got = {n: pipe.solve_mode_index(n) for n in (1, 2, 3)}
    assert not pipe.monotone and pipe.monotone_margin == -1.0
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, SCAN_POINTS)
    assert set(grid.tolist()) <= set(pipe.builder._cache)
    count = pipe.count_modes()
    ref = Pipeline(tanh_profile, params, opts).build()     # fresh builder
    for n, pts in got.items():
        want = solve_dispersion(ref.builder, n, (ref.eps_star, grid[-1]),
                                tol=opts.tol, n_scan=SCAN_POINTS)
        assert [p.lam.hex() for p in pts] == [p.lam.hex() for p in want]
    want = mode_count(ref.builder, ref.eps_star, grid)
    assert count.N == want.N == 3 and np.array_equal(count.b, want.b)


def test_derivative_identity_bump(bump_pipe, bump_bounds):
    lam = 0.5 * bump_bounds.lambda_max
    err = gamma_derivative_check(bump_pipe.builder, 1, lam, 1e-3 * lam)
    assert err <= 1e-3


@pytest.mark.parametrize("frac", (0.05, 0.5, 0.9))
def test_derivative_identity_tanh(tanh_pipe, frac):
    # the Hellmann-Feynman form with the fit's slopes; measured 2.9e-8 to
    # 6.5e-7 on this fixture
    lam = frac * tanh_pipe.bounds.lambda_max
    err = gamma_derivative_check(tanh_pipe.builder, 1, lam, 1e-3 * lam)
    assert err <= 1e-3


def test_derivative_identity_positive_rhs(bump_pipe, bump_bounds):
    # the analytic side is a sum of positive terms: 1/gamma_n increases
    lam = 0.5 * bump_bounds.lambda_max
    h = 1e-3 * lam
    g1 = bump_pipe.builder.gamma(lam - h, 1)
    g2 = bump_pipe.builder.gamma(lam + h, 1)
    assert 1.0 / g2 > 1.0 / g1


def test_derivative_identity_fd_order(bump_pipe, bump_bounds):
    # in the h-dominated regime the centered difference error drops ~4x per
    # halving; measured against the tighter h -> 0 extrapolation
    lam = 0.5 * bump_bounds.lambda_max
    errs = [gamma_derivative_check(bump_pipe.builder, 1, lam, h * lam)
            for h in (8e-2, 4e-2)]
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.5


def test_step_size_error(bump_pipe, bump_bounds):
    lam = 0.5 * bump_bounds.lambda_max
    with pytest.raises(StepSizeError):
        gamma_derivative_check(bump_pipe.builder, 1, lam, 1e-14 * lam)
