import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh

from rtspect.assembly import (HermiteSpace, _add_endpoint, _element_form,
                              _scatter, _shape_tables, assemble_forms,
                              assemble_k_free, assemble_volume, band_to_dense,
                              build_mesh, coercivity_check, endpoint_block,
                              hermite_interpolate, whole_line_identity_check)
from rtspect.errors import CoercivityError, SolverError
from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import (COMPACT, GL5_WEIGHTS, DensityProfile,
                              PhysicalParams)
from rtspect.spectrum import (CompactTails, SliceBuilder, compact_outer_basis,
                              exponential_closure)


def constant_profile(value=1.0):
    # degenerate stub: rho0 = const, rho0' = 0 (only for assembly algebra)
    return DensityProfile(
        kind=COMPACT,
        rho=lambda x, v=value: np.full_like(np.asarray(x, dtype=float), v),
        drho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        rho_minus=value, rho_plus=value, support=(-1.0, 1.0))


def poly_profile(c0=2.0, c1=0.3, c2=0.1):
    return DensityProfile(
        kind=COMPACT,
        rho=lambda x: c0 + c1 * np.asarray(x, dtype=float)
        + c2 * np.asarray(x, dtype=float)**2,
        drho=lambda x: c1 + 2 * c2 * np.asarray(x, dtype=float),
        rho_minus=c0 - c1 + c2, rho_plus=c0 + c1 + c2, support=(-1.0, 1.0))


def forms_at(profile, params, lam, bc, space):
    return assemble_forms(
        assemble_volume(params, assemble_k_free(profile, space)), lam, bc)


def direct_forms(profile, params, lam, bc, space):
    """(K, M_rho, G, asymmetry norm) with the whole form integrated at the
    Gauss points at this lam: the reference for the affine split."""
    k, mu = params.k, params.mu
    N0, N1, N2 = _shape_tables(space.mesh.widths)
    rho = np.asarray(profile.rho(space.quad_x))
    drho = np.asarray(profile.drho(space.quad_x))
    w = space.mesh.widths[:, None] * GL5_WEIGHTS
    K = _scatter(space, _element_form(N0, w * (lam * k**2 * rho + mu * k**4))
                 + _element_form(N1, w * (lam * rho + 2.0 * mu * k**2))
                 + _element_form(N2, mu * w))
    ends = ((0, "left", bc[:4], space.mesh.x_minus),
            (space.n_dofs - 2, "right", bc[4:], space.mesh.x_plus))
    asym = np.hypot(*(
        _add_endpoint(K, j, endpoint_block(end, n, params,
                                           float(profile.rho(x)), lam))
        for j, end, n, x in ends))
    return (K, _scatter(space, _element_form(N0, w * drho)),
            _scatter(space, sum(_element_form(N, w) for N in (N0, N1, N2))),
            asym)


def test_build_mesh_uniform():
    m = build_mesh(-1.0, 1.0, 4, "uniform")
    assert m.nodes == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert m.widths.sum() == pytest.approx(2.0)


def test_build_mesh_geometric():
    # successive widths in ratio 2, summing to the interval length
    m = build_mesh(0.0, 15.0, 4, "geometric:2")
    assert m.widths == pytest.approx([1.0, 2.0, 4.0, 8.0])


def test_build_mesh_center_ratio():
    m = build_mesh(-1.0, 1.0, 64, "center:4")
    assert m.widths.max() / m.widths.min() <= 4.0 + 1e-12
    assert m.widths.sum() == pytest.approx(2.0)
    # finest at the middle
    assert m.widths[31] < m.widths[0]


@pytest.mark.parametrize("grading", ("uniform", "geometric:1.01", "center:4"))
@pytest.mark.parametrize("n", (7, 128, 160, 256))
def test_build_mesh_ends_where_asked(grading, n):
    # the ends are the points where the n_ij close the window, so the
    # graded cumulative sums may not move the last node by an ulp
    for ends in ((-1.0, 1.0), (-7.3, 5.9)):
        m = build_mesh(*ends, n, grading)
        assert (m.x_minus, m.x_plus) == ends


def test_build_mesh_errors():
    with pytest.raises(SolverError):
        build_mesh(1.0, -1.0, 8)
    with pytest.raises(SolverError):
        build_mesh(-1.0, 1.0, 2)
    with pytest.raises(SolverError):
        build_mesh(-1.0, 1.0, 8, "spectral")


def test_hermite_reproduces_cubics():
    space = HermiteSpace(build_mesh(-1.0, 2.0, 7, "geometric:1.3"))
    f = lambda x: 0.3 * x**3 - x**2 + 0.5 * x - 2.0
    df = lambda x: 0.9 * x**2 - 2 * x + 0.5
    dofs = space.interpolate(f, df)
    xs = np.linspace(-1.0, 2.0, 113)
    assert space.evaluate(dofs, xs, 0) == pytest.approx(f(xs), abs=1e-12)
    assert space.evaluate(dofs, xs, 1) == pytest.approx(df(xs), abs=1e-11)
    assert space.evaluate(dofs, xs, 2) == pytest.approx(1.8 * xs - 2, abs=1e-10)
    assert space.evaluate(dofs, xs, 3) == pytest.approx(
        np.full_like(xs, 1.8), abs=1e-9)
    # the evaluator behind it, on values with a trailing axis
    nodes = space.mesh.nodes
    derivs = [np.poly1d([0.3, -1.0, 0.5, -2.0]).deriv(d) for d in range(4)]
    values = np.stack([derivs[0](nodes), 2.0 * derivs[0](nodes)], axis=-1)
    slopes = np.stack([derivs[1](nodes), 2.0 * derivs[1](nodes)], axis=-1)
    for d, tol in zip(range(4), (1e-12, 1e-11, 1e-10, 1e-9)):
        got = hermite_interpolate(nodes, values, slopes, xs, d)
        assert got.shape == (xs.size, 2)
        assert got == pytest.approx(
            np.outer(derivs[d](xs), [1.0, 2.0]), abs=2.0 * tol)


def test_hermite_reads_stored_values_and_slopes_exactly_at_nodes():
    # tails, envelopes and modes read their samples back bit for bit
    space = HermiteSpace(build_mesh(-1.0, 2.0, 7, "geometric:1.3"))
    nodes = space.mesh.nodes
    rng = np.random.default_rng(5)
    values, slopes = rng.standard_normal((2, nodes.size, 2, 3))
    assert np.array_equal(hermite_interpolate(nodes, values, slopes, nodes),
                          values)
    assert np.array_equal(
        hermite_interpolate(nodes, values, slopes, nodes, 1), slopes)
    dofs = rng.standard_normal(space.n_dofs)
    assert np.array_equal(space.evaluate(dofs, nodes, 0), dofs[0::2])
    assert np.array_equal(space.evaluate(dofs, nodes, 1), dofs[1::2])
    assert space.evaluate(dofs, nodes[3], 1) == dofs[7]


def test_shape_tables_and_scatter_match_loop_reference():
    # the per-element loops the vectorized tables and scatter replaced
    space = HermiteSpace(build_mesh(-1.0, 2.0, 7, "geometric:1.3"))
    t = 0.5 * (np.polynomial.legendre.leggauss(5)[0] + 1.0)
    n0 = np.stack([1 - 3 * t**2 + 2 * t**3, t - 2 * t**2 + t**3,
                   3 * t**2 - 2 * t**3, -t**2 + t**3])
    d1 = np.stack([-6 * t + 6 * t**2, 1 - 4 * t + 3 * t**2,
                   6 * t - 6 * t**2, -2 * t + 3 * t**2])
    d2 = np.stack([-6 + 12 * t, -4 + 6 * t, 6 - 12 * t, -2 + 6 * t])
    for got, ref, order in zip(_shape_tables(space.mesh.widths), (n0, d1, d2),
                               range(3)):
        for e, he in enumerate(space.mesh.widths):
            fac = np.array([1.0, he, 1.0, he])[:, None]
            assert got[e] == pytest.approx(fac * ref / he**order,
                                           rel=1e-13, abs=1e-13)
    # the band holds symmetric matrices, so the element blocks are too
    local = np.random.default_rng(5).standard_normal((7, 4, 4))
    local = local + local.transpose(0, 2, 1)
    expect = np.zeros((space.n_dofs, space.n_dofs))
    for e in range(7):
        dofs = [2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3]
        for i in range(4):
            for j in range(4):
                expect[dofs[i], dofs[j]] += local[e, i, j]
    assert np.array_equal(band_to_dense(_scatter(space, local)), expect)


def test_constant_mode_volume_term():
    # rho0 = 1 stub, theta = c: the lambda-volume term is lam k^2 c^2 (x+ - x-)
    prof = constant_profile(1.0)
    par = PhysicalParams(g=1.0, mu=1.0, k=1.3)
    space = HermiteSpace(build_mesh(-1.0, 1.0, 8, "uniform"))
    lam = 0.7
    forms = forms_at(prof, par, lam, np.zeros(8), space)
    c = 2.4
    dofs = space.interpolate(lambda x: np.full_like(np.asarray(x, float), c),
                             lambda x: np.zeros_like(np.asarray(x, float)))
    total = float(dofs @ forms.K @ dofs)
    expect = lam * par.k**2 * c**2 * 2.0 + par.mu * par.k**4 * c**2 * 2.0
    assert total == pytest.approx(expect, rel=1e-12)


def test_quadrature_exact_for_quadratic_density():
    # with rho0 a degree-2 polynomial all volume integrands are polynomials
    # of degree <= 8, integrated exactly by the 5-point rule: halving the
    # mesh must reproduce the same forms applied to the same function
    prof = poly_profile()
    par = PhysicalParams(g=1.0, mu=0.8, k=1.1)
    lam = 0.5
    f = lambda x: np.sin(0.0 * x) + 0.25 * x**3 - 0.1 * x + 1.0
    df = lambda x: 0.75 * x**2 - 0.1
    vals = []
    for ne in (6, 12):
        space = HermiteSpace(build_mesh(-1.0, 1.0, ne, "uniform"))
        forms = forms_at(prof, par, lam, np.zeros(8), space)
        dofs = space.interpolate(f, df)
        vals.append((float(dofs @ forms.K @ dofs),
                     float(dofs @ forms.M_rho @ dofs),
                     float(dofs @ forms.G @ dofs)))
    assert vals[0] == pytest.approx(vals[1], rel=5e-12)


def test_compact_endpoint_block_sum_of_squares(bump_profile, params):
    lam = 0.4
    k, (_, tau) = params.k, compact_outer_basis(bump_profile, params, lam)
    blk = endpoint_block("right", exponential_closure("right", k, tau),
                         params, bump_profile.rho_plus, lam)
    for th, dth in ((1.0, 0.0), (0.2, -1.1), (-0.5, 0.9)):
        v = np.array([th, dth])
        got = float(v @ blk @ v)
        sos = params.mu * (k * tau * (k + tau) * (th + dth / (k + tau))**2
                           + (k**2 + k * tau + tau**2) / (k + tau) * dth**2)
        assert got == pytest.approx(sos, rel=1e-12)
    assert np.abs(blk - blk.T).max() <= 1e-12 * np.abs(blk).max()


def test_general_block_symmetric_at_limit_coeffs(params):
    # n11 + n22 + sigma0^2 + k^2 = 0 at the limits kills the defect
    sig = 2.0
    lam = (sig**2 - params.k**2) * params.mu / 3.0  # rho_end = 3
    blk = endpoint_block("right", exponential_closure("right", params.k, sig),
                         params, 3.0, lam)
    assert abs(blk[0, 1] - blk[1, 0]) <= 1e-12 * np.abs(blk).max()


def test_forms_symmetry_and_psd(bump_profile, bump_pipe):
    sl = bump_pipe.builder(0.3)
    forms = sl.forms
    assert np.array_equal(forms.K, forms.K.T)
    assert forms.asymmetry_norm <= 1e-12 * np.linalg.norm(forms.K, "fro")
    w = np.linalg.eigvalsh(forms.M_rho)
    assert w.min() >= -1e-12 * max(w.max(), 1e-300)
    # numerical rank bounded by the dofs supported where rho0' > 0
    rank = int(np.count_nonzero(w > w.max() * 1e-12))
    nodes = forms.volume.space.mesh.nodes
    supported = int(2 * np.count_nonzero(
        np.asarray(bump_profile.drho(nodes)) > 0) + 4)
    assert rank <= supported


@pytest.mark.parametrize("fixture", ("bump_pipe", "tanh_pipe"))
def test_affine_forms_match_direct_assembly(request, fixture):
    # K_mu + lam K_rho plus the endpoint blocks against the whole form
    # integrated at this lam, on the same closure; M_rho and G are the
    # builder's bands, one read-only array for every slice
    pipe = request.getfixturevalue(fixture)
    volume = pipe.builder.volume
    for lam in np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 3):
        forms = pipe.builder(lam).forms
        K, M, G, asym = direct_forms(pipe.profile, pipe.params, lam,
                                     pipe.builder.tails(lam), pipe.space)
        for got, ref in ((forms.K_band, K), (forms.M_band, M),
                         (forms.G_band, G)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert abs(forms.asymmetry_norm - asym) <= 1e-14 * np.abs(K).max()
        assert forms.M_band is volume.M_band and forms.G_band is volume.G_band
        assert not (forms.M_band.flags.writeable
                    or forms.G_band.flags.writeable)


@pytest.mark.parametrize("fixture", ("bump_pipe", "tanh_pipe"))
def test_slices_stop_evaluating_the_profile(request, fixture):
    # rho0 and rho0' enter the forms once per builder; new slices reuse them
    pipe = request.getfixturevalue(fixture)
    calls = []

    def counted(f):
        def wrapped(x):
            calls.append(f)
            return f(x)
        return wrapped

    profile = dataclasses.replace(pipe.profile, rho=counted(pipe.profile.rho),
                                  drho=counted(pipe.profile.drho))
    lams = np.array([0.21, 0.43, 0.67, 0.89]) * pipe.bounds.lambda_max
    if profile.kind == COMPACT:
        builder = SliceBuilder(profile, pipe.params, pipe.space, 4,
                               CompactTails(profile, pipe.params))
    else:
        # the fit is built with the pipeline, so no slice adds to it
        builder = SliceBuilder(profile, pipe.params, pipe.space, 4,
                               pipe.builder.tails)
    assert calls
    before = len(calls)
    for lam in lams:
        builder(lam)
    assert len(calls) == before
    assert set(lams) <= set(builder._cache)


def test_coercivity_margins(bump_pipe, bump_bounds):
    # frozen regression: margins at {0.1, 0.5, 1.0} lambda_max stay tiny but
    # nonnegative (the continuum bound is nearly attained); the values are
    # those of dense eigh(K, G), pinned to the tolerance of the dense test
    expect = {0.1: 1.11074e-06, 0.5: 1.85039e-06, 1.0: 2.77471e-06}
    for frac, ref in expect.items():
        sl = bump_pipe.builder(frac * bump_bounds.lambda_max)
        assert sl.margin >= 0.0
        assert sl.margin <= 1e-5
        assert abs(sl.margin - ref) <= 1e-9


@pytest.mark.parametrize("frac", (0.1, 0.5, 1.0))
@pytest.mark.parametrize("fixture", ("bump_pipe", "tanh_pipe"))
def test_coercivity_margin_matches_dense(request, fixture, frac):
    # the Cholesky-inertia bisection against the dense generalized eigensolve
    pipe = request.getfixturevalue(fixture)
    forms = pipe.builder(frac * pipe.bounds.lambda_max).forms
    eta = eigh(forms.K, forms.G, subset_by_index=[0, 0], eigvals_only=True)[0]
    margin = coercivity_check(forms)
    assert abs(margin - (eta - forms.threshold)) <= 1e-9 * max(1.0, eta)


def exact_quadratic_form(ab, x):
    """x^T A x for the lower band storage `ab`, summed exactly in rationals."""
    xf = [Fraction(v) for v in x]
    total = Fraction(0)
    for d in range(ab.shape[0]):
        for j in range(ab.shape[1] - d):
            term = Fraction(ab[d, j]) * xf[j] * xf[j + d]
            total += term if d == 0 else 2 * term
    return total


@pytest.mark.parametrize("frac", (0.1, 0.5))
def test_coercivity_margin_small_k_within_rounding(bump_profile, frac):
    # at k = 0.5, ||K||_2 ~ 1e8 and both float64 solvers sit a few 1e-8 from
    # the exact eta_min of the stored matrices (the dense one too).  The
    # Rayleigh quotient of the dense eigenvector, summed exactly, bounds
    # eta_min from above to second order; the bisection must land within
    # a few eps * ||K||_2 of it.
    par = PhysicalParams(g=1.0, mu=1.0, k=0.5)
    pipe = Pipeline(bump_profile, par,
                    SolverOptions(n_elements=128, n_modes=8)).build()
    forms = pipe.builder(frac * pipe.bounds.lambda_max).forms
    x = eigh(forms.K, forms.G, subset_by_index=[0, 0])[1][:, 0]
    rq = float(exact_quadratic_form(forms.K_band, x)
               / exact_quadratic_form(forms.G_band, x))
    eta = coercivity_check(forms) + forms.threshold
    assert abs(eta - rq) <= 4e-16 * np.linalg.norm(forms.K, 2)


def test_negative_margin_returned_or_raised(bump_pipe):
    # raising the threshold by d is the test of the shifted pencil
    # (K - d G, G): just below zero the negative margin is returned, beyond
    # the -1e-8 ||K||_2 allowance CoercivityError is raised
    forms = bump_pipe.builder(0.3).forms
    knorm = float(np.linalg.norm(forms.K, 2))
    eta = eigh(forms.K, forms.G, subset_by_index=[0, 0], eigvals_only=True)[0]
    for deficit, raises in ((1e-10, False), (1e-7, True)):
        shifted = dataclasses.replace(forms, threshold=eta + deficit * knorm)
        if raises:
            with pytest.raises(CoercivityError, match="coercivity failed"):
                coercivity_check(shifted)
        else:
            got = coercivity_check(shifted)
            assert got == pytest.approx(-deficit * knorm, rel=1e-6)


def test_threshold_values():
    prof = constant_profile()
    space = HermiteSpace(build_mesh(-1, 1, 8, "uniform"))
    f1 = forms_at(prof, PhysicalParams(g=1, mu=1.0, k=1.0), 0.1,
                  np.zeros(8), space)
    assert f1.threshold == pytest.approx(1.0)
    f2 = forms_at(prof, PhysicalParams(g=1, mu=0.5, k=2.0), 0.1,
                  np.zeros(8), space)
    assert f2.threshold == pytest.approx(0.5)


def test_coercivity_check_constant_coefficients():
    # constant density with its exact tail closures: the discrete bound
    # K >= mu min(k^4, 2k^2, 1) G holds with nonnegative margin
    prof = constant_profile()
    par = PhysicalParams(g=1, mu=1.0, k=1.0)
    lam = 0.2
    tau = math.sqrt(par.k**2 + lam * 1.0 / par.mu)
    n = np.concatenate([exponential_closure(end, par.k, tau)
                        for end in ("left", "right")])
    space = HermiteSpace(build_mesh(-1, 1, 16, "uniform"))
    forms = forms_at(prof, par, lam, n, space)
    assert forms.asymmetry_norm <= 1e-12 * np.linalg.norm(forms.K, "fro")
    assert coercivity_check(forms) >= -1e-10


def test_bc_endpoint_mismatch_rejected(bump_pipe, tanh_pipe):
    # the n_ij of either tail source (CompactTails, BoundaryFit) hold at its
    # window ends alone: a builder on a mesh that misses an end, by one ulp
    # or more, is refused
    for pipe in (bump_pipe, tanh_pipe):
        tails = pipe.builder.tails
        x0, x1 = tails.window
        for ends in ((np.nextafter(x0, -math.inf), x1),
                     (x0, np.nextafter(x1, math.inf)), (x0 - 1.0, x1 + 1.0)):
            space = HermiteSpace(build_mesh(*ends, 8))
            with pytest.raises(SolverError,
                               match="not the tail source's window"):
                SliceBuilder(pipe.profile, pipe.params, space, 4, tails)
        space = HermiteSpace(build_mesh(x0, x1, 8, "center:4"))
        assert SliceBuilder(pipe.profile, pipe.params, space, 4,
                            tails).tails is tails


@pytest.fixture(scope="module")
def bump_mode(bump_pipe):
    pt = bump_pipe.solve_mode_index(1)[0]
    return bump_pipe.mode(pt)


def window_test_dofs(x_lo, x_hi, n=48):
    space = HermiteSpace(build_mesh(x_lo, x_hi, n, "uniform"))
    L = x_hi - x_lo
    dofs = space.interpolate(
        lambda x: np.sin(np.pi * (x - x_lo) / L)**2,
        lambda x: (np.pi / L) * np.sin(2 * np.pi * (x - x_lo) / L))
    return space, dofs


def test_identity_interior_support_trivial(bump_mode, bump_profile, params):
    # test function supported inside the window: the outer correction is 0
    # and both sides are the same integral
    space, dofs = window_test_dofs(-0.8, 0.8)
    defect = whole_line_identity_check(bump_mode, bump_profile, params,
                                       space, dofs)
    assert defect <= 1e-12


def test_identity_straddling_compact(bump_mode, bump_profile, params):
    # straddles both endpoints; for compact profiles the gravity correction
    # vanishes identically outside [-a, a]
    space, dofs = window_test_dofs(-1.9, 1.9)
    defect = whole_line_identity_check(bump_mode, bump_profile, params,
                                       space, dofs)
    assert defect <= 1e-10
    xs = np.linspace(1.0 + 1e-9, 1.9, 100)
    assert np.all(np.asarray(bump_profile.drho(xs)) == 0.0)


def test_identity_detects_broken_closure(bump_mode, bump_profile, params):
    space, dofs = window_test_dofs(-1.9, 1.9)
    broken = copy.copy(bump_mode)
    broken.bc = bump_mode.bc.copy()
    broken.bc[5] *= 1.02                   # the right end's n12
    defect = whole_line_identity_check(broken, bump_profile, params,
                                       space, dofs)
    assert defect > 1e-8
