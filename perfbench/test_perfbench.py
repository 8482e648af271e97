"""Tests of the benchmark itself; they need neither rtspect nor its run time.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import gate
import inputs
import spans


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)
    assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)


def test_seed_zero_is_the_reference_fixture():
    tanh = inputs.make_inputs("tanh-roots", 0)
    assert tanh["profile"] == {"kind": "tanh", "rho_minus": 1.0,
                               "rho_plus": 3.0, "ell": 1.0}
    assert (tanh["k"], tanh["n_elements"], tanh["indices"]) == (1.0, 256, [1, 2, 3])
    bump = inputs.make_inputs("bump-kgrid", 0)
    assert bump["profile"]["a"] == 1.0
    assert (bump["k_min"], bump["k_max"], bump["k_count"]) == (0.5, 4.0, 8)
    oracle = inputs.make_inputs("tanh-oracle", 0)
    assert (oracle["k"], oracle["grid_points"], oracle["tol"]) == (1.0, 64, 1e-9)


@pytest.mark.parametrize("seed", range(1, 40))
def test_other_seeds_stay_in_the_stated_range(seed):
    lo, hi = 1 - inputs.SPREAD, 1 + inputs.SPREAD
    tanh = inputs.make_inputs("tanh-roots", seed)
    assert lo <= tanh["k"] <= hi and lo <= tanh["profile"]["ell"] <= hi
    bump = inputs.make_inputs("bump-kgrid", seed)
    assert lo <= bump["profile"]["a"] <= hi
    assert 0.5 * lo <= bump["k_min"] <= 0.5 * hi
    assert 4.0 * lo <= bump["k_max"] <= 4.0 * hi


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        inputs.make_inputs("nope", 0)


# -- span arithmetic ----------------------------------------------------------

def _span(i, name, start, end, parent=None, **extra):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "thread": 0, "tags": {}, **extra}


def test_self_time_subtracts_the_union_of_children():
    s = [_span(0, "p", 0.0, 10.0),
         _span(1, "c", 1.0, 3.0, 0), _span(2, "c", 2.0, 5.0, 0),   # overlap
         _span(3, "c", 8.0, 12.0, 0),                               # runs past
         _span(4, "g", 1.5, 2.5, 1)]                                # grandchild
    kids = spans.children_of(s)
    assert spans.self_time(s[0], kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans.self_time(s[1], kids) == pytest.approx(1.0)
    assert spans.self_time(s[4], kids) == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_spans():
    s = [
        _span(0, "cli.run", 0.0, 10.0),
        _span(1, "pipeline.Pipeline.dispersion", 1.0, 9.0, 0),
        _span(2, "pipeline.Pipeline.dispersion", 2.0, 8.0, 0),
        # one slice built (a miss), one served from the cache (a hit)
        _span(3, "spectrum.SliceBuilder.__call__", 2.0, 3.0, 1),
        _span(4, "assembly.assemble_forms", 2.0, 2.4, 3),
        _span(5, "spectrum.gamma_spectrum", 2.4, 3.0, 3),
        _span(6, "assembly.coercivity_check", 2.5, 2.9, 5),
        _span(7, "spectrum.SliceBuilder.__call__", 4.0, 4.001, 1),
        _span(8, "evans.evans_function", 5.0, 5.5, 2),
        _span(9, "evans.solve_ivp", 5.0, 5.2, 8, nfev=30),
        _span(10, "evans.solve_ivp", 5.2, 5.5, 8, nfev=50),
    ]
    m = spans.layer_metrics(s, n_roots=2, solve_untraced=4.0, solve_traced=5.0)
    assert m["assembly.assemble_forms.calls"] == 1
    assert m["assembly.assemble_forms.ms_per_call"] == pytest.approx(400.0)
    assert m["spectrum.gamma_spectrum.self_ms_per_call"] == pytest.approx(200.0)
    assert m["spectrum.SliceBuilder.hit_ratio"] == pytest.approx(0.5)
    assert m["spectrum.slices_per_root"] == pytest.approx(0.5)
    assert m["evans.evals_per_root"] == pytest.approx(0.5)
    assert m["evans.rhs_evals_per_call"] == pytest.approx(80.0)
    assert m["cli.run.self_s"] == pytest.approx(2.0)
    assert m["cli.parallelism"] == pytest.approx(1.4)
    assert m["trace.overhead_ratio"] == pytest.approx(1.25)
    assert m["outer_general.OuterSolutions.solve.ms_per_call"] == 0.0
    assert {spans.unit_of(k) for k in m} == {"s", "ms", "count", "ratio"}


def test_tracer_is_thread_safe_and_parents_pool_work_to_the_waiting_call():
    tracer = spans.Tracer("w")
    inner = tracer.wrap(lambda x: sum(range(200 * x)), "inner")

    def fan_out():
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(inner, range(400)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = tracer.wrap(fan_out, "outer")()
    finally:
        sys.setswitchinterval(old)
    assert result == [sum(range(200 * x)) for x in range(400)]
    assert len(tracer.spans) == 401
    assert sorted(s["id"] for s in tracer.spans) == list(range(401))
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    inner_spans = [s for s in tracer.spans if s["name"] == "inner"]
    assert all(s["parent"] == outer["id"] for s in inner_spans)
    assert all(s["tags"]["workload"] == "w" for s in tracer.spans)
    assert {s["thread"] for s in inner_spans} - {threading.get_ident()}


# -- correctness gate --------------------------------------------------------

def _tanh_out(lams, N=3):
    return {"roots": [{"n": n, "lam": lam.hex(), "residual": (1e-10).hex(),
                       "margin": (1e-6).hex(), "mode": "m"}
                      for n, lam in enumerate(lams, start=1)],
            "missing": [], "N": N, "lambda_max": (0.6).hex(),
            "eps_star": (0.006).hex(), "gk2": (1.0).hex()}


def _errors(ops):
    return [err for _, err in ops if err is not None]


def test_gate_passes_reference_tanh_roots_and_flags_a_perturbed_one():
    inp = inputs.make_inputs("tanh-roots", 0)
    ref = list(gate.TANH_ORACLE_ROOTS[:3])
    assert _errors(gate.check("tanh-roots", inp, 0, _tanh_out(ref), {})) == []
    bad = ref[:1] + [ref[1] * (1 + 2 * gate.GALERKIN_RTOL)] + ref[2:]
    ops = gate.check("tanh-roots", inp, 0, _tanh_out(bad), {})
    assert len(ops) == 3 and len(_errors(ops)) == 1
    # away from seed 0 only the invariants apply
    assert _errors(gate.check("tanh-roots", inp, 5, _tanh_out(bad), {})) == []


def test_gate_flags_tanh_invariants():
    inp = inputs.make_inputs("tanh-roots", 3)
    out = _tanh_out([0.27, 0.07, 0.023])
    # either direction of sign change brackets a root of the scanned curve
    post = {"brackets": [[1e-6, -1e-6], [-1e-6, 1e-6], [1e-6, -1e-6]]}
    assert _errors(gate.check("tanh-roots", inp, 3, out, post)) == []
    post["brackets"][0] = [1e-6, 2e-8]                  # not a root
    out["roots"][2]["lam"] = (0.7).hex()                # above sqrt(g/L0)
    assert len(_errors(gate.check("tanh-roots", inp, 3, out, post))) == 2
    out = _tanh_out([0.27, 0.07], N=3)                  # fewer than N(eps_star)
    ops = gate.check("tanh-roots", inp, 3, out, {})
    assert len(ops) == 3 and len(_errors(ops)) == 1


def _bump_out(table, ks):
    rows = ["k,n,lambda_n,residual,coercivity_margin,N_eps_star"]
    for k, lams in zip(ks, table):
        rows += [f"{k:.12g},{n},{lam:.12e},1.000e-09,1.0e-06,2"
                 for n, lam in enumerate(lams, start=1)]
    return {"exit_code": 0, "csv": "\n".join(rows) + "\n",
            "k_values": [float(k).hex() for k in ks]}


def test_gate_checks_bump_reference_and_ordering():
    inp = inputs.make_inputs("bump-kgrid", 0)
    ks = [0.5 + 0.5 * i for i in range(8)]
    table = [[0.3, 0.03, 0.003] for _ in ks]
    table[1] = [gate.BUMP_ORACLE_LAM1, 0.0376, 0.0053]
    post = {"lambda_max": (0.9).hex()}
    ops = gate.check("bump-kgrid", inp, 0, _bump_out(table, ks), post)
    assert len(ops) == 24 and _errors(ops) == []
    table[1] = [gate.BUMP_ORACLE_LAM1 * 1.001, 0.0376, 0.0053]
    table[4] = [0.3, 0.3, 0.003]                         # not decreasing
    ops = gate.check("bump-kgrid", inp, 0, _bump_out(table, ks), post)
    assert len(_errors(ops)) == 2
    del table[6][2]                                      # a missing root
    ops = gate.check("bump-kgrid", inp, 0, _bump_out(table, ks), post)
    assert len(ops) == 24 and len(_errors(ops)) == 3
    failed = dict(_bump_out(table, ks), exit_code=1)
    assert len(_errors(gate.check("bump-kgrid", inp, 0, failed, post))) == 24


def test_gate_requires_a_decreasing_sign_change_around_bump_roots():
    inp = inputs.make_inputs("bump-kgrid", 4)
    ks = [0.5 + 0.5 * i for i in range(8)]
    out = _bump_out([[0.3, 0.03, 0.003] for _ in ks], ks)
    brackets = [[1e-6, -1e-6] for _ in range(24)]
    post = {"lambda_max": (0.9).hex(), "brackets": brackets}
    assert _errors(gate.check("bump-kgrid", inp, 4, out, post)) == []
    brackets[5] = [-1e-6, 1e-6]                          # wrong direction
    brackets[9] = [3e-7, 1e-6]                           # no sign change
    ops = gate.check("bump-kgrid", inp, 4, out, post)
    assert [label for label, err in ops if err] == ["k=1 n=3", "k=2 n=1"]


def test_residuals_above_tol_g_k2_are_noted_not_failed():
    inp = inputs.make_inputs("bump-kgrid", 0)
    ks = [0.5 + 0.5 * i for i in range(8)]
    out = _bump_out([[0.3, 0.03, 0.003] for _ in ks], ks)
    out["csv"] = out["csv"].replace("1.000e-09", "6.000e-09", 1)
    notes = gate.residual_notes("bump-kgrid", inp, out)
    assert len(notes) == 1 and notes[0].startswith("k=0.5 n=1")
    post = {"lambda_max": (0.9).hex(), "brackets": [[1e-6, -1e-6]] * 24}
    assert _errors(gate.check("bump-kgrid", inp, 2, out, post)) == []
    tanh = _tanh_out([0.27, 0.07, 0.023])
    tanh["roots"][1]["residual"] = (2e-8).hex()
    assert len(gate.residual_notes("tanh-roots",
                                   inputs.make_inputs("tanh-roots", 0),
                                   tanh)) == 1
    assert gate.residual_notes("tanh-oracle", inp, {}) == []


def test_gate_checks_oracle_roots_and_sign_changes():
    inp = inputs.make_inputs("tanh-oracle", 0)
    roots = sorted(gate.TANH_ORACLE_ROOTS)
    out = {"roots": [r.hex() for r in roots], "eps_star": (0.005).hex(),
           "lambda_max": (0.6).hex()}
    signs = {"signs": [[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]}
    assert _errors(gate.check("tanh-oracle", inp, 0, out, signs)) == []
    moved = dict(out, roots=[(roots[0] + 3 * inp["tol"]).hex()]
                 + out["roots"][1:])
    # the moved root matches no reference, and the reference goes unfound
    assert len(_errors(gate.check("tanh-oracle", inp, 0, moved, signs))) == 2
    signs["signs"][2] = [1.0, 1.0]
    assert len(_errors(gate.check("tanh-oracle", inp, 0, out, signs))) == 1
