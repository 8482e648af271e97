"""Correctness gate for one repetition of a workload.

One operation is one expected root.  At seed 0 the roots are compared with
the reference values of the test suite; at every seed they must satisfy
invariants that need no reference.  `check` returns the list of operations
as (label, error) pairs, error None for a root that passes.
"""

from __future__ import annotations

import csv
import io

# Reference growth rates, copied from tests/conftest.py: located by the
# shooting oracle (compound-matrix bisection to 1e-11) on the tanh fixture
# (rho 1..3, g = mu = k = 1) and, for lambda_1 at k = 1, on the bump
# fixture (rho 1..3, a = 1).
TANH_ORACLE_ROOTS = (0.26614571654, 0.06891361215, 0.02299049414, 0.00970411726)
BUMP_ORACLE_LAM1 = 0.30965120971

# acceptance criterion 1: Galerkin roots within this relative distance
GALERKIN_RTOL = 1e-4

# Every Galerkin root must be bracketed: f_n = g k^2 gamma_n - lambda changes
# sign across lambda +- BRACKET_REL * sqrt(g/L0), recomputed after the clock
# stops.  This bounds the error of the growth rate itself, at every seed.
# The CSV residual |f_n(lambda)| is no such bound: one evaluation of f_n
# carries rounding noise of about 1e-8 (measured on the bump fixture at
# k = 0.477: f_n scatters by +-2e-8 over a 2e-8 change in lambda), and the
# root search stops on its lambda tolerance, so the residual can exceed
# tol*g*k^2 wherever that is below the noise (k < about 1 at tol = 1e-8).
# Such residuals are reported by `residual_notes`, not counted as failed.
# 1e-6 leaves the change of f_n across the bracket 30x above that noise.
BRACKET_REL = 1e-6


def _f(h):
    return float.fromhex(h)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _bracket_error(brackets, i, decreasing):
    """Why root i is not bracketed by post["brackets"][i], or None."""
    if brackets is None:
        return None
    flo, fhi = brackets[i]
    ok = flo > 0.0 > fhi if decreasing else flo * fhi < 0.0
    return None if ok else (
        f"f_n = {flo:.3e}, {fhi:.3e} at lambda -+ {BRACKET_REL} sqrt(g/L0): "
        f"no {'decreasing ' if decreasing else ''}sign change")


def check_tanh_roots(inp, seed, out, post):
    lmax = _f(out["lambda_max"])
    ops = [(f"n={m['n']}", f"no root: {m['error']}") for m in out["missing"]]
    for i, r in enumerate(out["roots"]):
        lam, n = _f(r["lam"]), r["n"]
        err = None
        if "mode_error" in r:
            err = f"mode gluing failed: {r['mode_error']}"
        elif (bracket := _bracket_error(post.get("brackets"), i,
                                        decreasing=False)) is not None:
            err = bracket
        elif not 0.0 < lam < lmax:
            err = f"lambda {lam!r} outside (0, sqrt(g/L0) = {lmax!r})"
        elif seed == 0 and _rel(lam, TANH_ORACLE_ROOTS[n - 1]) > GALERKIN_RTOL:
            err = (f"lambda {lam!r} differs from the oracle root "
                   f"{TANH_ORACLE_ROOTS[n - 1]!r} by more than {GALERKIN_RTOL}")
        ops.append((f"n={n} lambda={lam:.9e}", err))
    expected = min(out["N"], len(inp["indices"]))
    for i in range(len(ops), expected):
        ops.append((f"root {i + 1} of N(eps_star)={out['N']}",
                    f"only {len(out['roots'])} roots found"))
    return ops


def check_bump_kgrid(inp, seed, out, post):
    ks = [_f(h) for h in out["k_values"]]
    n_modes = inp["n_modes"]
    if out["exit_code"] != 0:
        return [(f"k={k:.6g} n={n}", f"exit code {out['exit_code']}")
                for k in ks for n in range(1, n_modes + 1)]
    lmax = _f(post["lambda_max"]) if "lambda_max" in post else None
    rows = {}
    brackets = post.get("brackets")
    for i, row in enumerate(csv.DictReader(io.StringIO(out["csv"]))):
        row["i"] = i
        rows.setdefault(float(row["k"]), []).append(row)
    ops = []
    for k in ks:
        got = next((v for kk, v in rows.items()
                    if abs(kk - k) <= 1e-9 * k), [])
        by_n = {int(r["n"]): r for r in got}
        n_eps = max((int(r["N_eps_star"]) for r in got), default=0)
        prev = None
        for n in range(1, max(n_modes, n_eps) + 1):
            label = f"k={k:.6g} n={n}"
            r = by_n.get(n)
            if r is None:
                ops.append((label, "no row (fewer roots than requested "
                                   "or than N(eps_star))"))
                continue
            lam = float(r["lambda_n"])
            err = None
            if (bracket := _bracket_error(brackets, r["i"],
                                          decreasing=True)) is not None:
                err = bracket
            elif not lam > 0.0 or (lmax is not None and not lam < lmax):
                err = f"lambda {lam!r} outside (0, sqrt(g/L0) = {lmax!r})"
            elif prev is not None and not lam < prev:
                err = f"lambda_{n} = {lam!r} not below lambda_{n - 1} = {prev!r}"
            elif seed == 0 and k == 1.0 and n == 1 \
                    and _rel(lam, BUMP_ORACLE_LAM1) > GALERKIN_RTOL:
                err = (f"lambda_1(k=1) = {lam!r} differs from the oracle "
                       f"{BUMP_ORACLE_LAM1!r} by more than {GALERKIN_RTOL}")
            ops.append((label, err))
            prev = lam
    if seed == 0 and 1.0 not in ks:
        ops.append(("k=1", "reference k = 1 missing from the grid"))
    return ops


def check_tanh_oracle(inp, seed, out, post):
    tol = inp["tol"]
    lo, hi = _f(out["eps_star"]), _f(out["lambda_max"])
    roots = [_f(h) for h in out["roots"]]
    signs = post.get("signs")
    ops = []
    for i, r in enumerate(roots):
        err = None
        if not lo < r < hi:
            err = f"root {r!r} outside the scan [{lo!r}, {hi!r}]"
        elif signs is not None and not signs[i][0] * signs[i][1] < 0:
            err = f"no Evans sign change across {r!r} +- {tol}"
        elif seed == 0 and not any(abs(r - ref) <= tol
                                   for ref in TANH_ORACLE_ROOTS):
            err = f"root {r!r} matches no reference root within {tol}"
        ops.append((f"lambda={r:.11f}", err))
    if seed == 0:
        for ref in TANH_ORACLE_ROOTS:
            if not any(abs(r - ref) <= tol for r in roots):
                ops.append((f"reference {ref}", "reference root not found"))
    elif not roots:
        ops.append(("scan", "no root found"))
    return ops


CHECKS = {"tanh-roots": check_tanh_roots, "bump-kgrid": check_bump_kgrid,
          "tanh-oracle": check_tanh_oracle}


def residual_notes(workload, inp, out):
    """Roots whose CSV or library residual exceeds tol*g*k^2 (see
    BRACKET_REL for why that is reported, not failed)."""
    tol, g = inp["tol"], inp["g"]
    if workload == "tanh-roots":
        found = [(inp["k"], r["n"], _f(r["residual"])) for r in out["roots"]]
    elif workload == "bump-kgrid":
        found = [(float(r["k"]), int(r["n"]), float(r["residual"]))
                 for r in csv.DictReader(io.StringIO(out["csv"]))]
    else:
        return []
    return [f"k={k:.6g} n={n}: residual {res:.3e} > tol*g*k^2 = "
            f"{tol * g * k * k:.3e}"
            for k, n, res in found if res > tol * g * k * k]


def roots_found(workload, out):
    """Number of roots one repetition returned."""
    if workload == "bump-kgrid":
        return len(list(csv.DictReader(io.StringIO(out["csv"]))))
    return len(out["roots"])


def check(workload, inp, seed, out, post):
    """(label, error) per operation of one repetition."""
    return CHECKS[workload](inp, seed, out, post)
