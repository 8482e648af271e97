"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the generated inputs, the rtspect source directory, the output
directory and the flags `setup_only`, `trace` and `check`.  The worker
times set-up (``import rtspect`` and the workload's set-up) and solve (set-up
done to results in hand) with `time.perf_counter`, takes `ru_maxrss`, and
writes every output the correctness gate needs to RESULT.  Work done for
the gate alone (`check`) runs after the clock and the tracer have stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import gate


def _hex(x):
    return float(x).hex()


def _dispersion_function(pipe):
    """(lam, n) -> [f_n(lam - d), f_n(lam + d)], f_n = g k^2 gamma_n - lam,
    d = gate.BRACKET_REL * sqrt(g/L0)."""
    gk2 = pipe.params.g * pipe.params.k**2
    d = gate.BRACKET_REL * pipe.bounds.lambda_max

    def f(lam, n):
        return [gk2 * pipe.builder.gamma(x, n) - x for x in (lam - d, lam + d)]
    return f


class TanhRoots:
    """Library path: build, solve_mode_index(n), count_modes, mode per root."""

    def setup(self, inp, spec):
        from rtspect import Pipeline, PhysicalParams, SolverOptions, make_profile
        prof = dict(inp["profile"])
        profile = make_profile(prof.pop("kind"), **prof)
        params = PhysicalParams(g=inp["g"], mu=inp["mu"], k=inp["k"])
        self.pipe = Pipeline(profile, params,
                             SolverOptions(n_elements=inp["n_elements"],
                                           tol=inp["tol"])).build()

    def solve(self, inp):
        from rtspect import SolverError
        pipe = self.pipe
        points, missing = [], []
        for n in inp["indices"]:
            try:
                points.extend(pipe.solve_mode_index(n))
            except SolverError as exc:
                missing.append({"n": n, "error": str(exc)})
        count = pipe.count_modes()
        roots = []
        for p in points:
            root = {"n": p.n, "lam": _hex(p.lam), "residual": _hex(p.residual),
                    "margin": _hex(p.margin)}
            try:
                mode = pipe.mode(p)
            except SolverError as exc:
                root["mode_error"] = str(exc)
            else:
                root["mode"] = (hashlib.sha256(mode.dofs.tobytes()).hexdigest()
                                + _hex(mode.norm_scale))
            roots.append(root)
        return {"roots": roots, "missing": missing, "N": count.N,
                "lambda_max": _hex(pipe.bounds.lambda_max),
                "eps_star": _hex(pipe.eps_star),
                "gk2": _hex(pipe.params.g * pipe.params.k**2)}

    def check(self, inp, out):
        f = _dispersion_function(self.pipe)
        return {"brackets": [f(float.fromhex(r["lam"]), r["n"])
                             for r in out["roots"]]}


class BumpKgrid:
    """CLI path: parse_config, then `rtspect dispersion` on a k grid."""

    def setup(self, inp, spec):
        from rtspect import cli
        self.cli = cli
        self.config = spec["config"]
        with open(self.config) as fh:
            self.cfg = cli.parse_config(fh.read())

    def solve(self, inp):
        out_dir = os.path.dirname(self.config)
        code = self.cli.main(["dispersion", "--config", self.config,
                              "--out", out_dir,
                              "--threads", str(inp["threads"])])
        csv_text = ""
        if code == 0:
            with open(os.path.join(out_dir, "dispersion.csv")) as fh:
                csv_text = fh.read()
        return {"exit_code": code, "csv": csv_text,
                "k_values": [_hex(k) for k in self.cfg.k_values]}

    def check(self, inp, out):
        # one fresh Pipeline per k, as the CLI builds them
        import csv
        import io
        from rtspect import Pipeline, PhysicalParams, profile_bounds
        params = PhysicalParams(g=inp["g"], mu=inp["mu"], k=1.0)
        post = {"lambda_max": _hex(
            profile_bounds(self.cfg.profile, params).lambda_max)}
        if out["exit_code"] == 0:
            rows = list(csv.DictReader(io.StringIO(out["csv"])))
            brackets = [None] * len(rows)
            for k in self.cfg.k_values:
                f = None
                for i, row in enumerate(rows):
                    if abs(float(row["k"]) - k) <= 1e-9 * k:
                        f = f or _dispersion_function(Pipeline(
                            self.cfg.profile, self.cfg.params_for(k),
                            self.cfg.opts).build())
                        brackets[i] = f(float(row["lambda_n"]), int(row["n"]))
            post["brackets"] = brackets
        return post


class TanhOracle:
    """Evans oracle: find_roots over the 64-point grid [eps_star, sqrt(g/L0)]."""

    def setup(self, inp, spec):
        from rtspect import Pipeline, PhysicalParams, make_profile
        prof = dict(inp["profile"])
        self.profile = make_profile(prof.pop("kind"), **prof)
        self.params = PhysicalParams(g=inp["g"], mu=inp["mu"], k=inp["k"])
        pipe = Pipeline(self.profile, self.params)
        self.lo, self.hi = pipe.eps_star, pipe.bounds.lambda_max

    def solve(self, inp):
        import numpy as np
        from rtspect import find_roots
        grid = np.linspace(self.lo, self.hi, inp["grid_points"])
        roots = find_roots(self.profile, self.params, grid, tol=inp["tol"])
        return {"roots": [_hex(r) for r in roots],
                "eps_star": _hex(self.lo), "lambda_max": _hex(self.hi)}

    def check(self, inp, out):
        # Evans sign on both sides of each root, one tolerance away
        from rtspect import evans_function
        tol = inp["tol"]
        signs = []
        for r in out["roots"]:
            lam = float.fromhex(r)
            signs.append([evans_function(self.profile, self.params, lam - tol).sign,
                          evans_function(self.profile, self.params, lam + tol).sign])
        return {"signs": signs}


RUNNERS = {"tanh-roots": TanhRoots, "bump-kgrid": BumpKgrid,
           "tanh-oracle": TanhOracle}


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def main(argv):
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    inp = spec["inputs"]
    src = spec["src"]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import rtspect
    if os.path.dirname(os.path.dirname(os.path.abspath(rtspect.__file__))) != src:
        raise SystemExit(f"rtspect imported from {rtspect.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(inp["workload"]).install()
    runner = RUNNERS[inp["workload"]]()
    runner.setup(inp, spec)
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if not spec["setup_only"]:
        out = runner.solve(inp)
        t2 = time.perf_counter()
        result.update(solve_s=t2 - t1, outputs=out,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
        t3 = time.perf_counter()
        result["post"] = runner.check(inp, out) if spec["check"] else {}
        result["check_s"] = time.perf_counter() - t3
        result["env"] = environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
