"""Command-line front end: sectioned key=value configs in, CSV tables out.

Commands: dispersion (growth-rate table over the k grid), modes (per-mode
field dumps), outer-coeffs (boundary-coefficient sweeps), oracle (Evans scan)
and verify (invariant suite).  `dispersion --threads N` solves the k grid
in up to N forked worker processes.  Exit codes: 0 success, 1 numerical
failure or a dead worker process, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import tempfile
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import build_mesh, dump_forms, endpoint_block, psd_margins
from .errors import ConfigError, ProfileError, SolverError
from .evans import evans_function
from .modes import reconstruct_fields
from .outer_general import _closure_at
from .pipeline import LAMBDA_FLOOR_FACTOR, Pipeline, SolverOptions
from .profiles import COMPACT, PhysicalParams, make_profile
from .verification import format_results, run_verification

_PROFILE_KEYS = {"kind", "rho_minus", "rho_plus", "ell", "a", "csv"}
_PHYSICAL_KEYS = {"g", "mu", "k", "k_min", "k_max", "k_count", "k1", "k2"}
_NUMERICAL_KEYS = {"n_elements", "grading", "tol", "eps_star", "n_modes"}
_OUTPUT_KEYS = {"directory"}

_SCHEMA = """\
[profile]            # required
kind = tanh | bump | tabulated
rho_minus = <positive float>
rho_plus = <positive float>
ell = <float>        # tanh only
a = <float>          # bump only
csv = <path>         # tabulated only: two columns x, rho

[physical]           # required
g = <positive float>
mu = <positive float>
k = <positive float>            # or k_min/k_max/k_count for a grid
k1 = <float>  k2 = <float>      # optional split of a single k, k^2 = k1^2 + k2^2

[numerical]          # optional
n_elements = 256
grading = center:4 | uniform | geometric:<ratio>
tol = 1e-8
eps_star = <float>   # in (0, sqrt(g/L0)); default 0.01*sqrt(g/L0)
n_modes = 8

[output]             # optional
directory = .
"""


@dataclass
class RunConfig:
    profile: object
    k_values: list
    g: float
    mu: float
    k_split: tuple | None
    opts: SolverOptions
    out_dir: str = "."

    def params_for(self, k):
        if self.k_split is not None:
            k1, k2 = self.k_split
            return PhysicalParams(g=self.g, mu=self.mu, k=k, k1=k1, k2=k2)
        return PhysicalParams(g=self.g, mu=self.mu, k=k)


def _finite(text):
    """float(text); ValueError unless that is a finite number."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _getfloat(sec, key, name, required=False, default=None):
    if key not in sec:
        if required:
            raise ConfigError(
                f"missing required key '{key}' in section [{name}]\n"
                f"expected schema:\n{_SCHEMA}")
        return default
    try:
        return _finite(sec[key])
    except ValueError:
        raise ConfigError(
            f"{name}.{key} is not a finite number: {sec[key]!r}") from None


def _getint(sec, key, name, default=None):
    value = _getfloat(sec, key, name, default=default)
    if not float(value).is_integer():
        raise ConfigError(f"{name}.{key} is not a whole number: {sec[key]!r}")
    return int(value)


def _csv_samples(path):
    """The (x, rho) rows of a tabulated profile's CSV, each exactly two
    finite numbers; '#' rows are comments."""
    samples = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and not row[0].lstrip().startswith("#"):
                try:
                    x, rho = map(_finite, row)
                except ValueError:
                    raise ConfigError(f"profile.csv row {row!r} is not a "
                                      "pair of finite numbers x, rho") from None
                samples.append((x, rho))
    return samples


def parse_config(text):
    """Parse and validate the sectioned key=value configuration."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section, allowed in (("profile", _PROFILE_KEYS),
                             ("physical", _PHYSICAL_KEYS),
                             ("numerical", _NUMERICAL_KEYS),
                             ("output", _OUTPUT_KEYS)):
        if section in cp:
            unknown = set(cp[section]) - allowed
            if unknown:
                raise ConfigError(
                    f"unknown key '{sorted(unknown)[0]}' in section [{section}]")
    if "profile" not in cp or "physical" not in cp:
        raise ConfigError(f"config needs [profile] and [physical] sections\n"
                          f"expected schema:\n{_SCHEMA}")

    sec = cp["profile"]
    kind = sec.get("kind")
    if kind not in ("tanh", "bump", "tabulated"):
        raise ConfigError(f"profile.kind must be tanh, bump or tabulated, "
                          f"got {kind!r}")
    rho_minus = _getfloat(sec, "rho_minus", "profile",
                          required=kind != "tabulated")
    rho_plus = _getfloat(sec, "rho_plus", "profile",
                         required=kind != "tabulated")
    shape = {"tanh": "ell", "bump": "a"}.get(kind)
    if shape is None and not sec.get("csv"):
        raise ConfigError("profile.csv path is required for tabulated kind")
    kwargs = ({"samples": _csv_samples(sec["csv"])} if shape is None else
              {"rho_minus": rho_minus, "rho_plus": rho_plus,
               shape: _getfloat(sec, shape, "profile", required=True)})
    try:    # make_profile is the one check of a profile's parameters
        profile = make_profile(kind, **kwargs)
    except ProfileError as exc:
        raise ConfigError(f"profile: {exc}") from None

    sec = cp["physical"]
    g = _getfloat(sec, "g", "physical", required=True)
    mu = _getfloat(sec, "mu", "physical", required=True)
    if "k" in sec:
        k_values = [_getfloat(sec, "k", "physical", required=True)]
    elif {"k_min", "k_max", "k_count"} <= set(sec):
        k_min = _getfloat(sec, "k_min", "physical")
        k_max = _getfloat(sec, "k_max", "physical")
        count = _getint(sec, "k_count", "physical")
        if not k_min <= k_max or count < 1:
            raise ConfigError("physical needs k_min <= k_max, k_count >= 1")
        k_values = list(np.linspace(k_min, k_max, count))
    else:
        raise ConfigError("physical needs k or k_min/k_max/k_count\n"
                          f"expected schema:\n{_SCHEMA}")
    k_split = None
    if "k1" in sec or "k2" in sec:
        if len(k_values) > 1:
            raise ConfigError("physical.k1/k2 split a single k; "
                              "they cannot be combined with a k grid")
        k_split = (_getfloat(sec, "k1", "physical", required=True),
                   _getfloat(sec, "k2", "physical", required=True))

    opts = SolverOptions()
    if "numerical" in cp:
        sec = cp["numerical"]
        opts.n_elements = _getint(sec, "n_elements", "numerical",
                                  default=opts.n_elements)
        opts.grading = sec.get("grading", opts.grading)
        opts.tol = _getfloat(sec, "tol", "numerical", default=opts.tol)
        opts.eps_star = _getfloat(sec, "eps_star", "numerical", default=None)
        opts.n_modes = _getint(sec, "n_modes", "numerical",
                               default=opts.n_modes)
        if opts.tol <= 0 or opts.n_modes < 1:
            raise ConfigError("numerical values out of range")
        if opts.tol >= LAMBDA_FLOOR_FACTOR:
            # the root search's step tol*sqrt(g/L0) would reach the
            # bracket floor, LAMBDA_FLOOR_FACTOR*sqrt(g/L0)
            raise ConfigError(f"numerical.tol must be below "
                              f"{LAMBDA_FLOOR_FACTOR:g}")
        try:    # build_mesh checks both, on any window
            build_mesh(-1.0, 1.0, opts.n_elements, opts.grading)
        except SolverError as exc:
            raise ConfigError(f"numerical.n_elements/grading: {exc}") from None

    out_dir = "."
    if "output" in cp:
        out_dir = cp["output"].get("directory", ".")
    cfg = RunConfig(profile=profile, k_values=k_values, g=g, mu=mu,
                    k_split=k_split, opts=opts, out_dir=out_dir)
    try:    # PhysicalParams is the one check of g, mu, k and a k1/k2 split
        for k in k_values:
            cfg.params_for(k)
    except ProfileError as exc:
        raise ConfigError(f"physical: {exc}") from None
    return cfg


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dispersion_rows(cfg, k, dump_dir=None):
    pipe = Pipeline(cfg.profile, cfg.params_for(k), cfg.opts)
    points = pipe.dispersion()
    count = pipe.count_modes()
    rows = []
    for p in sorted(points, key=lambda p: (p.n, -p.lam)):
        rows.append([f"{k:.12g}", p.n, f"{p.lam:.12e}", f"{p.residual:.3e}",
                     f"{p.margin:.6e}", count.N])
    if dump_dir:
        lam = max(points, key=lambda p: p.lam).lam
        dump_forms(pipe.builder(lam).forms,
                   os.path.join(dump_dir, f"forms_k{k:g}.txt"))
    return rows


_WORKER_ARGS = None    # (cfg, dump_dir) of a forked dispersion worker


def _init_worker(cfg, dump_dir):
    global _WORKER_ARGS
    _WORKER_ARGS = (cfg, dump_dir)


def _worker_rows(k):
    cfg, dump_dir = _WORKER_ARGS
    return _dispersion_rows(cfg, k, dump_dir)


def _solve_k_grid(cfg, ks, threads, dump_dir):
    """Row lists per k, in k order.  Up to `threads` forked processes, capped
    at the grid size and the CPU count; serial where fork is unavailable.

    The config (whose profiles hold closures and cannot be pickled) reaches
    the workers by fork through the pool initializer; only the k values and
    the rows of strings and ints cross the pipes.  Fork is safe here because
    the CLI starts no threads, and the pool forks all its workers before it
    starts its own manager thread.
    """
    workers = min(threads, len(ks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(cfg, dump_dir)) as pool:
                return list(pool.map(_worker_rows, ks))
    return [_dispersion_rows(cfg, k, dump_dir) for k in ks]


def cmd_dispersion(cfg, out_dir, threads, dump_dir=None):
    header = ["k", "n", "lambda_n", "residual", "coercivity_margin",
              "N_eps_star"]
    all_rows = _solve_k_grid(cfg, cfg.k_values, threads, dump_dir)
    rows = [r for rs in all_rows for r in rs]
    path = os.path.join(out_dir, "dispersion.csv")
    _write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_modes(cfg, out_dir):
    k = cfg.k_values[0]
    pipe = Pipeline(cfg.profile, cfg.params_for(k), cfg.opts)
    points = pipe.dispersion()
    best = {}
    for p in points:
        if p.n not in best or p.lam > best[p.n].lam:
            best[p.n] = p
    for n, p in sorted(best.items()):
        mode = pipe.mode(p)
        xs = np.linspace(mode.outer_left.reach, mode.outer_right.reach, 2001)
        f = reconstruct_fields(mode, cfg.profile, pipe.params, xs)
        rows = np.column_stack([f.x, f.phi, f.dphi, f.d2phi, f.d3phi,
                                f.zeta, f.psi, f.theta, f.q])
        path = os.path.join(out_dir, f"mode_{n}.csv")
        _write_csv(path, ["x", "phi", "dphi", "d2phi", "d3phi",
                          "zeta", "psi", "theta", "q"],
                   [[f"{v:.12e}" for v in row] for row in rows])
        print(f"wrote {path} (lambda_{n} = {p.lam:.9e})")
    return 0


def cmd_outer_coeffs(cfg, out_dir):
    k = cfg.k_values[0]
    pipe = Pipeline(cfg.profile, cfg.params_for(k), cfg.opts).build()
    par = pipe.params
    grid = np.linspace(pipe.eps_star, pipe.bounds.lambda_max, 8)
    if cfg.profile.kind == COMPACT:
        ends, xs = ("left", "right"), pipe.window
        n = np.reshape([pipe.builder.tails(lam) for lam in grid], (-1, 2, 4))
    else:
        x_left = -pipe.setup.left.edges[::-1]     # ascending in x
        sides = (("left", x_left[::6][::-1]),
                 ("right", pipe.setup.right.edges[::6]))
        ends = [end for end, x in sides for _ in x]
        xs = np.concatenate([x for _, x in sides])
        pairs = pipe.engine.solve(grid)
        n = np.concatenate([_closure_at([p[end] for p in pairs], x)
                            for end, x in sides], axis=1)  # (lambda, end, 4)
    # b^2 - 4ac of the endpoint form over mu^2, the same at both ends
    block = endpoint_block("right", np.moveaxis(n, -1, 0), par,
                           cfg.profile.rho(np.asarray(xs)), grid[:, None])
    disc = -psd_margins(block)[2] / par.mu**2
    rows = [[end, f"{x:.9e}", f"{lam:.9e}", *(f"{v:.12e}" for v in c),
             f"{d:.12e}"]
            for lam, n_lam, d_lam in zip(grid, n, disc)
            for end, x, c, d in zip(ends, xs, n_lam, d_lam)]
    path = os.path.join(out_dir, "outer_coeffs.csv")
    _write_csv(path, ["end", "x_end", "lambda", "n11", "n12", "n21", "n22",
                      "discriminant"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_oracle(cfg, out_dir):
    k = cfg.k_values[0]
    pipe = Pipeline(cfg.profile, cfg.params_for(k), cfg.opts)
    lo = pipe.eps_star
    grid = np.linspace(lo, pipe.bounds.lambda_max, 65)
    rows = [[f"{s.lam:.12e}", f"{s.sign:+.0f}", f"{s.log_magnitude:.9e}"]
            for s in evans_function(cfg.profile, pipe.params, grid)]
    path = os.path.join(out_dir, "oracle.csv")
    _write_csv(path, ["lambda", "sign", "log_magnitude"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_verify(cfg, seed=0):
    k = cfg.k_values[0]
    pipe = Pipeline(cfg.profile, cfg.params_for(k), cfg.opts)
    results = run_verification(pipe, seed=seed)
    print(format_results(results))
    return 0 if all(ok for _, ok, _ in results) else 1


_COMMANDS = {
    "dispersion": cmd_dispersion,
    "modes": cmd_modes,
    "outer-coeffs": cmd_outer_coeffs,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def run(command, cfg, out_dir=None, threads=1, seed=0, dump_matrices=False):
    """Dispatch one command on a parsed config; returns the exit code."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"choose from {sorted(_COMMANDS)}")
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {threads}")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if command == "verify":
        return cmd_verify(cfg, seed=seed)
    if command == "dispersion":
        return cmd_dispersion(cfg, out_dir, threads,
                              dump_dir=out_dir if dump_matrices else None)
    return _COMMANDS[command](cfg, out_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rtspect",
        description="Growth rates and normal modes of the viscous "
                    "Rayleigh-Taylor problem for increasing density profiles.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes solving the k grid (at "
                        "least 1; capped at the grid size and CPU count)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probes in verify")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="debug: dump assembled matrices as text triplets")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        return run(args.command, cfg, args.out, args.threads, args.seed,
                   dump_matrices=args.dump_matrices)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor as exc:
        print(f"error: worker: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
