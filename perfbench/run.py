"""rtspect benchmark: time to verified growth rates, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload tanh-roots --seed 0 --seconds 40 --trace 0

Each repetition runs in a fresh process (perfbench/worker.py) that drives
only rtspect's public API or CLI.  With --trace 0 the run repeats the
untraced workload while the next repetition still fits in --seconds,
follows each repetition with set-up-only processes, and reports the medians
of setup_s, solve_s and peak_rss_mb.  With --trace 1 it runs one untraced and one traced
repetition, requires their outputs to be bit-identical, writes the spans to
.bench_out/<workload>.trace.json and reports the per-layer metrics.  Every
repetition passes through the correctness gate; the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# OpenBLAS is pinned to one thread in every workload process.  With the
# inherited default (one thread per core) the bump k-grid solve on a 2-core
# machine took 24.1/27.9/29.4 s, against 7.8/8.6/7.8 s pinned: 3x slower
# and a 20% spread, because the two CLI workers and the BLAS threads fight
# for the same cores.  Pinned, the CLI's 2 workers use 2 threads in all.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up-only processes that follow each repetition of an untraced run,
# so that the set-up samples spread over the whole run like the solve ones
SETUPS_PER_REP = 2
DEADLINE_S = 170.0        # the whole run must end within 180 s
UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


def bump_config(inp, out_dir):
    """The CLI config file of the bump k-grid workload."""
    p = inp["profile"]
    text = (f"[profile]\nkind = bump\nrho_minus = {p['rho_minus']!r}\n"
            f"rho_plus = {p['rho_plus']!r}\na = {p['a']!r}\n\n"
            f"[physical]\ng = {inp['g']!r}\nmu = {inp['mu']!r}\n"
            f"k_min = {inp['k_min']!r}\nk_max = {inp['k_max']!r}\n"
            f"k_count = {inp['k_count']}\n\n"
            f"[numerical]\nn_elements = {inp['n_elements']}\n"
            f"n_modes = {inp['n_modes']}\ntol = {inp['tol']!r}\n")
    path = os.path.join(out_dir, "bump.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, inp, out_dir, deadline):
        self.inp = inp
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ, **{v: "1" for v in PINNED})
        self.env.pop("PYTHONPATH", None)
        self.config = (bump_config(inp, out_dir)
                       if inp["workload"] == "bump-kgrid" else None)
        self.count = 0
        self.walls = []     # of the repetitions that solve, without checks

    def fits(self, end):
        """Whether one more repetition should end by `end` (the set-up-only
        processes that follow it may run past `end`)."""
        return time.monotonic() + statistics.median(self.walls) <= end

    def rep(self, setup_only=False, trace=False, check=False):
        self.count += 1
        spec_path = os.path.join(self.out_dir, f"spec{self.count}.json")
        result_path = os.path.join(self.out_dir, f"result{self.count}.json")
        with open(spec_path, "w") as fh:
            json.dump({"inputs": self.inp, "src": SRC, "config": self.config,
                       "setup_only": setup_only, "trace": trace,
                       "check": check}, fh)
        began = time.monotonic()
        timeout = self.deadline - began
        if timeout <= 0:
            raise RuntimeError("out of time before the repetition started")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 spec_path, result_path],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"repetition {self.count} ran past the "
                               f"{DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        if not setup_only:
            self.walls.append(time.monotonic() - began - result["check_s"])
        return result


def fingerprint(result):
    return json.dumps(result["outputs"], sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "rtspect", "__init__.py")):
        print(f"error: no rtspect source under {SRC}", file=sys.stderr)
        return 2
    inp = inputs.make_inputs(args.workload, args.seed)
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(inp, out_dir, start + DEADLINE_S)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inputs": inp}))

    try:
        if args.trace:
            reps = [runner.rep(check=True), runner.rep(trace=True)]
            setups = []
        else:
            reps, setups = [runner.rep(check=True)], []
            while True:
                setups += [runner.rep(setup_only=True)["setup_s"]
                           for _ in range(SETUPS_PER_REP)]
                if not runner.fits(start + args.seconds):
                    break
                reps.append(runner.rep())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"env": reps[0]["env"]}))
    attempted = failed = 0
    for i, r in enumerate(reps):
        for label, err in gate.check(args.workload, inp, args.seed,
                                     r["outputs"], r["post"]):
            attempted += 1
            if err is not None:
                failed += 1
                print(f"FAILED rep {i} {label}: {err}", file=sys.stderr)
    for note in gate.residual_notes(args.workload, inp, reps[0]["outputs"]):
        print(f"NOTE {note}", file=sys.stderr)
    identical = len({fingerprint(r) for r in reps}) == 1
    if not identical:
        print("FAILED outputs differ between repetitions"
              + (" (traced against untraced)" if args.trace else ""),
              file=sys.stderr)

    if args.trace:
        untraced, traced = reps
        n_roots = gate.roots_found(args.workload, traced["outputs"])
        values = spans.layer_metrics(traced["spans"], n_roots,
                                     untraced["solve_s"], traced["solve_s"])
        metrics = {name: {"value": v, "unit": spans.unit_of(name)}
                   for name, v in values.items()}
        with open(os.path.join(OUT, f"{args.workload}.trace.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": reps[0]["env"], "spans": traced["spans"]}, fh)
    else:
        samples = {"setup_s": setups + [r["setup_s"] for r in reps],
                   "solve_s": [r["solve_s"] for r in reps],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
        print(json.dumps({"samples": samples}))
        metrics = {name: {"value": statistics.median(v), "unit": UNITS[name]}
                   for name, v in samples.items()}
    print(json.dumps({"correct": failed == 0 and identical,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
