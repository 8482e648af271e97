import csv
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from conftest import TANH_ORACLE_ROOTS
from rtspect import cli
from rtspect.cli import main, parse_config
from rtspect.evans import evans_function
from rtspect.errors import ConfigError, SolverError
from rtspect.pipeline import Pipeline

# `--threads 2` forks a process pool only with fork and two CPUs
needs_pool = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the k grid is solved serially here")

MINIMAL = """
[profile]
kind = bump
rho_minus = 1.0
rho_plus = 3.0
a = 1.0

[physical]
g = 1.0
mu = 1.0
k = 1.0
"""

SMALL_NUMERICS = """
[numerical]
n_elements = 64
n_modes = 3
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.k_values == [1.0]
    assert cfg.opts.n_elements == 256
    assert cfg.opts.tol == 1e-8
    assert cfg.opts.n_modes == 8
    assert cfg.opts.eps_star is None  # resolved to 0.01*sqrt(g/L0) downstream


def test_parse_rejects_negative_mu():
    with pytest.raises(ConfigError, match="physical.mu|mu"):
        parse_config(MINIMAL.replace("mu = 1.0", "mu = -1.0"))


def test_parse_rejects_unknown_key():
    bad = MINIMAL + "\n[numerical]\nn_elements = 64\nfoo = 1\n"
    with pytest.raises(ConfigError, match=r"foo.*numerical|numerical.*foo"):
        parse_config(bad)


def test_eps_star_not_positive_exit_2(tmp_path):
    text = MINIMAL + "\n[numerical]\neps_star = 0\n"
    with pytest.raises(ConfigError, match="eps_star"):
        parse_config(text)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["outer-coeffs", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 2


def test_output_formats_key_rejected(tmp_path):
    text = MINIMAL + "\n[output]\nformats = csv\n"
    with pytest.raises(ConfigError, match="formats"):
        parse_config(text)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["outer-coeffs", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 2


def test_lambda_grid_points_key_rejected(tmp_path):
    # the count reads the search's own slices, so the grid size is no option
    text = MINIMAL + "\n[numerical]\nlambda_grid_points = 16\n"
    with pytest.raises(ConfigError, match="lambda_grid_points"):
        parse_config(text)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["outer-coeffs", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 2


def test_parse_missing_section_names_schema():
    with pytest.raises(ConfigError, match=r"\[physical\]"):
        parse_config("[profile]\nkind = tanh\nrho_minus = 1\nrho_plus = 2\nell = 1\n")


def test_parse_k_range():
    cfg = parse_config(MINIMAL.replace(
        "k = 1.0", "k_min = 1.0\nk_max = 4.0\nk_count = 4"))
    assert cfg.k_values == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_k_split_with_k_grid_rejected(tmp_path):
    # k1/k2 split a single k, so a k grid with them is an error
    text = MINIMAL.replace(
        "k = 1.0", "k_min = 0.5\nk_max = 1.0\nk_count = 2\nk1 = 0.3\nk2 = 0.4")
    with pytest.raises(ConfigError, match="k1/k2"):
        parse_config(text)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["dispersion", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 2


def test_threads_below_one_exit_2(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + SMALL_NUMERICS)
    for threads in ("0", "-1"):
        assert main(["dispersion", "--config", str(cfgfile), "--out",
                     str(tmp_path / "out"), "--threads", threads]) == 2
    assert not (tmp_path / "out").exists()


def _tabulated_config(tmp_path, physical):
    path = tmp_path / "prof.csv"
    xs = np.linspace(-2, 2, 21)
    with open(path, "w") as fh:
        for x, r in zip(xs, 2 + np.tanh(xs)):
            fh.write(f"{x},{r}\n")
    return (f"[profile]\nkind = tabulated\ncsv = {path}\n\n"
            f"[physical]\ng = 1.0\nmu = 1.0\n{physical}\n")


def test_parse_tabulated_csv(tmp_path):
    cfg = parse_config(_tabulated_config(tmp_path, "k = 1.0"))
    assert cfg.profile.family == "tabulated"


def test_invalid_command_exit_2(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    assert main(["frobnicate", "--config", str(cfgfile)]) == 2


def test_missing_config_exit_2():
    assert main(["dispersion", "--config", "/nonexistent/path.ini"]) == 2


@pytest.fixture(scope="module")
def disp_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    cfgfile = out / "c.ini"
    cfgfile.write_text(MINIMAL + SMALL_NUMERICS)
    code = main(["dispersion", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    return out


def test_dispersion_rows(disp_out):
    with open(disp_out / "dispersion.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "n", "lambda_n", "residual", "coercivity_margin",
                       "N_eps_star"]
    assert len(rows) == 4  # header + 3 modes
    lams = [float(r[2]) for r in rows[1:]]
    assert lams == sorted(lams, reverse=True)


def test_dispersion_deterministic(disp_out, tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + SMALL_NUMERICS)
    assert main(["dispersion", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    a = (disp_out / "dispersion.csv").read_bytes()
    b = (tmp_path / "dispersion.csv").read_bytes()
    assert a == b


def test_modes_dump(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[numerical]\nn_elements = 64\nn_modes = 2\n")
    assert main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mode_1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "phi", "dphi", "d2phi", "d3phi", "zeta", "psi",
                       "theta", "q"]
    phi = np.array([float(r[1]) for r in rows[1:]])
    assert np.max(np.abs(phi)) == pytest.approx(1.0, abs=1e-2)


def test_modes_grid_spans_tail_reach(tmp_path):
    # the x grid spans the tails' reach, -(a + 12/k) to a + 12/k = 13
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[numerical]\nn_elements = 64\nn_modes = 1\n")
    assert main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mode_1.csv") as fh:
        xs = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    assert (xs[0], xs[-1]) == (-13.0, 13.0)


def test_oracle_dump(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + SMALL_NUMERICS)
    assert main(["oracle", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "oracle.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "sign", "log_magnitude"]
    signs = [float(r[1]) for r in rows[1:]]
    assert set(signs) <= {-1.0, 1.0}
    assert len(rows) == 66
    # the grid is one batched call: rows agree with single evaluations
    cfg = parse_config(MINIMAL + SMALL_NUMERICS)
    for lam, sign, log_mag in (rows[1], rows[33], rows[65]):
        s = evans_function(cfg.profile, cfg.params_for(1.0), float(lam))
        assert float(sign) == s.sign
        assert float(log_mag) == pytest.approx(s.log_magnitude, abs=1e-8)


def _k_grid_file(tmp_path, k_min, k_max, k_count, n_modes):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL.replace(
        "k = 1.0", f"k_min = {k_min}\nk_max = {k_max}\nk_count = {k_count}")
        + f"\n[numerical]\nn_elements = 48\nn_modes = {n_modes}\n")
    return cfgfile


def test_threaded_k_grid_and_matrix_dump(tmp_path):
    cfgfile = _k_grid_file(tmp_path, 1.0, 2.0, 2, n_modes=2)
    code = main(["dispersion", "--config", str(cfgfile), "--out",
                 str(tmp_path), "--threads", "2", "--dump-matrices"])
    assert code == 0
    assert multiprocessing.active_children() == []
    with open(tmp_path / "dispersion.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2 k's x 2 modes
    dump = (tmp_path / "forms_k1.txt").read_text().splitlines()
    assert dump[0].startswith("# lambda")
    name, i, j, val = dump[1].split()
    assert name in {"K", "M_rho", "G"}
    float(val)


def test_threads_output_byte_identical(tmp_path):
    # each k is solved on its own; the fixed Lanczos start vector keeps the
    # eigensolve, and so the table, independent of the worker schedule.
    # The tabulated profile holds closures that cannot be pickled: the
    # config reaches the workers only by fork.
    bump = _k_grid_file(tmp_path, 0.5, 2.0, 3, n_modes=3).read_text()
    tabulated = _tabulated_config(
        tmp_path, "k_min = 0.5\nk_max = 1.5\nk_count = 3") + SMALL_NUMERICS
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(parse_config(tabulated))
    for name, text in (("bump", bump), ("tabulated", tabulated)):
        cfgfile = tmp_path / f"{name}.ini"
        cfgfile.write_text(text)
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}{threads}"
            assert main(["dispersion", "--config", str(cfgfile), "--out",
                         str(out), "--threads", threads]) == 0
            assert multiprocessing.active_children() == []
            tables.append((out / "dispersion.csv").read_bytes())
        assert tables[0].count(b"\n") == 10  # header + 3 k's x 3 modes
        assert tables[0] == tables[1]


@needs_pool
def test_threads_capped_at_grid_size(tmp_path, monkeypatch):
    # --threads 8 on a 2-point grid starts 2 worker processes
    started = tmp_path / "started"
    started.mkdir()
    init = cli._init_worker

    def recording_init(*args):
        (started / str(os.getpid())).touch()
        init(*args)

    monkeypatch.setattr(cli, "_init_worker", recording_init)
    cfgfile = _k_grid_file(tmp_path, 1.0, 2.0, 2, n_modes=2)
    assert main(["dispersion", "--config", str(cfgfile), "--out",
                 str(tmp_path / "out"), "--threads", "8"]) == 0
    assert multiprocessing.active_children() == []
    assert len(list(started.iterdir())) == 2
    with open(tmp_path / "out" / "dispersion.csv") as fh:
        assert len(list(csv.reader(fh))) == 5


@needs_pool
def test_dead_worker_exit_1(tmp_path, monkeypatch, capsys):
    # a worker that dies abruptly (as when OOM-killed) breaks the pool:
    # exit 1 with an error line, not a traceback, and no process left
    monkeypatch.setattr(cli, "_dispersion_rows", lambda *_args: os._exit(3))
    cfgfile = _k_grid_file(tmp_path, 1.0, 2.0, 2, n_modes=2)
    assert main(["dispersion", "--config", str(cfgfile), "--out",
                 str(tmp_path / "out"), "--threads", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: worker: ")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out" / "dispersion.csv").exists()


@needs_pool
def test_worker_solver_error_matches_serial(tmp_path, monkeypatch, capsys):
    rows = cli._dispersion_rows

    def failing_rows(cfg, k, dump_dir=None):
        if k > 1.5:
            raise SolverError(f"no bracket at k={k:g}")
        return rows(cfg, k, dump_dir)

    monkeypatch.setattr(cli, "_dispersion_rows", failing_rows)
    cfgfile = _k_grid_file(tmp_path, 1.0, 2.0, 2, n_modes=2)
    errors = []
    for threads in ("1", "2"):
        assert main(["dispersion", "--config", str(cfgfile), "--out",
                     str(tmp_path / threads), "--threads", threads]) == 1
        assert multiprocessing.active_children() == []
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: numerical: no bracket at k=2\n"


def test_verify_exits_zero_on_bump_fixture(tmp_path):
    # full invariant suite on the compact reference profile
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[numerical]\nn_elements = 192\nn_modes = 3\n")
    assert main(["verify", "--config", str(cfgfile), "--seed", "1"]) == 0


TANH = """
[profile]
kind = tanh
rho_minus = 1.0
rho_plus = 3.0
ell = 1.0

[physical]
g = 1.0
mu = 1.0
k = 1.0
"""


def test_verify_exits_zero_on_tanh_fixture(tmp_path):
    # the contraction check skips ratios of round-off updates (<= 1e-10),
    # like acceptance criterion 8
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(TANH + "\n[numerical]\nn_elements = 96\n")
    assert main(["verify", "--config", str(cfgfile)]) == 0


def test_outer_coeffs_dump(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(TANH + "\n[numerical]\nn_elements = 64\n")
    assert main(["outer-coeffs", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "outer_coeffs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["end", "x_end", "lambda"]
    assert len(rows) == 1 + 432     # 8 lambdas at 27 edges per side
    ends = {r[0] for r in rows[1:]}
    assert ends == {"left", "right"}
    # negative discriminants on both sides, the left rows lying outside
    # x_tilde_minus (they are built from the mirrored half line)
    cfg = parse_config(cfgfile.read_text())
    setup = Pipeline(cfg.profile, cfg.params_for(1.0), cfg.opts).build().setup
    for side in ("left", "right"):
        side_rows = [r for r in rows[1:] if r[0] == side]
        assert side_rows and all(float(r[-1]) < 0 for r in side_rows)
    assert all(float(r[1]) <= setup.x_tilde_minus
               for r in rows[1:] if r[0] == "left")


def test_dispersion_on_tanh_defaults(tmp_path):
    # the default n_modes = 8 asks for more curves than the tanh fixture
    # has roots above eps_star (4): the table ends at the first curve
    # below the scan grid instead of failing
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(TANH + "\n[numerical]\nn_elements = 64\n")
    assert main(["dispersion", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "dispersion.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
    lams = [float(r[2]) for r in rows]
    assert lams == pytest.approx(TANH_ORACLE_ROOTS, abs=1e-4)
