import pytest

from rtspect.pipeline import Pipeline, SolverOptions
from rtspect.profiles import PhysicalParams, make_profile, profile_bounds

# growth rates of the reference fixtures located by the shooting oracle
# (compound-matrix bisection to 1e-11) ahead of everything else; the
# Galerkin path must land on these independently.
TANH_ORACLE_ROOTS = (0.26614571654, 0.06891361215, 0.02299049414, 0.00970411726)
BUMP_ORACLE_LAM1 = 0.30965120971


@pytest.fixture(scope="session")
def params():
    return PhysicalParams(g=1.0, mu=1.0, k=1.0)


@pytest.fixture(scope="session")
def tanh_profile():
    return make_profile("tanh", rho_minus=1.0, rho_plus=3.0, ell=1.0)


@pytest.fixture(scope="session")
def bump_profile():
    return make_profile("bump", rho_minus=1.0, rho_plus=3.0, a=1.0)


@pytest.fixture(scope="session")
def tanh_bounds(tanh_profile, params):
    return profile_bounds(tanh_profile, params)


@pytest.fixture(scope="session")
def bump_bounds(bump_profile, params):
    return profile_bounds(bump_profile, params)


@pytest.fixture(scope="session")
def bump_pipe(bump_profile, params):
    # mid-resolution context shared by the unit tests
    return Pipeline(bump_profile, params,
                    SolverOptions(n_elements=128, n_modes=8)).build()


@pytest.fixture(scope="session")
def tanh_pipe(tanh_profile, params):
    return Pipeline(tanh_profile, params,
                    SolverOptions(n_elements=160, n_modes=4)).build()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name): a list of the arguments of every later
    call of module.name, which still runs."""
    def install(module, name):
        calls, real = [], getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls
    return install
