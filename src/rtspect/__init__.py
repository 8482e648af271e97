"""rtspect: growth rates and normal modes of the viscous Rayleigh-Taylor problem.

Computes the discrete set of instability growth rates lambda_n and the
associated H4 eigenmodes of the fourth-order linearized problem on the real
line, for increasing density profiles with either a compactly supported or
an everywhere-positive gradient.  The whole-line problem is reduced to a
finite window with boundary closures built from the decaying tails, solved
as a symmetric-definite eigenvalue pencil over a C1 finite element space,
and every root is cross-checkable against an independent compound-matrix
shooting oracle.

`import rtspect` loads numpy only, enough for the profiles, the Evans oracle
and `Pipeline(...)`.  The Galerkin modules' names, which need `scipy.linalg`
and ARPACK, are bound on first use (PEP 562), as by `Pipeline.build`.
"""

import importlib
import types

from .errors import (BracketError, CoercivityError, CoercivitySearchError,
                     ConfigError, DegenerateBasisError, ExtrapolationError,
                     GluingError, ProfileError, RankError, SolverError,
                     StepSizeError, StiffnessError, TruncationError)
from .evans import EvansSample, evans_function, find_roots
from .pipeline import KGridWork, Pipeline, SolverOptions, k_grid_work
from .profiles import (COMPACT, INCREASING, DensityProfile, PhysicalParams,
                       ProfileBounds, make_profile, profile_bounds, validate)

_LAZY = {
    "assembly": ("DiscreteForms", "HermiteSpace", "KFreeForms", "Mesh",
                 "VolumeForms", "assemble_forms", "assemble_k_free",
                 "assemble_volume", "build_mesh", "coercivity_check",
                 "whole_line_identity_check"),
    "modes": ("GlobalMode", "PerturbationField", "glue_mode", "gluing_jumps",
              "ode_residual", "raw_trace_defects", "reconstruct_fields"),
    "outer_general": ("BoundaryFit", "DecayingPair", "GammaBounds",
                      "OuterSolutions", "PicardSetup", "SystemMatrices",
                      "coercive_window", "decay_envelopes", "gamma_bounds",
                      "system_matrices", "truncation_points"),
    "spectrum": ("CompactTails", "DispersionPoint", "ExponentialPair",
                 "ModeCount", "SliceBuilder", "SpectrumSlice",
                 "compact_outer_basis", "gamma_derivative_check",
                 "gamma_spectrum", "mode_count", "solve_dispersion"),
}

__all__ = sorted([n for n, v in globals().items() if not n.startswith("_")
                  and not isinstance(v, types.ModuleType)]
                 + [n for names in _LAZY.values() for n in names])
__version__ = "0.1.0"


def __getattr__(name):
    """A `_LAZY` module, or one of its names, bound here on first use."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            globals().update((n, getattr(mod, n)) for n in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
