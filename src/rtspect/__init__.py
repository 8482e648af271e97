"""rtspect: growth rates and normal modes of the viscous Rayleigh-Taylor problem.

Computes the discrete set of instability growth rates lambda_n and the
associated H4 eigenmodes of the fourth-order linearized problem on the real
line, for increasing density profiles with either a compactly supported or
an everywhere-positive gradient.  The whole-line problem is reduced to a
finite window with boundary closures built from the decaying tails, solved
as a symmetric-definite eigenvalue pencil over a C1 finite element space,
and every root is cross-checkable against an independent compound-matrix
shooting oracle.
"""

from .assembly import (DiscreteForms, HermiteSpace, KFreeForms, Mesh,
                       VolumeForms, assemble_forms, assemble_k_free,
                       assemble_volume, build_mesh, coercivity_check,
                       whole_line_identity_check)
from .errors import (BracketError, CoercivityError, CoercivitySearchError,
                     ConfigError, DegenerateBasisError, ExtrapolationError,
                     GluingError, ProfileError, RankError, SolverError,
                     StepSizeError, StiffnessError, TruncationError)
from .evans import EvansSample, evans_function, find_roots
from .modes import (GlobalMode, PerturbationField, glue_mode, gluing_jumps,
                    ode_residual, raw_trace_defects, reconstruct_fields)
from .outer_general import (BoundaryFit, DecayingPair, GammaBounds,
                            OuterSolutions, PicardSetup, SystemMatrices,
                            coercive_window, decay_envelopes, gamma_bounds,
                            system_matrices, truncation_points)
from .pipeline import KGridWork, Pipeline, SolverOptions, k_grid_work
from .profiles import (COMPACT, INCREASING, DensityProfile, PhysicalParams,
                       ProfileBounds, make_profile, profile_bounds, validate)
from .spectrum import (CompactTails, DispersionPoint, ExponentialPair,
                       ModeCount, SliceBuilder, SpectrumSlice,
                       compact_outer_basis, gamma_derivative_check,
                       gamma_spectrum, mode_count, solve_dispersion)

__version__ = "0.1.0"
