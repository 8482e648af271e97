"""End-to-end orchestration: profile + parameters -> roots and global modes.

Wraps the per-module machinery with the default numerical policy: the
reduction window, mesh, builders, source of decaying tail pairs and mode
count grid are set up once per (profile, k), or once per k grid where no k
changes them (`k_grid_work`), and the root search walks mode indices with
an adaptive bracket floor (deep modes of compact-gradient profiles sit
orders of magnitude below the first one).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConfigError
from .profiles import COMPACT, profile_bounds

LAMBDA_FLOOR_FACTOR = 1e-4     # default bracket floor, fraction of sqrt(g/L0)

# names from the Galerkin modules, which load scipy: bound on the first build
_GALERKIN = {
    "assembly": ("HermiteSpace", "assemble_k_free", "build_mesh"),
    "modes": ("glue_mode",),
    "outer_general": ("BoundaryFit", "OuterSolutions", "_fit_lambdas",
                      "coercive_window", "gamma_bounds", "truncation_points"),
    "spectrum": ("SCAN_POINTS", "CompactTails", "ModeCount", "SliceBuilder",
                 "mode_count", "monotone_margin", "solve_dispersion"),
}


def _load():
    """Bind the `_GALERKIN` names; one already set here (a patch) is kept."""
    for module, names in _GALERKIN.items():
        mod = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name):
    if any(name in names for names in _GALERKIN.values()):
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolverOptions:
    n_elements: int = 256
    grading: str = "center:4"
    tol: float = 1e-8
    eps_star: float | None = None       # default 0.01 * sqrt(g/L0)
    n_modes: int = 8


@dataclass(frozen=True)
class KGridWork:
    """What no k changes in the Pipelines of one profile, g and options:
    the profile's `bounds`, and the k-free forms (`assemble_k_free`) on the
    mesh of a compact profile's window, its support whatever k; None for
    an increasing profile, whose window moves with k."""

    bounds: object
    free: object


def k_grid_work(profile, params, opts):
    """`KGridWork` of a k grid, built once; only params.g is read."""
    _load()
    bounds = profile_bounds(profile, params)
    free = None
    if profile.kind == COMPACT:
        free = assemble_k_free(profile, HermiteSpace(build_mesh(
            *profile.support, opts.n_elements, opts.grading)))
    return KGridWork(bounds, free)


class Pipeline:
    """Stateful solver context for one (profile, params) pair; `shared`
    is the `KGridWork` of a k grid of this profile, g and options, or None
    to build it all here."""

    def __init__(self, profile, params, opts=None, shared=None):
        self.profile = profile
        self.params = params
        self.opts = opts or SolverOptions()
        self.bounds = (shared.bounds if shared
                       else profile_bounds(profile, params))
        self._free = shared.free if shared else None
        lmax = self.bounds.lambda_max
        self.eps_star = (0.01 * lmax if self.opts.eps_star is None
                         else self.opts.eps_star)
        if not 0.0 < self.eps_star < lmax:
            raise ConfigError(f"eps_star = {self.eps_star!r} must lie in "
                              f"(0, sqrt(g/L0) = {lmax:.6g})")
        self.x_mid = self.bounds.x_rho_m
        self.monotone_margin = math.nan     # certificate, increasing kinds
        self._certified_nodes = 0           # the fit's nodes it was made on
        self._built = False

    def build(self):
        """Window, tail source, mesh and slice builder; a second call does
        nothing and no slice is built.

        The tail source is `CompactTails` for compact kinds.  For increasing
        profiles it is the boundary fit through the window's n_ij at 17
        lambdas, which a root check refines only where it misses.
        """
        if self._built:
            return self
        _load()
        opts = self.opts
        if self.profile.kind == COMPACT:
            self.engine = None
            self.setup = None
            tails = CompactTails(self.profile, self.params)
        else:
            self.gbounds = gamma_bounds(self.profile, self.params,
                                        self.eps_star, self.bounds)
            self.setup = truncation_points(self.profile, self.params,
                                           self.gbounds)
            self.engine = OuterSolutions(self.profile, self.params, self.setup)
            tails = BoundaryFit(self.engine, *coercive_window(
                self.profile, self.params, self.setup, self.engine))
        self.window = tails.window
        self.space = (self._free.space if self._free else HermiteSpace(
            build_mesh(*self.window, opts.n_elements, opts.grading)))
        self.builder = SliceBuilder(self.profile, self.params, self.space,
                                    max(opts.n_modes, 8), tails, self._free)
        self._built = True
        return self

    @property
    def monotone(self):
        """Whether every positive gamma_n decreases: proven for compact kinds,
        `monotone_margin` > 0 (made again on a refined fit) for increasing."""
        self.build()
        if self.profile.kind == COMPACT:
            return True
        tails = self.builder.tails
        if self._certified_nodes != tails.n_nodes:
            deg = 4 * (tails.n_nodes - 1)
            lams = _fit_lambdas(self.engine.lam_range, np.arange(deg + 1), deg)
            self.monotone_margin = monotone_margin(self.builder.volume,
                                                   tails.slopes(lams))
            self._certified_nodes = tails.n_nodes
        return self.monotone_margin > 0

    @property
    def count_grid(self):
        """The top bracket end if `monotone`, else the 64-point scan grid."""
        if self.monotone:
            return (self.bounds.lambda_max,)
        return np.linspace(self.eps_star, self.bounds.lambda_max, SCAN_POINTS)

    def solve_mode_index(self, n):
        """Dispersion root(s) for curve n, scanned at the bracket ends alone
        if `monotone`; compact kinds walk the floor down."""
        par, lmax = self.params, self.bounds.lambda_max
        lo = floor = self.eps_star
        if self.profile.kind == COMPACT:
            lo = LAMBDA_FLOOR_FACTOR * lmax
            floor = 4e-8 * par.k**2 * par.mu / self.profile.rho_plus
        while True:
            n_scan = 2 if self.monotone else SCAN_POINTS
            try:
                pts = solve_dispersion(self.builder, n, (lo, lmax),
                                       tol=self.opts.tol, n_scan=n_scan)
                # a fit refined at a root must certify the two points again
                if n_scan == SCAN_POINTS or self.monotone:
                    return pts
            except BracketError:
                if lo <= floor:
                    raise
                lo = max(lo / 100.0, floor)

    def dispersion(self, n_modes=None):
        """Points for n = 1..n_modes, flattened in order of n.

        The table ends at the first curve with no root and f_n < 0 on all
        of `count_grid`: gamma_{n+1} <= gamma_n, so no later curve has a
        root there either.  A curve with f_n >= 0 somewhere there raises.
        """
        n_modes = n_modes or self.opts.n_modes
        gk2 = self.params.g * self.params.k**2
        out = []
        for n in range(1, n_modes + 1):
            try:
                out.extend(self.solve_mode_index(n))
            except BracketError:
                if any(gk2 * self.builder.gamma(lam, n) >= lam
                       for lam in self.count_grid):
                    raise
                break
        return out

    def count_modes(self) -> ModeCount:
        """N(eps_star) on `count_grid`; after a search it builds no slice.

        The grid is the top slice when the curves decrease (`monotone`), and
        the 64-point scan grid otherwise, whose slices the search reuses.
        """
        self.build()
        return mode_count(self.builder, self.eps_star, self.count_grid)

    def mode(self, point):
        self.build()
        tails = self.builder.tails
        return glue_mode(point, self.space, tails(point.lam),
                         tails.pairs(point.lam), x_mid=self.x_mid)
