"""End-to-end orchestration: profile + parameters -> roots and global modes.

Wraps the per-module machinery with the default numerical policy: the
reduction window, mesh, builders, source of decaying tail pairs and mode
count grid are set up once per (profile, k) and the root search walks mode
indices with an adaptive bracket floor (deep modes of compact-gradient
profiles sit orders of magnitude below the first one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import HermiteSpace, build_mesh
from .errors import BracketError, ConfigError
from .modes import glue_mode
from .outer_general import (BoundaryFit, OuterSolutions, _fit_lambdas,
                            coercive_window, gamma_bounds, truncation_points)
from .profiles import COMPACT, profile_bounds
from .spectrum import (SCAN_POINTS, CompactTails, ModeCount, SliceBuilder,
                       mode_count, monotone_margin, solve_dispersion)

LAMBDA_FLOOR_FACTOR = 1e-4     # default bracket floor, fraction of sqrt(g/L0)


@dataclass
class SolverOptions:
    n_elements: int = 256
    grading: str = "center:4"
    tol: float = 1e-8
    eps_star: float | None = None       # default 0.01 * sqrt(g/L0)
    n_modes: int = 8


class Pipeline:
    """Stateful solver context for one (profile, params) pair."""

    def __init__(self, profile, params, opts=None):
        self.profile = profile
        self.params = params
        self.opts = opts or SolverOptions()
        self.bounds = profile_bounds(profile, params)
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
        mesh = build_mesh(*self.window, opts.n_elements, opts.grading)
        self.space = HermiteSpace(mesh)
        self.builder = SliceBuilder(self.profile, self.params, self.space,
                                    max(opts.n_modes, 8), tails)
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
        return mode_count(self.builder, self.eps_star, self.count_grid)

    def mode(self, point):
        self.build()
        tails = self.builder.tails
        return glue_mode(point, self.space, tails(point.lam),
                         tails.pairs(point.lam), x_mid=self.x_mid)
