"""Workload inputs generated from a seed.

Seed 0 is exactly the reference fixture of the test suite.  Any other seed
draws the wavenumber and the profile width from a narrow range around it,
so that every seed does about the same amount of work and finds the same
number of roots.
"""

from __future__ import annotations

import random

WORKLOADS = ("tanh-roots", "bump-kgrid", "tanh-oracle")

# half-width of the relative range drawn around the reference k and width
SPREAD = 0.05


def _draw(rng, centre):
    return round(centre * rng.uniform(1.0 - SPREAD, 1.0 + SPREAD), 6)


def make_inputs(workload, seed):
    """Plain-data description of one workload; same seed, same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    ref = seed == 0
    if workload == "bump-kgrid":
        # k_count = 8 over [0.5, 4] puts k = 1 on the grid at seed 0
        return {
            "workload": workload,
            "profile": {"kind": "bump", "rho_minus": 1.0, "rho_plus": 3.0,
                        "a": 1.0 if ref else _draw(rng, 1.0)},
            "g": 1.0, "mu": 1.0,
            "k_min": 0.5 if ref else _draw(rng, 0.5),
            "k_max": 4.0 if ref else _draw(rng, 4.0),
            "k_count": 8,
            "n_elements": 128, "n_modes": 3, "tol": 1e-8,
            "threads": 2,
        }
    common = {
        "workload": workload,
        "profile": {"kind": "tanh", "rho_minus": 1.0, "rho_plus": 3.0,
                    "ell": 1.0 if ref else _draw(rng, 1.0)},
        "g": 1.0, "mu": 1.0,
        "k": 1.0 if ref else _draw(rng, 1.0),
    }
    if workload == "tanh-roots":
        return {**common, "n_elements": 256, "indices": [1, 2, 3],
                "tol": 1e-8}
    return {**common, "grid_points": 64, "tol": 1e-9}
