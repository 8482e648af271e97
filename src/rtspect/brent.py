"""The package's one root finder and the level search built on it.

`brentq` is Brent's root finder (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4) in the form of scipy's C `brentq`: the same
half tolerance delta, bisection step sbis, and choice between inverse
quadratic interpolation, the secant and bisection, so it visits the same
points.  It runs on Python floats, so every step rounds as the original
does and the results are the same floats.  `monotone_level` finds where a
decreasing function first reaches 0 on a half line: where a profile
has come close enough to its limit, for `profiles.limit_box` and the
truncation points.
"""

from __future__ import annotations

import math
import sys

from .errors import SolverError, TruncationError

# smallest relative tolerance at which the step test still means something
_RTOL = 4 * sys.float_info.epsilon


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100):
    """A root of f in [a, b], within xtol + rtol*|root| of a sign change.

    f(a) and f(b) must differ in sign (ValueError otherwise); a NaN value
    raises ValueError and running out of maxiter steps SolverError.  The
    root returned is always a point at which f was evaluated.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant through the two newest points
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic through all three
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise SolverError(f"Brent's root finder did not converge in {maxiter} "
                      f"steps on [{a!r}, {b!r}]")


def monotone_level(f, start, scale):
    """The smallest t >= start with f(t) <= 0, for f decreasing.

    Steps from start by scale, doubling each step, to the first t with
    f(t) <= 0, then refines the last step with `brentq`.  A t past
    1e6*scale raises TruncationError: the level is out of reach.
    """
    t = start
    step = scale
    while f(t) > 0:
        t += step
        step *= 2.0
        if abs(t) > 1e6 * scale:
            raise TruncationError(
                "profile approaches its limit too slowly to truncate; "
                "use a faster-decaying profile")
    if t == start:
        return start
    lo = t - step / 2.0  # the last t with f(t) > 0, up to rounding
    if f(lo) <= 0:
        return lo
    xtol = 1e-12 * max(1.0, abs(t))
    root = brentq(f, lo, t, xtol=xtol)
    # the crossing lies less than 2*xtol from root, on either side; step
    # past it when needed, since the callers rely on f(t) <= 0
    return root if f(root) <= 0 else root + 2.0 * xtol
