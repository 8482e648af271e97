"""Brent's methods: the package's one root finder and its bounded minimizer.

`brentq` is Brent's root finder (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4) in the form of scipy's C `brentq`: the same
half tolerance delta, bisection step sbis, and choice between inverse
quadratic interpolation, the secant and bisection, so it visits the same
points.  `minimize_bounded` is Brent's minimizer on a closed interval
(ch. 5), golden section plus parabolic steps, in the form of scipy's
`minimize_scalar(method="bounded")`.  Both run on Python floats, so every
step rounds as the original does and the results are the same floats.
"""

from __future__ import annotations

import math
import sys

from .errors import SolverError

# smallest relative tolerance at which the step test still means something
_RTOL = 4 * sys.float_info.epsilon
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


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


def minimize_bounded(f, a, b, xatol, maxiter=500):
    """(x, f(x)) at a local minimum of f on [a, b].

    Stops once x is within about 2*(sqrt(eps)|x| + xatol/3) of the minimum,
    or after maxiter evaluations, keeping the best point found.
    """
    a, b = float(a), float(b)
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = float(f(xf))
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < maxiter:
        golden = True
        if abs(e) > tol1:
            # parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx
