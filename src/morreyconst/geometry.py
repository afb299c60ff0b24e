"""Euclidean ball/sphere measure helpers.

The key quantity is :func:`cap_fraction_radii`: the fraction of the
sphere of radius t about the origin that lies inside a ball of radius r
whose center sits at distance d from the origin, with t given by its
gaps to the two ends of the ball's shell.  With it, the integral
of a radial function over an arbitrary ball collapses to a
one-dimensional integral in the radius t.

Both helpers are elementary for n <= 3, so the kernel never needs
scipy there: the ball volume is exact rational arithmetic rounded once,
and the cap fraction is arcsin (n = 2) or a square root (n = 3).  Only
n >= 4 cap fractions import ``scipy.special.betainc``, on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "unit_ball_volume",
    "unit_sphere_area",
    "cap_fraction_radii",
]

# pi to about 32 digits: the double nearest pi plus the double nearest
# the remainder, summed exactly
_PI = Fraction(math.pi) + Fraction(1.2246467991473532e-16)


@lru_cache(maxsize=None)
def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1).

    Evaluated by the recurrence v_n = (2 pi / n) v_(n-2) from v_0 = 1 and
    v_1 = 2 in exact rational arithmetic, then rounded once, so the
    result is the double nearest v_n (within 0.5 ulp).
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    v = Fraction(2 if n % 2 else 1)
    for k in range(2 + n % 2, n + 1, 2):
        v *= 2 * _PI / k
    return float(v)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n (2 when n = 1)."""
    return n * unit_ball_volume(n)


def cap_fraction_radii(n: int, inner, outer, d, r) -> np.ndarray:
    """Fraction of the sphere {|x| = t} inside the ball {|x - a| <= r}, |a| = d.

    The sphere is given by its gaps to the two ends of the ball's shell
    |d - r| <= |x| <= d + r: inner = t - |d - r| and outer = d + r - t.
    Vectorized: inner, outer, d and r broadcast against each other, so
    one call can serve many balls.  The cap {angle <= phi} on S^(n-1),
    phi the angle at the origin between a and the cap's rim, has
    fraction I(s2; (n-1)/2, 1/2) / 2 when cos(phi) >= 0, with s2 =
    sin^2 phi and I the regularized incomplete beta function, and the
    complement rule covers cos(phi) < 0.  For n = 2 and 3 that half cap
    is elementary:

        n = 2:  arcsin(sqrt(s2)) / pi
        n = 3:  (1 - sqrt(1 - s2)) / 2 = s2 / (2 (1 + sqrt(1 - s2)))

    and the n = 3 form is taken on the right, which has no cancellation
    on thin caps.  Only n >= 4 calls ``scipy.special.betainc``.  s2 is

        inner outer (t + |d - r|) (t + d + r) / (2 t d)^2,

    a product of sums: the gaps carry the digits of a thin cap, where
    1 - cos^2 phi cancels, and nothing here subtracts.  A caller that
    forms both gaps without cancellation keeps every digit; in the cap
    angle theta of the shell they are 2 h sin^2(theta/2) and
    2 h cos^2(theta/2), h = min(d, r), while t - |d - r| and d + r - t
    on a far thin ball would carry the rounding of t, about ulp(d).
    A sphere off the shell has fraction 1 when inner <= 0 and d <= r
    (it lies inside the ball) and 0 otherwise.  For n = 1 the sphere is
    the two-point set {-t, +t}, and a partial cap is exactly 1/2.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    inner, outer, d, r = (np.asarray(x, dtype=float) for x in (inner, outer, d, r))
    if (d < 0.0).any() or (r <= 0.0).any():
        raise ValueError("need center distances >= 0 and radii > 0")
    if n == 1:
        frac = np.full(np.broadcast_shapes(inner.shape, outer.shape, d.shape, r.shape), 0.5)
    else:
        diff, total = d - r, d + r
        gap = np.abs(diff)
        t = gap + inner
        with np.errstate(divide="ignore", invalid="ignore"):  # t d = 0 only off the shell
            two_td = 2.0 * t * d
            s2 = (inner * outer / two_td) * ((t + gap) * (t + total) / two_td)
        s2 = np.minimum(np.maximum(s2, 0.0), 1.0)
        if n == 2:
            half_cap = np.arcsin(np.sqrt(s2)) / np.pi
        elif n == 3:
            half_cap = s2 / (2.0 * (1.0 + np.sqrt(1.0 - s2)))
        else:
            # imported here, so that n <= 3 never loads scipy
            from scipy.special import betainc

            half_cap = 0.5 * betainc(0.5 * (n - 1), 0.5, s2)
        frac = np.where(t * t + diff * total >= 0.0, half_cap, 1.0 - half_cap)
    below, above = inner <= 0.0, outer <= 0.0
    if below.any() or above.any():
        frac = np.where(below, d <= r, np.where(above, 0.0, frac))
    return frac
