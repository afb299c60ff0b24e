"""Euclidean ball/sphere measure helpers.

The key quantity is :func:`cap_fraction_radii`: the fraction of the
sphere of radius t about the origin that lies inside a ball of radius r
whose center sits at distance d from the origin.  With it, the integral
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


def cap_fraction_radii(n: int, t, d, r) -> np.ndarray:
    """Fraction of the sphere {|x| = t} inside the ball {|x - a| <= r}, |a| = d.

    Vectorized: t, d and r broadcast against each other, so one call can
    serve many balls.  The cap {phi <= theta} on S^(n-1) with
    cos(theta) >= 0 has fraction I(s2; (n-1)/2, 1/2) / 2, with s2 =
    sin^2 theta and I the regularized incomplete beta function, and the
    complement rule covers cos(theta) < 0.  For n = 2 and 3 that half cap
    is elementary:

        n = 2:  arcsin(sqrt(s2)) / pi
        n = 3:  (1 - sqrt(1 - s2)) / 2 = s2 / (2 (1 + sqrt(1 - s2)))

    and the n = 3 form is taken on the right, which has no cancellation
    on thin caps.  Only n >= 4 calls ``scipy.special.betainc``.  s2
    comes from the factored form

        (d+r-t) (t-(d-r)) (t+(d-r)) (t+d+r) / (4 t^2 d^2),

    which keeps its digits on thin caps, where 1 - cos^2 theta cancels;
    on far balls (d > 2r) the factors t-(d-r) and d+r-t are formed as
    (t-d)+r and (d-t)+r.
    For n = 1 the sphere is the two-point set {-t, +t} and the fraction
    is exactly 0, 1/2 or 1.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    t, d, r = (np.asarray(x, dtype=float) for x in (t, d, r))
    if (d < 0.0).any() or (r <= 0.0).any() or (t < 0.0).any():
        raise ValueError("need sphere radii >= 0, center distances >= 0 and radii > 0")

    inside = t + d <= r          # sphere entirely within the ball
    outside = np.abs(t - d) >= r  # sphere entirely outside (or ball inside sphere)
    out = np.array(inside, dtype=float)
    # A centered ball (d = 0) and t = 0 never land in `partial`.
    partial = ~(inside | outside)
    if not partial.any():
        return out
    if n == 1:
        # exactly one of the two points {-t, +t} is within reach
        out[partial] = 0.5
        return out
    t, d, r = (x if x.ndim == 0 else np.broadcast_to(x, out.shape)[partial] for x in (t, d, r))
    diff, total = d - r, d + r
    # On a far ball (d > 2r) every t in the shell is within a factor 2 of
    # d, so t - d is exact and the two thin-cap factors (t - d) + r and
    # r - (t - d) = (d - t) + r round once; t - (d - r) and (d + r) - t
    # would carry the rounding of d - r or d + r into them.  The product
    # is formed in place, so that few point-sized arrays are alive at once.
    far = d > 2.0 * r
    t_d = t - d
    s2 = np.where(far, r - t_d, total - t)
    s2 *= np.where(far, t_d + r, t - diff)
    del t_d
    two_td = 2.0 * t * d
    s2 /= two_td
    s2 *= (t + diff) * (t + total) / two_td
    s2 = np.clip(s2, 0.0, 1.0)
    if n == 2:
        half_cap = np.arcsin(np.sqrt(s2)) / np.pi
    elif n == 3:
        half_cap = s2 / (2.0 * (1.0 + np.sqrt(1.0 - s2)))
    else:
        # imported here, so that n <= 3 never loads scipy
        from scipy.special import betainc

        half_cap = 0.5 * betainc(0.5 * (n - 1), 0.5, s2)
    out[partial] = np.where(t * t + diff * total >= 0.0, half_cap, 1.0 - half_cap)
    return out
