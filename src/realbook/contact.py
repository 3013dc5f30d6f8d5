"""Numerical certification of the real contact construction.

Disk and annulus pages only: there the primitive one-form has a global
closed form on the chart (s, theta) with beta = e^s d(theta), the real
chart structure is (s, theta) -> (s, -theta), and the n-fold boundary
twist is theta -> theta + 2 pi n phi(s) for a fixed smooth ramp phi
with values running from 1 at the interior chart edge to 0 at the
boundary (the handedness that makes the twist term oppose the large-K
term with the orientation fixed below).

On the two mapping-torus pieces the candidate form is

    alpha_K = +-[(1-t) c*beta + t (f c)*beta - beta + 2K dt]

and the contact defect is the coefficient of alpha ^ d(alpha) against
the coherent volume pulled from the binding side through the gluing
(vartheta, r, phi) -> (s, theta, t) = (1 - r - eps, -vartheta, phi),
which is -(e^s ds ^ dtheta ^ dt) in chart coordinates.  With these
conventions the binding profiles pin to h1 = 2 e^{1-r-eps}, h2 = 2K at
the gluing region and the Wronskian condition h1 h2' - h1' h2 > 0 is
verifiable on (0, 1]; see the repository notes for why one sign in the
source construction cannot be taken literally.

In components alpha_K = P ds + Q dtheta + R dt with P = 2 pi n t e^s
phi'(s), Q = -2 e^s and R = 2K on the I_+ piece.  The form on the
opposite piece is defined as the negative of that expression in
matching chart labels, so c* alpha = -alpha holds by construction and
is not checked.  No component depends on theta, since the twist is a
rotation in theta and beta = e^s dtheta is invariant under rotations,
and t enters only P, linearly.  So the coefficient Q dP/dt + R dQ/ds
of alpha ^ d(alpha) is a function of s alone, and negating alpha on
the opposite piece leaves it unchanged.  The defect, the threshold
search and the large-K split are therefore evaluated on the s axis of
the grid only; the t axis is kept where an integrand has it (P), and
theta nowhere.  The grids are numpy.linspace's points, a + i*step with
the last point exactly the end value.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import ContactModelError
from .records import record

TAU = 2.0 * math.pi

RAMP_LO = -0.85
RAMP_HI = -0.15


def linspace(a: float, b: float, n: int) -> list[float]:
    """n evenly spaced points from a to b, bit-equal to numpy.linspace."""
    if n < 2:
        return [a] * n
    step = (b - a) / (n - 1)
    points = [a + i * step for i in range(n)]
    points[-1] = b
    return points


def _smoothstep(u: float) -> float:
    u = min(max(u, 0.0), 1.0)
    return 3.0 * u * u - 2.0 * u * u * u


def _smoothstep_d(u: float) -> float:
    return 6.0 * u * (1.0 - u) if 0.0 < u < 1.0 else 0.0


def ramp(s: float) -> float:
    """Twist profile: 1 at s = -1, 0 at s = 0, constant near both ends."""
    return 1.0 - _smoothstep((s - RAMP_LO) / (RAMP_HI - RAMP_LO))


def ramp_d(s: float) -> float:
    return -_smoothstep_d((s - RAMP_LO) / (RAMP_HI - RAMP_LO)) / (RAMP_HI - RAMP_LO)


def _first_min(values: list[float]) -> int:
    """Index of the first minimum; a NaN counts as the minimum, as in
    numpy.argmin, so a NaN anywhere can never pass a positivity test."""
    best = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v < values[best]:
            best = i
    return best


def _largest(values: list[float]) -> float:
    """The largest value, or a NaN if there is one."""
    return values[_first_min([-v for v in values])]


@record
class FormSampler:
    """Grid sampler for alpha_K on both mapping-torus pieces.

    family: number of boundary twists (0 is the disk book, n >= 1 the
    annulus book with monodromy the n-th power of the core twist).
    """

    family: int
    k: float
    resolution: int = 50

    def __post_init__(self):
        if self.family < 0:
            raise ContactModelError("family must be a disk (0) or annulus(n >= 1)")
        if self.family > 10:
            raise ContactModelError("annulus families are supported up to n = 10")
        if self.resolution < 2:
            raise ContactModelError("resolution must be at least 2")

    def grid(self) -> tuple[list[float], list[float], list[float]]:
        n = self.resolution
        return linspace(-1.0, 0.0, n), linspace(-math.pi, math.pi, n), linspace(0.0, 1.0, n)

    def alpha_at(self, s: float, t: float) -> tuple[float, float, float]:
        """(P, Q, R) with alpha = P ds + Q dtheta + R dt on piece +1 at
        the chart point (s, theta, t), for any theta."""
        e = math.exp(s)
        return TAU * self.family * t * e * ramp_d(s), -2.0 * e, 2.0 * self.k

    def alpha_components(self, piece: int) -> tuple[list[float], list[float], list[float]]:
        """alpha_at sampled on the grid of one piece: P on the s x t grid
        in row-major order, Q and R on the s grid (neither depends on t).
        Piece -1 is the negative of piece +1 by definition.
        """
        s, _theta, t = self.grid()
        sign = 1.0 if piece > 0 else -1.0
        p = [sign * self.alpha_at(si, tj)[0] for si in s for tj in t]
        q = [sign * self.alpha_at(si, 0.0)[1] for si in s]
        r = [sign * self.alpha_at(si, 0.0)[2] for si in s]
        return p, q, r

    def defect_grid(self, piece: int) -> list[float]:
        """Coefficient of alpha ^ d(alpha) against -(e^s ds dtheta dt),
        one value per s.

        With alpha = P ds + Q dtheta + R dt the coefficient on
        ds^dtheta^dt is Q dP/dt + R dQ/ds; one factor e^s cancels
        against the volume normalization and is cancelled symbolically
        so the disk family evaluates to 4K exactly.  Both pieces give
        the same values (alpha -> -alpha leaves alpha ^ d(alpha) fixed).
        """
        s, _theta, _t = self.grid()
        twist = TAU * self.family
        q_over_es = -2.0                                     # Q / e^s
        k_part = 2.0 * self.k * -2.0                         # R (dQ/ds) / e^s
        # (dP/dt) / 1 = 2 pi n e^s phi'(s)
        return [-(q_over_es * (twist * math.exp(si) * ramp_d(si)) + k_part) for si in s]

    def k_term_grid(self) -> list[float]:
        """Large-K part of the defect (the term linear in K), per s."""
        return [4.0 * self.k] * self.resolution


def contact_defect(fs: FormSampler) -> tuple[float, tuple]:
    """Minimum defect over both pieces with its lexicographic argmin
    (piece, s, theta, t).  The defect is the same on both pieces and
    constant in theta and t, so the first grid point in that order is
    on piece +1 at theta = -pi, t = 0."""
    defect = fs.defect_grid(+1)
    i = _first_min(defect)
    s, theta, t = fs.grid()
    return defect[i], (1, s[i], theta[0], t[0])


# the largest K the threshold search tries before it calls the model
# inconsistent
K_CAP = 1e6


def k_threshold(family: int, resolution: int = 50) -> float:
    """Smallest grid-certified K with positive defect, to 1% relative."""
    def min_defect(k: float) -> float:
        return min(FormSampler(family=family, k=k, resolution=resolution).defect_grid(+1))

    floor = 1e-9
    if min_defect(floor) > 0.0:
        return floor
    lo, hi = floor, 1.0
    while min_defect(hi) <= 0.0:
        lo = hi
        hi *= 2.0
        if hi > K_CAP:
            raise ContactModelError(
                f"no positive defect below K = {K_CAP}: model inconsistency")
    while hi - lo > 0.01 * hi:
        mid = 0.5 * (lo + hi)
        if min_defect(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# binding profiles

# the profiles are pinned exactly on [0, R0] and [R1, 1] and interpolate
# between; build_profiles certifies their Wronskian on GRID_POINTS radii
R0 = 0.2
R1 = 0.8
GRID_POINTS = 10_000


def _hermite_cubic(h: float, va: float, sa: float, vb: float, sb: float):
    """Coefficients (c0, c1, c2, c3) in u = (r - a)/h of the cubic with
    value va and r-slope sa at u = 0 and value vb, r-slope sb at u = 1."""
    return (va, h * sa, 3.0 * (vb - va) - h * (2.0 * sa + sb),
            2.0 * (va - vb) + h * (sa + sb))


@record
class ProfileFunctions:
    """Binding profiles h1, h2 on [0, 1] with exactly pinned ends.

    On [0, R0]: h1 = 1 and h2 = r^2 exactly.  On [R1, 1]: h1 =
    2 e^{1-r-eps} and h2 = 2K exactly, matching the page form through
    the gluing.  In between both interpolate by slope-matched cubics,
    stored as coefficients in u = (r - R0)/(R1 - R0).
    """

    k: float
    eps: float
    mid1: tuple[float, float, float, float]
    mid2: tuple[float, float, float, float]

    def samples(self, rr: Iterable[float]) -> Iterator[tuple[float, float, float, float]]:
        """(h1, h1', h2, h2') at each radius of rr, in one pass."""
        r0, r1, eps, h = R0, R1, self.eps, R1 - R0
        a0, a1, a2, a3 = self.mid1
        b0, b1, b2, b3 = self.mid2
        h2_tail = 2.0 * self.k
        exp = math.exp
        for r in rr:
            if r <= r0:
                yield 1.0, 0.0, r * r, 2.0 * r
            elif r < r1:
                u = (r - r0) / h
                yield (a0 + u * (a1 + u * (a2 + u * a3)),
                       (a1 + u * (2.0 * a2 + u * 3.0 * a3)) / h,
                       b0 + u * (b1 + u * (b2 + u * b3)),
                       (b1 + u * (2.0 * b2 + u * 3.0 * b3)) / h)
            else:
                e = 2.0 * exp(1.0 - r - eps)
                yield e, -e, h2_tail, 0.0

    def wronskians(self, rr: Iterable[float]) -> list[float]:
        return [h1 * dh2 - dh1 * h2 for h1, dh1, h2, dh2 in self.samples(rr)]


def build_profiles(k: float, eps: float) -> ProfileFunctions:
    """Construct and grid-certify the binding profiles.

    Verifies h1 h2' - h1' h2 > 0 on GRID_POINTS radii over [R0/10, 1]
    (the pinned head makes W = 2r exactly below that) and reports the
    violating radius otherwise, after retrying a few interior slope
    choices.
    """
    if k < 1:
        raise ContactModelError("need K >= 1")
    if not 0 < eps < 0.25:
        raise ContactModelError("need eps in (0, 0.25)")
    tail1 = 2.0 * math.exp(1.0 - R1 - eps)
    mid1 = _hermite_cubic(R1 - R0, 1.0, 0.0, tail1, -tail1)
    rr = linspace(R0 / 10.0, 1.0, GRID_POINTS)
    # candidate interior slopes for h2 at R0 (the tail is flat, but a
    # slightly steeper start can rescue marginal Wronskians)
    for s_end in (0.0, k, 4.0 * k):
        mid2 = _hermite_cubic(R1 - R0, R0 * R0, 2 * R0 + s_end / k, 2.0 * k, 0.0)
        pf = ProfileFunctions(k=k, eps=eps, mid1=mid1, mid2=mid2)
        w = pf.wronskians(rr)
        if all(x > 0.0 for x in w):
            return pf
    i = _first_min(w)
    raise ContactModelError(f"Wronskian not positive near r = {rr[i]:.4f} (min {w[i]:.3e})")


@record
class ExtensionReport:
    max_mismatch: float
    checks: tuple[tuple[str, float], ...]    # (coefficient, largest gap)


def solid_torus_extension_check(fs: FormSampler, pf: ProfileFunctions,
                                resolution: int = 40) -> ExtensionReport:
    """Compare the page form with the binding form on the whole gluing
    region r in [1 - eps, 1].

    The gluing (s, theta, t) = (1 - r - eps, -vartheta, phi) pulls
    alpha = P ds + Q dtheta + R dt back to -P dr - Q dvartheta + R dphi,
    which must be h1 dvartheta + h2 dphi: -P = 0, -Q = h1 and R = h2.
    P is linear in t and vanishes at t = 0, so its value at t = 1
    bounds it for every t.  Both forms are negated on the opposite
    half, so the I_+ half decides.  A NaN counts as the largest gap.
    """
    rr = linspace(1.0 - pf.eps, 1.0, resolution)
    gaps = []
    for r, (h1, _dh1, h2, _dh2) in zip(rr, pf.samples(rr)):
        p, q, big_r = fs.alpha_at(1.0 - r - pf.eps, 1.0)
        gaps.append((abs(-p), abs(-q - h1), abs(big_r - h2)))
    checks = tuple((name, _largest(col)) for name, col in zip(("dr", "dvartheta", "dphi"),
                                                              zip(*gaps)))
    return ExtensionReport(max_mismatch=_largest([v for _name, v in checks]), checks=checks)


def contact_report(family: int, k: float, resolution: int = 50) -> dict:
    """JSON-ready summary for one family at one K.  A non-finite K is
    malformed input (ValueError): its defects would be NaN or infinite."""
    if not math.isfinite(k):
        raise ValueError(f"K must be finite, got {k}")
    fs = FormSampler(family=family, k=k, resolution=resolution)
    mindef, argmin = contact_defect(fs)
    return {
        "family": "disk" if family == 0 else f"annulus:{family}",
        "K": k,
        "grid": resolution,
        "min_defect": mindef,
        "argmin": {"piece": argmin[0], "s": argmin[1], "theta": argmin[2], "t": argmin[3]},
    }
