"""Young functions, generalized inverses, numeric convex conjugates.

A Young function is a continuous, even, convex function with phi(0) = 0,
phi(t) > 0 for t > 0 and phi(t) -> infinity.  Three families are provided:

* ``PowerYoung(p)``      phi(t) = |t|**p / p, p >= 1
* ``PowerLogYoung(a)``   phi(t) = |t|**a * (1 + |log|t||), a > 1
* ``CustomYoung``        monotone piecewise-linear interpolation of a
                         user-supplied sample grid on [0, t_max]

Note: PowerLogYoung follows the classical formula even though for small
exponents (a below roughly 2.62) it has a narrow non-convex window just
left of |t| = 1; it is strictly increasing everywhere, which is all the
norm and inverse machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONJUGATE_BRACKET_CAP = 1e6
INVERSE_REL_TOL = 1e-12
# a custom grid must reach this value to stand in for phi -> infinity
DIVERGENCE_FLOOR = 1.0


class YoungFunctionError(Exception):
    pass


class InvalidParameterError(YoungFunctionError):
    pass


class OutOfGridError(YoungFunctionError):
    pass


class UnboundedInverseError(YoungFunctionError):
    pass


class ConjugateDivergesError(YoungFunctionError):
    pass


@dataclass(frozen=True)
class Delta2Report:
    """Sampled doubling-ratio diagnostic: m_delta = sup phi(2t)/phi(t)."""

    m_delta: float
    regular: bool
    empty_range: bool = False


class YoungFunction:
    """Base class; subclasses provide the pointwise and the array formula."""

    t_max: float = math.inf

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        """phi at every entry of a float64 array of nonnegative inputs; +inf
        past a custom grid."""
        raise NotImplementedError

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized phi(|t|)."""
        return self.values(np.abs(np.asarray(ts, dtype=np.float64)))

    def inverse(self, s: float) -> float:
        """Generalized inverse sup{t >= 0 : phi(t) <= s} by bisection.

        Equals the ordinary inverse whenever phi is strictly increasing.
        Relative tolerance 1e-12.
        """
        if s < 0:
            raise InvalidParameterError("inverse argument must be nonnegative")
        if s == 0.0:
            return 0.0
        cap = self.t_max if math.isfinite(self.t_max) else 1e300
        hi = min(1.0, cap)
        while self(hi) <= s:
            if hi >= cap:
                if self(hi) < s:
                    raise UnboundedInverseError(f"level {s} exceeds phi({cap})={self(hi)}")
                return hi  # the sublevel set reaches the end of the domain
            hi = min(2.0 * hi, cap)
        lo = 0.0
        while hi - lo > INVERSE_REL_TOL * max(1.0, lo):
            mid = 0.5 * (lo + hi)
            if self(mid) <= s:
                lo = mid
            else:
                hi = mid
        return lo

    def conjugate(self, y: float) -> float:
        """Numeric complementary function sup{x|y| - phi(x) : x >= 0}.

        A coarse scan picks the best bracket, then golden-section search
        refines it; the result is within 1e-8 of the supremum whenever it
        is attained below the bracket cap.  Raises ConjugateDivergesError
        if the objective is still climbing at the cap.
        """
        ay = abs(y)

        def g(x: float) -> float:
            return x * ay - self(x)

        if ay == 0.0:
            return 0.0
        cap = min(CONJUGATE_BRACKET_CAP, self.t_max)
        hi = min(1.0, cap)
        while 2.0 * hi <= cap and g(2.0 * hi) > g(hi):
            hi *= 2.0
        hi = min(2.0 * hi, cap)
        if hi >= cap and g(cap) > g(cap * (1.0 - 1e-9)):
            raise ConjugateDivergesError(
                f"objective for y={y} still increasing at bracket cap {cap}"
            )
        xs = np.linspace(0.0, hi, 257)
        vals = xs * ay - self.value_array(xs)
        i = int(np.argmax(vals))
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, len(xs) - 1)]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        gc, gd = g(c), g(d)
        for _ in range(200):
            if b - a < 1e-13 * max(1.0, b):
                break
            if gc > gd:
                b, d, gd = d, c, gc
                c = b - invphi * (b - a)
                gc = g(c)
            else:
                a, c, gc = c, d, gd
                d = a + invphi * (b - a)
                gd = g(d)
        return max(g(0.5 * (a + b)), gc, gd, float(vals[i]), 0.0)

    def delta2_report(self, t_lo: float, t_hi: float, samples: int = 256) -> Delta2Report:
        """Estimate the doubling constant sup phi(2t)/phi(t) on [t_lo, t_hi].

        ``regular`` is false when the ratio grows monotonically across the
        top decade of the range (the sampled signature of an unbounded
        doubling ratio).  A degenerate range is reported, not raised.
        """
        if samples < 2 or t_lo <= 0 or t_hi <= t_lo:
            return Delta2Report(m_delta=math.nan, regular=False, empty_range=True)
        hi = t_hi
        if math.isfinite(self.t_max):
            hi = min(hi, self.t_max / 2.0)  # keep phi(2t) on the grid
            if hi <= t_lo:
                return Delta2Report(m_delta=math.nan, regular=False, empty_range=True)
        ts = np.geomspace(t_lo, hi, samples)
        ratios = self.value_array(2.0 * ts) / self.value_array(ts)
        m_delta = float(np.max(ratios))
        top = ratios[ts >= hi / 10.0]
        if len(top) >= 3:
            diffs = np.diff(top)
            growing = bool(np.all(diffs > 0)) and top[-1] / top[0] > 1.25
        else:
            growing = False
        return Delta2Report(m_delta=m_delta, regular=not growing)


@dataclass(frozen=True)
class PowerYoung(YoungFunction):
    """phi(t) = |t|**p / p; the Orlicz space is then the Lebesgue L^p space."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise InvalidParameterError(f"power family requires p >= 1, got {self.p}")

    def __call__(self, t: float) -> float:
        try:
            return abs(t) ** self.p / self.p
        except OverflowError:  # like ``values``: +inf past the float range
            return math.inf

    def values(self, ts: np.ndarray) -> np.ndarray:
        return ts**self.p / self.p

    def conjugate_exponent(self) -> float:
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class PowerLogYoung(YoungFunction):
    """phi(t) = |t|**alpha * (1 + |log|t||), alpha > 1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 1.0 and math.isfinite(self.alpha)):
            raise InvalidParameterError(
                f"power-log family requires alpha > 1, got {self.alpha}"
            )

    def __call__(self, t: float) -> float:
        u = abs(t)
        if u == 0.0:
            return 0.0
        try:
            return u**self.alpha * (1.0 + abs(math.log(u)))
        except OverflowError:  # like ``values``: +inf past the float range
            return math.inf

    def values(self, ts: np.ndarray) -> np.ndarray:
        out = np.zeros_like(ts)
        pos = ts > 0.0
        u = ts[pos]
        out[pos] = u**self.alpha * (1.0 + np.abs(np.log(u)))
        return out


class CustomYoung(YoungFunction):
    """Piecewise-linear Young function from a sampled grid on [0, t_max].

    The grid must start at (0, 0), be strictly increasing in t,
    nondecreasing and positive in phi for t > 0, and have nondecreasing
    slopes (convexity of the interpolant), and end at DIVERGENCE_FLOOR
    or above.
    """

    def __init__(self, samples):
        ts = np.asarray([s[0] for s in samples], dtype=np.float64)
        ys = np.asarray([s[1] for s in samples], dtype=np.float64)
        if len(ts) < 3 or not np.isfinite([ts, ys]).all():
            raise InvalidParameterError("custom grid needs at least 3 samples, all finite")
        if ts[0] != 0.0 or ys[0] != 0.0:
            raise InvalidParameterError("custom grid must start at (0, 0)")
        if np.any(np.diff(ts) <= 0):
            raise InvalidParameterError("custom grid abscissae must strictly increase")
        if np.any(ys[1:] <= 0.0) or np.any(np.diff(ys) < 0):
            raise InvalidParameterError("custom grid values must be positive and nondecreasing")
        slopes = np.diff(ys) / np.diff(ts)
        tol = 1e-9 * (1.0 + float(ys[-1]))
        if np.any(np.diff(slopes) < -tol):
            raise InvalidParameterError("custom grid is not convex")
        if ys[-1] < DIVERGENCE_FLOOR:
            raise InvalidParameterError(
                f"phi(t_max)={ys[-1]} below the divergence floor {DIVERGENCE_FLOOR}"
            )
        self.grid_t = ts
        self.grid_y = ys
        self.t_max = float(ts[-1])

    def __call__(self, t: float) -> float:
        u = abs(t)
        if u > self.t_max:
            raise OutOfGridError(f"|t|={u} beyond grid t_max={self.t_max}")
        return float(np.interp(u, self.grid_t, self.grid_y))

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.where(ts > self.t_max, np.inf, np.interp(ts, self.grid_t, self.grid_y))

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized phi(|t|); raises OutOfGridError past the grid."""
        out = super().value_array(ts)
        if np.any(np.isinf(out)):
            raise OutOfGridError(f"argument beyond the sampled grid (t_max={self.t_max})")
        return out
