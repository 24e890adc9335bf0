"""Finitely supported functions on a group model and the Luxemburg norm.

Vectors are immutable maps from group elements to real scalars in
canonical form (zero entries are dropped).  The modular of f at level k
is the exact finite sum of phi(|f(x)|/k) times the Haar cell mass; the
Luxemburg norm is the infimum of the k with modular at most 1, found by
bisection (the modular is nonincreasing and continuous in k).
"""

from __future__ import annotations

import math

import numpy as np

from . import _accel
from .group import CompactSet, GroupElement, GroupModel, ModelMismatchError
from .young import OutOfGridError, UnboundedInverseError, YoungFunction

NORM_REL_TOL = 1e-12


class OrliczVector:
    __slots__ = ("model", "_entries")

    def __init__(self, model: GroupModel, entries=None):
        self.model = model
        data = {}
        if entries:
            for x, v in entries.items() if isinstance(entries, dict) else entries:
                if x.model != model:
                    raise ModelMismatchError("support point from a different model")
                v = float(v)
                if v != 0.0:
                    data[x] = data.get(x, 0.0) + v
                    if data[x] == 0.0:
                        del data[x]
        self._entries = data

    @classmethod
    def zero(cls, model: GroupModel) -> "OrliczVector":
        return cls(model)

    @classmethod
    def from_arrays(cls, model: GroupModel, units, values) -> "OrliczVector":
        """Entries from the rows of an (N, d) units array (distinct points)
        and N values, in row order; zero values are kept."""
        out = cls(model)
        out._entries = dict(zip(model.elements(units), values.tolist()))
        return out

    @classmethod
    def point_mass(cls, x: GroupElement, value: float = 1.0) -> "OrliczVector":
        return cls(x.model, {x: value})

    @classmethod
    def indicator(cls, K: CompactSet) -> "OrliczVector":
        """Characteristic function of a finite set."""
        return cls(K.model, {x: 1.0 for x in K})

    # -- mapping access -------------------------------------------------
    @property
    def support(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def value(self, x: GroupElement) -> float:
        return self._entries.get(x, 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrliczVector)
            and self.model == other.model
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"OrliczVector({len(self._entries)} points on {self.model.kind})"

    # -- linear structure ------------------------------------------------
    def _require_same_model(self, other: "OrliczVector"):
        if self.model != other.model:
            raise ModelMismatchError("vectors on different group models")

    def __add__(self, other: "OrliczVector") -> "OrliczVector":
        self._require_same_model(other)
        data = dict(self._entries)
        for x, v in other._entries.items():
            s = data.get(x, 0.0) + v
            if s == 0.0:
                data.pop(x, None)
            else:
                data[x] = s
        out = OrliczVector(self.model)
        out._entries = data
        return out

    def __neg__(self) -> "OrliczVector":
        out = OrliczVector(self.model)
        out._entries = {x: -v for x, v in self._entries.items()}
        return out

    def __sub__(self, other: "OrliczVector") -> "OrliczVector":
        return self + (-other)

    def __mul__(self, c: float) -> "OrliczVector":
        c = float(c)
        out = OrliczVector(self.model)
        if c != 0.0:
            out._entries = {x: c * v for x, v in self._entries.items()}
        return out

    __rmul__ = __mul__

    def restrict(self, E: CompactSet) -> "OrliczVector":
        """Pointwise product with the indicator of E."""
        out = OrliczVector(self.model)
        out._entries = {x: v for x, v in self._entries.items() if x in E}
        return out

    def translate(self, a: GroupElement) -> "OrliczVector":
        """Convolution with the unit point mass at a: x -> f(x * a^-1).

        The support moves right by a; the multiset of values is unchanged,
        which is exactly why the Luxemburg norm is translation invariant.
        """
        if a.model != self.model:
            raise ModelMismatchError("translating by an element of a different model")
        out = OrliczVector(self.model)
        out._entries = {x * a: v for x, v in self._entries.items()}
        return out

    def abs_values(self) -> np.ndarray:
        return np.abs(np.fromiter(self._entries.values(), dtype=np.float64, count=len(self._entries)))

    # -- modular and norm -------------------------------------------------
    def modular(self, k: float, phi: YoungFunction) -> float:
        """Sum of phi(|f(x)| / k) over the support, times the cell mass."""
        if not k > 0:
            raise ValueError("modular level k must be positive")
        if not self._entries:
            return 0.0
        out = _accel.modular_sum(self.abs_values(), float(k), self.model.haar_cell_mass, phi)
        if math.isinf(out):
            raise OutOfGridError("modular argument beyond the sampled grid")
        return out

    def luxemburg_norm(self, phi: YoungFunction) -> float:
        """inf{k > 0 : modular(k) <= 1}, bisected to 1e-12 relative.

        The max-|value| point gives a certified lower bracket; the upper
        bracket is found by doubling.  For a custom Young function whose
        grid cannot certify the bracket the norm raises OutOfGridError
        rather than extrapolating.
        """
        vals = self.abs_values()
        amax = float(vals.max(initial=0.0))
        if amax == 0.0:
            # no entries, or only entries that underflowed to 0.0
            return 0.0
        mass = self.model.haar_cell_mass

        def mod(k: float) -> float:
            return _accel.modular_sum(vals, k, mass, phi)

        try:
            lo = amax / phi.inverse(1.0 / mass)
            certified = True
        except UnboundedInverseError:
            lo = amax / phi.t_max
            certified = False
        m_lo = mod(lo)
        if m_lo <= 1.0:
            if certified:
                # any k < lo puts the worst point above phi^-1(1/mass)
                return lo
            raise OutOfGridError("norm bracket falls below the sampled grid")
        hi = lo
        for _ in range(4096):
            hi *= 2.0
            if mod(hi) <= 1.0:
                break
        else:
            raise ArithmeticError("no feasible norm bracket found by doubling")
        while hi - lo > NORM_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if mod(mid) <= 1.0:
                hi = mid
            else:
                lo = mid
        return hi

    # -- serialization -----------------------------------------------------
    def to_json_entries(self) -> list:
        """[[units..., value], ...] sorted by coordinates."""
        return [
            [list(x.units), v]
            for x, v in sorted(self._entries.items(), key=lambda kv: kv[0].units)
        ]

    @classmethod
    def from_json_entries(cls, model: GroupModel, entries) -> "OrliczVector":
        return cls(
            model,
            [(model.element_units(e[0]), float(e[1])) for e in entries],
        )


def indicator(K: CompactSet) -> OrliczVector:
    return OrliczVector.indicator(K)
