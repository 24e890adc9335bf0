"""Finitely supported functions on a group model and the Luxemburg norm.

A vector holds its support as distinct unit rows in lexicographic order,
one (N, d) array ``units``, and its nonzero values as a float64 array
``values``.  Every constructor makes this form (``_canonical`` sorts the
rows, sums repeated rows in input order and drops zero sums; a right
translation keeps it), so equal vectors have equal arrays.  The modular
of f at level k is the exact finite sum of phi(|f(x)|/k) times the Haar
cell mass; the Luxemburg norm is the infimum of the k with modular at
most 1, found by bisection (the modular is nonincreasing and continuous).
"""

from __future__ import annotations

import math

import numpy as np

from . import _accel
from .group import (
    CompactSet,
    GroupElement,
    GroupModel,
    ModelMismatchError,
    row_index,
    sorted_rows,
)
from .young import OutOfGridError, UnboundedInverseError, YoungFunction

NORM_REL_TOL = 1e-12


class OrliczVector:
    __slots__ = ("model", "units", "values")

    def __init__(self, model: GroupModel, entries=None):
        """The vector of a dict or of (element, value) pairs."""
        pairs = list(entries.items() if isinstance(entries, dict) else entries or ())
        if any(x.model != model for x, _ in pairs):
            raise ModelMismatchError("support point from a different model")
        self.model = model
        self.units, self.values = _canonical(
            model.units_array([x for x, _ in pairs]), [float(v) for _, v in pairs]
        )

    @classmethod
    def zero(cls, model: GroupModel) -> "OrliczVector":
        return cls(model)

    @classmethod
    def from_arrays(cls, model: GroupModel, units, values) -> "OrliczVector":
        """values[i] at row i of an (N, d) units array; repeated rows add up."""
        out = cls.__new__(cls)
        out.model = model
        out.units, out.values = _canonical(units, values)
        return out

    @classmethod
    def point_mass(cls, x: GroupElement, value: float = 1.0) -> "OrliczVector":
        return cls(x.model, {x: value})

    @classmethod
    def indicator(cls, K: CompactSet) -> "OrliczVector":
        """Characteristic function of a finite set."""
        return cls.from_arrays(K.model, K.units, np.ones(len(K)))

    # -- mapping access -------------------------------------------------
    @property
    def support(self) -> list:
        return self.model.elements(self.units)

    def items(self) -> list:
        return list(zip(self.support, self.values.tolist()))

    def value(self, x: GroupElement) -> float:
        if x.model != self.model:
            return 0.0
        hit = np.flatnonzero((self.units == self.model.units_array([x])).all(axis=1))
        return float(self.values[hit[0]]) if len(hit) else 0.0

    def __len__(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not len(self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrliczVector)
            and self.model == other.model
            and np.array_equal(self.units, other.units)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"OrliczVector({len(self)} points on {self.model.kind})"

    # -- linear structure ------------------------------------------------
    def __add__(self, other: "OrliczVector") -> "OrliczVector":
        if self.model != other.model:
            raise ModelMismatchError("vectors on different group models")
        units = np.concatenate([self.units, other.units])
        return OrliczVector.from_arrays(self.model, units, np.concatenate([self.values, other.values]))

    def __neg__(self) -> "OrliczVector":
        return OrliczVector.from_arrays(self.model, self.units, -self.values)

    def __sub__(self, other: "OrliczVector") -> "OrliczVector":
        return self + (-other)

    def __mul__(self, c: float) -> "OrliczVector":
        return OrliczVector.from_arrays(self.model, self.units, float(c) * self.values)

    __rmul__ = __mul__

    def restrict(self, E: CompactSet) -> "OrliczVector":
        """Pointwise product with the indicator of E."""
        if E.model != self.model:
            raise ModelMismatchError("restricting to a set of a different model")
        inside = row_index(self.units, E.units) >= 0
        return OrliczVector.from_arrays(self.model, self.units[inside], self.values[inside])

    def translate(self, a: GroupElement) -> "OrliczVector":
        """Convolution with the unit point mass at a: x -> f(x * a^-1).

        The support moves right by a; the multiset of values is unchanged,
        which is exactly why the Luxemburg norm is translation invariant.
        The moved rows stay sorted and distinct, as in ``CompactSet.translate``.
        """
        out = OrliczVector.__new__(OrliczVector)
        out.model, out.values = self.model, self.values
        out.units = self.model.orbit_units(self.units, a, [1])[:, 0]
        return out

    # -- modular and norm -------------------------------------------------
    def modular(self, k: float, phi: YoungFunction) -> float:
        """Sum of phi(|f(x)| / k) over the support, times the cell mass."""
        if not k > 0:
            raise ValueError("modular level k must be positive")
        if self.is_zero():
            return 0.0
        out = _accel.modular_sum(np.abs(self.values), float(k), self.model.haar_cell_mass, phi)
        if math.isinf(out):
            raise OutOfGridError("modular argument beyond the sampled grid")
        return out

    def luxemburg_norm(self, phi: YoungFunction) -> float:
        """inf{k > 0 : modular(k) <= 1}, bisected to 1e-12 relative.

        The max-|value| point gives a certified lower bracket; the upper
        bracket is found by doubling.  For a custom Young function whose
        grid cannot certify the bracket the norm raises OutOfGridError
        rather than extrapolating.  An infinite value (an overflowed
        product) makes the norm inf: no k has a modular of at most 1.
        """
        vals = np.abs(self.values)
        amax = float(vals.max(initial=0.0))
        if amax == 0.0 or amax == math.inf:
            # 0.0: no entries, or only entries that underflowed to 0.0
            return amax
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
        return [[u, v] for u, v in zip(self.units.tolist(), self.values.tolist())]


def _canonical(units, values):
    """Sorted distinct rows and their nonzero sums; the values of a
    repeated row are added one after the other, in input order."""
    units, values = np.asarray(units), np.asarray(values, dtype=np.float64)
    order, new = sorted_rows(units)
    sums = values[order]
    if not new.all():  # np.add.at costs more than the rest on small vectors
        sums = np.zeros(int(new.sum()))
        np.add.at(sums, np.cumsum(new) - 1, values[order])
    keep = sums != 0.0
    return units[order[new][keep]], sums[keep]
