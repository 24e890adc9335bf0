"""Discrete and lattice-discretized locally compact groups.

Five model kinds are supported; coordinates are stored as integer lattice
units, with real coordinates equal to units * h:

* ``int_line``            the integers, counting measure
* ``int_lattice``         Z^d, counting measure
* ``heisenberg_int``      integer Heisenberg group
* ``lattice_line``        h*Z discretizing the real line, cell mass h
* ``heisenberg_lattice``  h*Z^3 with the Heisenberg law, cell mass h^3

The Heisenberg product is (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y') and
the inverse is (x,y,z)^-1 = (-x,-y,xy-z).  On a lattice the twist x*y'
must land back on the lattice; products that do not raise OffLatticeError
(the check is exact, via a rational reading of h).

Hot paths work on (N, d) unit arrays instead of scalar elements:
``GroupModel.orbit_units`` gives whole orbits x * b^j in closed form and
``row_index`` matches unit rows exactly.  The aperiodicity scan moves all
of K by a^n with one ``orbit_units`` call and tests K /\\ K*a^n with one
``row_index`` call per n; only the powers a^n are scalar products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

KINDS = ("int_line", "int_lattice", "heisenberg_int", "lattice_line", "heisenberg_lattice")
_HEISENBERG_KINDS = ("heisenberg_int", "heisenberg_lattice")
_LATTICE_KINDS = ("lattice_line", "heisenberg_lattice")
_INT64_MAX = 2**63 - 1


class GroupError(Exception):
    pass


class ModelMismatchError(GroupError):
    pass


class OffLatticeError(GroupError):
    pass


class EmptySetError(GroupError):
    pass


@lru_cache(maxsize=64)
def _h_fraction(h: float) -> Fraction:
    return Fraction(h).limit_denominator(10**12)


@dataclass(frozen=True)
class GroupModel:
    kind: str
    dim: int
    h: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GroupError(f"unknown group kind: {self.kind!r}")
        if self.kind in _LATTICE_KINDS and not (self.h > 0):
            raise GroupError("cell width h must be positive")
        if self.kind not in _LATTICE_KINDS and self.h != 1.0:
            raise GroupError("counting-measure kinds have h = 1")

    @classmethod
    def int_line(cls) -> "GroupModel":
        return cls("int_line", 1)

    @classmethod
    def int_lattice(cls, d: int) -> "GroupModel":
        if d < 1:
            raise GroupError("lattice dimension must be >= 1")
        return cls("int_lattice", d)

    @classmethod
    def heisenberg_int(cls) -> "GroupModel":
        return cls("heisenberg_int", 3)

    @classmethod
    def lattice_line(cls, h: float) -> "GroupModel":
        return cls("lattice_line", 1, h)

    @classmethod
    def heisenberg_lattice(cls, h: float) -> "GroupModel":
        return cls("heisenberg_lattice", 3, h)

    @classmethod
    def from_config(cls, doc: dict) -> "GroupModel":
        kind = doc.get("kind")
        if kind == "int_line":
            return cls.int_line()
        if kind == "int_lattice":
            return cls.int_lattice(int(doc["d"]))
        if kind == "heisenberg_int":
            return cls.heisenberg_int()
        if kind == "lattice_line":
            return cls.lattice_line(float(doc["h"]))
        if kind == "heisenberg_lattice":
            return cls.heisenberg_lattice(float(doc["h"]))
        raise GroupError(f"unknown group kind: {kind!r}")

    @property
    def is_heisenberg(self) -> bool:
        return self.kind in _HEISENBERG_KINDS

    @property
    def haar_cell_mass(self) -> float:
        return self.h**self.dim

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.dim)

    def element_units(self, units) -> "GroupElement":
        units = tuple(int(u) for u in units)
        if len(units) != self.dim:
            raise GroupError(f"expected {self.dim} coordinates, got {len(units)}")
        return GroupElement(self, units)

    def element(self, coords) -> "GroupElement":
        """Build an element from real coordinates (must sit on the lattice)."""
        units = []
        for c in coords:
            u = round(c / self.h)
            if abs(u * self.h - c) > 1e-9 * max(1.0, abs(c)):
                raise OffLatticeError(f"coordinate {c} is not a multiple of h={self.h}")
            units.append(u)
        return self.element_units(units)

    def _twist_units(self, x_units, y_units) -> int:
        """z-units contributed by the Heisenberg twist x * y' (exact)."""
        if self.kind == "heisenberg_int":
            return x_units[0] * y_units[1]
        tw = x_units[0] * y_units[1] * _h_fraction(self.h)
        if tw.denominator != 1:
            raise OffLatticeError(
                f"Heisenberg twist {x_units[0]}*{y_units[1]}*h leaves the lattice"
            )
        return int(tw)

    def units_array(self, elements) -> np.ndarray:
        """(N, d) units of the elements, in iteration order: int64, or exact
        Python ints when some coordinate does not fit in int64."""
        rows = [e.units for e in elements]
        try:
            return np.array(rows, dtype=np.int64).reshape(len(rows), self.dim)
        except OverflowError:
            return np.array(rows, dtype=object).reshape(len(rows), self.dim)

    def elements(self, units) -> list:
        """The elements of the rows of an (N, d) units array, in row order."""
        return [GroupElement(self, u) for u in map(tuple, units.tolist())]

    def orbit_units(self, units, b: "GroupElement", j) -> np.ndarray:
        """(N, J, d) units of x * b^j for every row x of ``units`` and j >= 0.

        Closed form: every coordinate moves by j * b, and on Heisenberg
        kinds z also collects the twists x_0 * j * b_1 * h and
        j (j-1)/2 * b_0 * b_1 * h of the walk x, x b, x b^2, ...  A lattice
        walk that leaves the lattice raises OffLatticeError at the step and
        row where that walk, taken one product at a time, would.  The result
        is int64 when a bound computed from the inputs keeps every
        intermediate inside int64, and exact Python ints otherwise; it
        never wraps.
        """
        if b.model != self:
            raise ModelMismatchError("step element from a different model")
        units = np.asarray(units)
        j = np.asarray(j, dtype=np.int64)
        steps = int(j.max()) if j.size else 0
        num, den = (b.units[1], 1) if self.is_heisenberg else (0, 1)
        if self.kind == "heisenberg_lattice":
            rate = b.units[1] * _h_fraction(self.h)
            num, den = rate.numerator, rate.denominator
            if den != 1 and steps and len(units):
                self._check_walk(units[:, 0], b, den, steps)
        x_max = int(np.abs(units).max()) if units.size else 0
        b_max = max(abs(u) for u in b.units)
        bound = x_max + steps * b_max + (steps * x_max + (b_max + 1) * steps * steps) * max(
            abs(num), 1
        )
        dtype = np.int64 if bound <= _INT64_MAX else object
        x = units.astype(dtype, copy=False)
        jj = j.astype(dtype, copy=False)
        out = x[:, None, :] + jj[None, :, None] * np.array(b.units, dtype=dtype)
        if self.is_heisenberg:
            # sum over the steps s < j of the twist (x_0 + s b_0) * b_1 * h
            walk = jj[None, :] * x[:, 0, None] + b.units[0] * (jj * (jj - 1) // 2)[None, :]
            out[:, :, 2] += walk // den * num
        return out

    def _check_walk(self, x0, b: "GroupElement", den: int, steps: int):
        """Raise where the walk x, x b, ... first leaves the lattice.

        With b_1 h = num/den in lowest terms, the twist of the step from
        x b^s is an integer iff den divides x_0 + s b_0: for all s < steps
        exactly when den divides x_0 and, if steps > 1, b_0.  So a walk can
        only fail at its first or second step.  The failing product itself
        raises, with its own message.
        """
        bad = np.flatnonzero(x0 % den)
        if bad.size:
            self._twist_units((int(x0[bad[0]]),), b.units)
        if steps > 1 and b.units[0] % den:
            self._twist_units((int(x0[0]) + b.units[0],), b.units)


def row_index(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index in ``keys`` (distinct rows) of each row of ``rows``, -1 if absent.

    Rows outside the keys' bounding box cannot match and are dropped
    first; the rest are compared whole after one lexsort, so the match is
    exact for int64 and Python-int unit arrays alike.
    """
    out = np.full(len(rows), -1, dtype=np.int64)
    if not len(keys) or not len(rows):
        return out
    inside = np.flatnonzero(
        ((rows >= keys.min(axis=0)) & (rows <= keys.max(axis=0))).all(axis=1)
    )
    if not inside.size:
        return out
    both = np.concatenate([keys, rows[inside]])
    order = np.lexsort(both.T[::-1])
    ranked = both[order]
    new = np.ones(len(both), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(both), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    slot = np.full(len(both), -1, dtype=np.int64)
    slot[ids[: len(keys)]] = np.arange(len(keys))
    out[inside] = slot[ids[len(keys) :]]
    return out


@dataclass(frozen=True)
class GroupElement:
    model: GroupModel
    units: tuple

    @property
    def real(self) -> tuple:
        h = self.model.h
        return tuple(u * h for u in self.units)

    @property
    def is_identity(self) -> bool:
        return all(u == 0 for u in self.units)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.model != other.model:
            raise ModelMismatchError("elements belong to different group models")
        a, b = self.units, other.units
        if self.model.is_heisenberg:
            tw = self.model._twist_units(a, b)
            return GroupElement(self.model, (a[0] + b[0], a[1] + b[1], a[2] + b[2] + tw))
        return GroupElement(self.model, tuple(x + y for x, y in zip(a, b)))

    def inverse(self) -> "GroupElement":
        u = self.units
        if self.model.is_heisenberg:
            tw = self.model._twist_units(u, u)
            return GroupElement(self.model, (-u[0], -u[1], tw - u[2]))
        return GroupElement(self.model, tuple(-x for x in u))

    def __pow__(self, n: int) -> "GroupElement":
        base = self if n >= 0 else self.inverse()
        origin = np.zeros((1, self.model.dim), dtype=np.int64)
        units = self.model.orbit_units(origin, base, [abs(n)])[0, 0]
        return GroupElement(self.model, tuple(int(u) for u in units))


@dataclass(frozen=True)
class CompactSet:
    """Finite explicit set of group elements; Haar mass is exact."""

    model: GroupModel
    elements: frozenset

    @classmethod
    def from_elements(cls, model: GroupModel, elements) -> "CompactSet":
        elems = frozenset(elements)
        for e in elems:
            if e.model != model:
                raise ModelMismatchError("set element from a different model")
        return cls(model, elems)

    @classmethod
    def box(cls, model: GroupModel, lo, hi) -> "CompactSet":
        """All lattice points with real coordinates inside [lo_i, hi_i]."""
        if len(lo) != model.dim or len(hi) != model.dim:
            raise GroupError("box bounds must match the model dimension")
        ranges = []
        for a, b in zip(lo, hi):
            u0 = math.ceil(a / model.h - 1e-9)
            u1 = math.floor(b / model.h + 1e-9)
            if u1 < u0:
                return cls(model, frozenset())
            if u1 - u0 > 10**6:
                raise GroupError("box axis enumerates more than 1e6 lattice points")
            ranges.append(range(u0, u1 + 1))
        elems = frozenset(
            GroupElement(model, units) for units in itertools.product(*ranges)
        )
        if len(elems) > 2 * 10**6:
            raise GroupError("box enumerates more than 2e6 lattice points")
        return cls(model, elems)

    @property
    def measure(self) -> float:
        return len(self.elements) * self.model.haar_cell_mass

    def translate(self, a: GroupElement) -> "CompactSet":
        """Right translate K*a."""
        return CompactSet(self.model, frozenset(k * a for k in self.elements))

    def sorted_elements(self) -> list:
        return sorted(self.elements, key=lambda e: e.units)

    def __contains__(self, e) -> bool:
        return e in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def issubset(self, other: "CompactSet") -> bool:
        return self.elements <= other.elements


def haar(K: CompactSet) -> float:
    """Right Haar measure of a finite set: cell count times cell mass."""
    return K.measure


@dataclass(frozen=True)
class AperiodicityCertificate:
    """Outcome of the translate-disjointness scan K /\\ K*a^(+-n)."""

    status: str  # "aperiodic" | "periodic" | "not_within_bound"
    bound: int | None
    n_max: int

    @property
    def is_aperiodic(self) -> bool:
        return self.status == "aperiodic"


def aperiodicity_bound(a: GroupElement, K: CompactSet, n_max: int) -> AperiodicityCertificate:
    """Smallest M with K and K*a^(+-n) disjoint for all M < n <= n_max.

    Returns a "periodic" certificate if a is the identity, and
    "not_within_bound" when the translates still meet K at n_max (no
    aperiodicity claim is made in that case).  Every model's group is
    torsion-free, so no other a has a power equal to the identity.
    """
    if len(K) == 0:
        raise EmptySetError("aperiodicity scan needs a nonempty set")
    if n_max < 1:
        raise GroupError("n_max must be >= 1")
    if a.is_identity:
        return AperiodicityCertificate("periodic", None, n_max)
    if a.model != K.model:
        raise ModelMismatchError("elements belong to different group models")
    # Rows in frozenset order, so a translate that leaves the lattice fails
    # at the point of K where the product k * a^n would fail first.
    rows = K.model.units_array(K.elements)
    last_hit = 0
    an = a.model.identity()
    for n in range(1, n_max + 1):
        an = an * a
        # K /\ K*a^-n is empty iff K /\ K*a^n is, so one direction suffices.
        moved = K.model.orbit_units(rows, an, [1])[:, 0]
        if (row_index(moved, rows) >= 0).any():
            last_hit = n
    if last_hit >= n_max:
        return AperiodicityCertificate("not_within_bound", None, n_max)
    return AperiodicityCertificate("aperiodic", last_hit, n_max)
