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

A ``CompactSet`` holds its points as distinct (N, d) unit rows in
lexicographic order (``sorted_rows``); its elements are built on demand.
``GroupModel.orbit_units`` gives whole orbits x * b^j in closed form and
``row_index`` matches unit rows exactly, by one integer code per row.  The
aperiodicity scan moves all of K by a^n for a block of n at once with one
``orbit_units`` call and tests every K /\\ K*a^n of the block with one
``row_index`` call; its one scalar product is a*a, made for its error.

The scan stops at a projection cap.  On each coordinate that every point
of K shifts by exactly n * a_i (all coordinates of the abelian kinds; x
and y on Heisenberg, and z when a_1 = 0), a translate can only meet K
while |n a_i| <= width_i(K).  So past the least width_i // |a_i| every
translate misses K, and the certificate is the one a scan to n_max gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

KINDS = ("int_line", "int_lattice", "heisenberg_int", "lattice_line", "heisenberg_lattice")
_HEISENBERG_KINDS = ("heisenberg_int", "heisenberg_lattice")
_LATTICE_KINDS = ("lattice_line", "heisenberg_lattice")
_INT64_MAX = 2**63 - 1
ORBIT_BLOCK_CELLS = 1 << 15


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


def _is_int(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _exact_units(c: numbers.Integral, h: float) -> Fraction:
    """The integer coordinate c in units of h, exactly."""
    return Fraction(int(c)) / _h_fraction(h)


@dataclass(frozen=True)
class GroupModel:
    kind: str
    dim: int
    h: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GroupError(f"unknown group kind: {self.kind!r}")
        if self.is_lattice and not 0 < self.h < math.inf:
            raise GroupError("cell width h must be positive and finite")
        if not self.is_lattice and self.h != 1.0:
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

    @property
    def is_heisenberg(self) -> bool:
        return self.kind in _HEISENBERG_KINDS

    @property
    def is_lattice(self) -> bool:
        return self.kind in _LATTICE_KINDS

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
        """Build an element from real coordinates (must sit on the lattice).

        An integer coordinate is divided by h exactly (``_h_fraction``), so
        no unit is lost past 2**53; a float may miss its lattice point by
        1e-9 relative."""
        units = []
        for c in coords:
            if isinstance(c, numbers.Integral):
                u = _exact_units(c, self.h)
                on_lattice = u.denominator == 1
            else:
                u = round(c / self.h)
                on_lattice = abs(u * self.h - c) <= 1e-9 * max(1.0, abs(c))
            if not on_lattice:
                raise OffLatticeError(f"coordinate {c} is not a multiple of h={self.h}")
            units.append(int(u))
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
        """(N, d) units of the elements, in iteration order (``unit_rows``)."""
        return unit_rows([e.units for e in elements], self.dim)

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


def unit_rows(rows, dim: int) -> np.ndarray:
    """(N, dim) array of integer unit rows: int64, or exact Python ints
    when some unit does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), dim)


def unit_entries(entries, dim: int | None = None):
    """(units, values) of [key, value] pairs, sorted by key: ``unit_rows``
    of distinct lists or tuples of integers of one length (``dim`` if
    given), and float64 values of numbers.  Booleans are refused."""
    try:
        pairs = [(key, value) for key, value in entries]
    except (TypeError, ValueError):
        raise GroupError(f"expected a list of [key, value] pairs, got {entries!r}") from None
    keys, values = [], []
    for key, value in pairs:
        if not (isinstance(key, (list, tuple)) and key and all(map(_is_int, key))):
            raise GroupError(f"key {key!r} must be a nonempty list of integers")
        dim = len(key) if dim is None else dim
        if len(key) != dim:
            raise GroupError(f"key {key!r} must have {dim} coordinates")
        if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise GroupError(f"value {value!r} at key {key!r} must be a finite number")
        keys.append(key)
        values.append(value)
    units = unit_rows(keys, dim or 0)
    order, new = sorted_rows(units)
    if not new.all():
        raise GroupError("keys must be distinct")
    return units[order], np.array(values, dtype=np.float64)[order]


def sorted_rows(units: np.ndarray):
    """(order, new): the stable lexicographic order of the rows of an
    (N, d) units array, and which rows of ``units[order]`` differ from the
    row before them.  Exact for int64 and Python-int arrays alike."""
    order = np.lexsort(units.T[::-1]) if len(units) else np.zeros(0, dtype=np.int64)
    ranked = units[order]
    new = np.ones(len(units), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, new


def row_index(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index in ``keys`` (distinct rows, in any order) of each row of
    ``rows``, -1 if absent.

    Rows outside the keys' bounding box cannot match and are dropped
    first.  Every key and every row left gets one mixed-radix code over
    the box, first coordinate most significant, and a binary search of
    the keys' codes finds each row's.  The codes are int64 when the keys
    are and the box's volume fits in int64, and exact Python ints in an
    object array otherwise, through the same lines.
    """
    out = np.full(len(rows), -1, dtype=np.int64)
    if not len(keys) or not len(rows):
        return out
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    inside = np.ones(len(rows), dtype=bool)
    for i in range(keys.shape[1]):  # one coordinate at a time: all(axis=1) is slower
        inside &= (rows[:, i] >= lo[i]) & (rows[:, i] <= hi[i])
    inside = np.flatnonzero(inside)
    if not inside.size:
        return out
    span = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    dtype = np.int64 if keys.dtype != object and math.prod(span) <= _INT64_MAX else object

    def codes(units):
        units = units.astype(dtype, copy=False) - lo.astype(dtype)
        code = np.zeros(len(units), dtype=dtype)
        for i, s in enumerate(span):
            code = code * s + units[:, i]
        return code

    key_codes, row_codes = codes(keys), codes(rows[inside])
    order = np.argsort(key_codes, kind="stable")
    slot = np.searchsorted(key_codes, row_codes, sorter=order)
    found = order[np.minimum(slot, len(keys) - 1)]
    hit = key_codes[found] == row_codes
    out[inside[hit]] = found[hit]
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


@dataclass(frozen=True, eq=False)
class CompactSet:
    """Finite set of group elements: its distinct unit rows in lexicographic
    order, as one (N, d) array.  Haar mass is exact.  The constructor puts
    any (N, d) units array in that form."""

    model: GroupModel
    units: np.ndarray

    def __post_init__(self):
        units = np.asarray(self.units)
        order, new = sorted_rows(units)
        object.__setattr__(self, "units", units[order[new]])

    @classmethod
    def from_elements(cls, model: GroupModel, elements) -> "CompactSet":
        elems = list(elements)
        if any(e.model != model for e in elems):
            raise ModelMismatchError("set element from a different model")
        return cls(model, model.units_array(elems))

    @classmethod
    def box(cls, model: GroupModel, lo, hi) -> "CompactSet":
        """All lattice points with real coordinates inside [lo_i, hi_i]."""
        if len(lo) != model.dim or len(hi) != model.dim:
            raise GroupError("box bounds must match the model dimension")

        def units(c, tol):  # integer bounds exactly, as in ``GroupModel.element``
            return _exact_units(c, model.h) if isinstance(c, numbers.Integral) else c / model.h + tol

        axes = []
        for a, b in zip(lo, hi):
            u0 = math.ceil(units(a, -1e-9))
            u1 = math.floor(units(b, 1e-9))
            if u1 < u0:
                return cls(model, np.zeros((0, model.dim), dtype=np.int64))
            if u1 - u0 > 10**6:
                raise GroupError("box axis enumerates more than 1e6 lattice points")
            # exact Python ints past int64, where np.arange would wrap or raise
            fits = -_INT64_MAX - 1 <= u0 and u1 <= _INT64_MAX
            axes.append(np.arange(u0, u1 + 1, dtype=np.int64 if fits else object))
        if math.prod(map(len, axes)) > 2 * 10**6:
            raise GroupError("box enumerates more than 2e6 lattice points")
        # the "ij" grid enumerates the rows in lexicographic order
        grid = np.meshgrid(*axes, indexing="ij")
        return cls(model, np.stack(grid, axis=-1).reshape(-1, model.dim))

    @property
    def measure(self) -> float:
        return len(self) * self.model.haar_cell_mass

    @property
    def elements(self) -> list:
        return self.model.elements(self.units)

    def translate(self, a: GroupElement) -> "CompactSet":
        """Right translate K*a.  A right translation keeps the rows distinct
        and in lexicographic order: x and y move by a, and z by a and a
        twist that depends on x alone."""
        return CompactSet(self.model, self.model.orbit_units(self.units, a, [1])[:, 0])

    def __contains__(self, e) -> bool:
        return e.model == self.model and bool((self.units == self.model.units_array([e])).all(axis=1).any())

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.units)

    def issubset(self, other: "CompactSet") -> bool:
        return self.model == other.model and bool((row_index(self.units, other.units) >= 0).all())


@dataclass(frozen=True)
class AperiodicityCertificate:
    """Outcome of the translate-disjointness scan K /\\ K*a^(+-n)."""

    status: str  # "aperiodic" | "periodic" | "not_within_bound"
    bound: int | None
    n_max: int


def _projection_cap(a: GroupElement, rows) -> int:
    """An n past which no translate K*a^n meets K (K given by its unit rows):
    the least width_i // |a_i| over the coordinates that every point shifts
    by exactly n * a_i.  z is one of them on Heisenberg only when a_1 = 0,
    as then a^n = (n a_0, 0, n a_2) and every twist x * (a^n)_y is 0.  The
    widths are exact Python ints, and some such a_i is nonzero unless a is
    the identity."""
    u = a.units
    coords = (0, 1) if a.model.is_heisenberg and u[1] else range(a.model.dim)
    return min(
        (int(rows[:, i].max()) - int(rows[:, i].min())) // abs(u[i]) for i in coords if u[i]
    )


def aperiodicity_bound(a: GroupElement, K: CompactSet, n_max: int) -> AperiodicityCertificate:
    """Smallest M with K and K*a^(+-n) disjoint for all M < n <= n_max.

    Returns a "periodic" certificate if a is the identity, and
    "not_within_bound" when the translates still meet K at n_max (no
    aperiodicity claim is made in that case).  Every model's group is
    torsion-free, so no other a has a power equal to the identity.

    Only n <= top = max(2, cap) are tested, with the cap of
    ``_projection_cap``: past it no translate meets K, so the last hit and
    the status are those of the full scan to n_max, and "not_within_bound"
    needs cap >= n_max.  The translates K*a^n come from ``orbit_units`` in
    blocks of n of at most ORBIT_BLOCK_CELLS points, so memory does not
    grow with the cap, and one ``row_index`` call per block tests them all.

    A walk off the lattice fails only at n = 1, at some translate x*a, or
    at n = 2, at the product a*a (see ``_check_walk``).  So the scan makes
    the n = 1 translates and then a*a before its blocks: each error is the
    one that a scan making a^n = a^(n-1) * a and K*a^n one n at a time
    raises first, and the floor of 2 reaches both.
    """
    if len(K) == 0:
        raise EmptySetError("aperiodicity scan needs a nonempty set")
    if n_max < 1:
        raise GroupError("n_max must be >= 1")
    if a.is_identity:
        return AperiodicityCertificate("periodic", None, n_max)
    if a.model != K.model:
        raise ModelMismatchError("elements belong to different group models")
    rows, model = K.units, K.model
    top = min(n_max, max(2, _projection_cap(a, rows)))
    # the errors of n = 1 and then of n = 2, before any block
    model.orbit_units(rows, a, [1])
    if top > 1:
        a * a
    block = max(1, ORBIT_BLOCK_CELLS // len(rows))
    last_hit = 0
    for start in range(1, top + 1, block):
        ns = np.arange(start, min(start + block, top + 1))
        # K /\ K*a^-n is empty iff K /\ K*a^n is, so one direction suffices.
        moved = model.orbit_units(rows, a, ns).reshape(-1, model.dim)
        hits = (row_index(moved, rows) >= 0).reshape(len(rows), len(ns)).any(axis=0)
        if hits.any():
            last_hit = int(ns[hits][-1])
    if last_hit >= n_max:
        return AperiodicityCertificate("not_within_bound", None, n_max)
    return AperiodicityCertificate("aperiodic", last_hit, n_max)
