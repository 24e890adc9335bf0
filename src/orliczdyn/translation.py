"""Weighted translation operators and their weight-product cocycles.

The operator T generated by a group element a and a weight w sends f to
w * (f translated by a); its right inverse S divides by the weight and
translates back.  Along the orbit of a two scalar products control the
dynamics:

* forward cocycle   prod_{j=1..n} w(x * a^j)
* backward cocycle  1 / prod_{j=0..n-1} w(x * a^-j)

``WeightedTranslation._walk`` states this direction rule once, and every
walk reads it: ``orbit`` behind ``apply``/``apply_inv``, the cumulative
log-cocycle tables of ``log_tables`` that the checkers sweep, and the
scalar oracle behind ``cocycle_fwd``/``cocycle_bwd``, which sums logs
past 64 factors so that long products neither under- nor overflow.

Each weight rule owns its formulas: ``__call__`` at one element,
``on_units`` on the rows of an (N, d) units array, and ``orbit_logs``
for the log-weights along whole orbits; the clamp-exponential rule reads
them from the ``_accel.clampexp_orbit_logs`` kernel.  A table weight
holds its keys as sorted unit rows, like ``CompactSet``.

``orbit`` gets the points x * a^j in closed form from
``GroupModel.orbit_units``, evaluates the weight on a block of them at
once and folds the values with ``np.multiply.accumulate`` (``np.divide``
for S) along the step axis.  An accumulate rounds after every step, in
step order, exactly as the step-by-step operator does; a ``prod`` or
``reduce`` may reorder the factors and round differently.  Orbits and
tables go in blocks of ORBIT_BLOCK_CELLS points times steps, carrying
the running values, so memory does not grow with n.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .group import (
    ORBIT_BLOCK_CELLS,
    GroupElement,
    GroupError,
    GroupModel,
    ModelMismatchError,
    row_index,
    sorted_rows,
    unit_entries,
)
from .orlicz import OrliczVector

LOG_SPACE_SWITCH = 64


class WeightError(Exception):
    pass


class Weight:
    """Strictly positive weight rule, evaluable on group elements."""

    def __call__(self, x: GroupElement) -> float:
        raise NotImplementedError

    def on_units(self, model: GroupModel, units: np.ndarray) -> np.ndarray:
        """w at every row of an (N, d) units array, bit for bit ``__call__``."""
        return np.array([self(e) for e in model.elements(units)], dtype=np.float64)

    def orbit_logs(self, model: GroupModel, units: np.ndarray, step, js) -> np.ndarray:
        """(N, J) log-weights at units[i] * step^js[j], bit for bit
        ``math.log`` of ``__call__``, from one ``on_units`` call over all
        N * J points (``WeightedTranslation.log_tables`` asks for at most
        ORBIT_BLOCK_CELLS)."""
        pts = model.orbit_units(units, step, js).reshape(-1, model.dim)
        return log_values(self.on_units(model, pts)).reshape(len(units), len(js))

    def sup_bound(self) -> float:
        """Global upper bound for w (finite by construction)."""
        raise NotImplementedError

    def inf_bound(self) -> float:
        """Global lower bound for w (positive by construction)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantWeight(Weight):
    c: float

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise WeightError("constant weight must be positive and finite")

    def __call__(self, x: GroupElement) -> float:
        return self.c

    def on_units(self, model: GroupModel, units: np.ndarray) -> np.ndarray:
        return np.full(len(units), self.c)

    def sup_bound(self) -> float:
        return self.c

    def inf_bound(self) -> float:
        return self.c


@dataclass(frozen=True)
class ClampExpWeight(Weight):
    """w(x) = base ** (-clamp(x[coord], lo, hi)) on real coordinates.

    With base 2, coord z, clamp window [-1, 1] this is the step profile
    1/2 for z >= 1, 2**-z in between, 2 for z <= -1.
    """

    base: float
    coord: int
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.base > 0 and self.base != 1.0 and math.isfinite(self.base)):
            raise WeightError("clamp_exp base must be positive and != 1")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise WeightError("clamp_exp needs finite lo < hi")
        if self.coord < 0:
            raise WeightError("coordinate index must be nonnegative")

    def _check_dim(self, dim: int):
        if self.coord >= dim:
            raise WeightError(f"coordinate {self.coord} is not below the model's dimension {dim}")

    def __call__(self, x: GroupElement) -> float:
        self._check_dim(len(x.units))
        c = x.real[self.coord]
        return self.base ** (-min(max(c, self.lo), self.hi))

    def on_units(self, model: GroupModel, units: np.ndarray) -> np.ndarray:
        self._check_dim(model.dim)
        real = units[:, self.coord].astype(np.float64) * model.h
        clamped = np.minimum(np.maximum(real, self.lo), self.hi)
        distinct, where = np.unique(clamped, return_inverse=True)
        # Python's power once per distinct value: np.power may differ in the last bit
        return np.array([self.base ** -c for c in distinct.tolist()])[where.reshape(-1)]

    def orbit_logs(self, model: GroupModel, units: np.ndarray, step, js) -> np.ndarray:
        """The kernel's log-weights: they agree with ``math.log`` of
        ``__call__`` to 1e-14 relative, not bit for bit."""
        self._check_dim(model.dim)
        origin = np.zeros((1, model.dim), dtype=np.int64)
        return _accel.clampexp_orbit_logs(
            units,
            model.orbit_units(origin, step, js)[0],
            model.h,
            model.is_heisenberg,
            self.coord,
            math.log(self.base),
            self.lo,
            self.hi,
        )

    def sup_bound(self) -> float:
        return max(self.base**-self.lo, self.base**-self.hi)

    def inf_bound(self) -> float:
        return min(self.base**-self.lo, self.base**-self.hi)


class TableWeight(Weight):
    """Finite lookup table keyed by lattice units, with a default value:
    distinct (N, d) unit rows ``units`` in lexicographic order beside their
    float64 ``values``; ``_rows`` lists the rows for ``__call__``'s bisection.
    """

    def __init__(self, table, default: float):
        """The table of a dict or of (key, value) pairs, each key a tuple
        of integer lattice units."""
        try:
            units, values = unit_entries(table.items() if isinstance(table, dict) else table)
        except GroupError as exc:
            raise WeightError(f"table {exc}") from exc
        self._set(units, values, default)

    @classmethod
    def from_arrays(cls, units, values, default: float) -> "TableWeight":
        """values[i] at row i of an (N, d) units array of distinct rows."""
        out = cls.__new__(cls)
        out._set(np.asarray(units), np.asarray(values, dtype=np.float64), default)
        return out

    def _set(self, units, values, default):
        if not (default > 0 and math.isfinite(default)):
            raise WeightError("table default must be positive and finite")
        bad = np.flatnonzero(~((values > 0) & np.isfinite(values)))
        if bad.size:
            raise WeightError(f"table value at {units[bad[0]].tolist()} must be positive and finite")
        order, new = sorted_rows(units)
        if not new.all():
            raise WeightError("table keys must be distinct")
        self.units, self.values = units[order], values[order]
        self.default = float(default)
        self._rows = self.units.tolist()

    def _check_dim(self, dim: int):
        if len(self.units) and self.units.shape[1] != dim:
            raise WeightError(f"table keys have {self.units.shape[1]} coordinates, the model {dim}")

    def __call__(self, x: GroupElement) -> float:
        self._check_dim(len(x.units))
        key = list(x.units)
        i = bisect.bisect_left(self._rows, key)
        return float(self.values[i]) if self._rows[i : i + 1] == [key] else self.default

    def on_units(self, model: GroupModel, units: np.ndarray) -> np.ndarray:
        self._check_dim(model.dim)
        # row_index gives -1 off the table, which picks the appended default
        return np.append(self.values, self.default)[row_index(units, self.units)]

    def sup_bound(self) -> float:
        return float(self.values.max(initial=self.default))

    def inf_bound(self) -> float:
        return float(self.values.min(initial=self.default))

    def __eq__(self, other) -> bool:
        return isinstance(other, TableWeight) and self.default == other.default and (
            np.array_equal(self.units, other.units) and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"TableWeight({len(self.values)} entries, default={self.default})"


@dataclass(frozen=True)
class WeightedTranslation:
    """The operator f -> w * (f * delta_a) together with its right inverse."""

    model: GroupModel
    a: GroupElement
    weight: Weight

    def __post_init__(self):
        if self.a.model != self.model:
            raise ModelMismatchError("translation element from a different model")

    def _walk(self, inverse: bool):
        """(step, first): n steps of T have their factors at x * a^j, j = 1..n,
        and of S at x * a^-j, j = 0..n-1: at x * step^j from j = first."""
        return (self.a.inverse(), 0) if inverse else (self.a, 1)

    def apply(self, f: OrliczVector, n: int = 1) -> OrliczVector:
        """n-fold application of x -> w(x) f(x a^-1); n = 0 is the identity."""
        return self._apply(f, n, False)

    def apply_inv(self, h: OrliczVector, n: int = 1) -> OrliczVector:
        """n-fold application of x -> h(x a) / w(x a), the right inverse.

        On finitely supported vectors both compositions with apply are
        the identity (the weighted composition is a bijection).
        """
        return self._apply(h, n, True)

    def _apply(self, f: OrliczVector, n: int, inverse: bool) -> OrliczVector:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            self._walk(inverse)  # a^-1 must exist on the lattice even when nothing moves
            return f
        units, values = self.orbit(f, n, 1, inverse)
        return OrliczVector.from_arrays(self.model, units[:, 0], values[:, 0])

    def orbit(self, f: OrliczVector, n: int, count: int, inverse: bool = False):
        """Support and values of T^n f, T^2n f, ..., T^(count n) f from one
        walk of count * n steps; with ``inverse`` the same for S.

        Returns (units, values) of shapes (N, count, d) and (N, count), row
        i following the i-th row of ``f.units``.  Values that underflow to
        0.0 keep their rows here; the vectors built from them drop them.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        model = self.model
        step, first = self._walk(inverse)
        if f.is_zero():
            return np.zeros((0, count, model.dim), dtype=np.int64), np.zeros((0, count))
        if f.model != model:
            raise ModelMismatchError("elements belong to different group models")
        units, cur = f.units, f.values[:, None]
        ends = model.orbit_units(units, step, n * np.arange(1, count + 1))
        # T multiplies by the factors, S divides by them.  The accumulate
        # applies the steps in order, rounding after each, in blocks that
        # carry the running values; the values are read after every n steps.
        fold = np.divide if inverse else np.multiply
        n_pts, n_steps = len(units), count * n
        block = max(1, ORBIT_BLOCK_CELLS // n_pts)
        cols = [np.empty((n_pts, 0))]
        with np.errstate(over="ignore"):
            for s0 in range(0, n_steps, block):
                js = np.arange(s0, min(s0 + block, n_steps))
                pts = model.orbit_units(units, step, js + first).reshape(-1, model.dim)
                w = self.weight.on_units(model, pts).reshape(n_pts, len(js))
                run = fold.accumulate(np.concatenate([cur, w], axis=1), axis=1)
                cols.append(run[:, 1:][:, (js + 1) % n == 0])
                cur = run[:, -1:]
        return ends, np.hstack(cols)

    def log_tables(self, units: np.ndarray, depth: int):
        """Cumulative log-cocycle tables over the rows of an (N, d) units array:

        fwd[:, n] = sum_{j=1..n} log w(x a^j)        (fwd[:, 0] = 0)
        bwd[:, n] = sum_{j=0..n-1} log w(x a^-j)     (bwd[:, 0] = 0)

        for n = 0..depth, so the forward cocycle is exp(fwd[:, n]) and the
        backward cocycle is exp(-bwd[:, n]).  A row's prefix does not depend
        on the depth.  Each table is the transpose of a C-contiguous
        (depth + 1, N) array, so the cells of one n, which the sweep reads
        together, are adjacent.  Each table fills in column blocks of
        ORBIT_BLOCK_CELLS cells, and each block's cumsum starts from the sum
        carried over, so the sums are those of one cumsum over the row, bit
        for bit, and the build holds one block of log-weights beside the
        tables.  Each walk is checked before its blocks, so one that leaves
        a lattice raises OffLatticeError for every rule, the clamp kernel's
        too.
        """
        block = max(1, ORBIT_BLOCK_CELLS // max(len(units), 1))
        tables = []
        for inverse in (False, True):
            step, first = self._walk(inverse)
            table = np.zeros((depth + 1, len(units)))
            if depth:  # a lattice walk leaves the lattice at its step 1 or 2 or never
                self.model.orbit_units(units, step, [min(depth - 1 + first, 2)])
            for c in range(0, depth, block):
                js = np.arange(c, min(c + block, depth)) + first
                logs = self.weight.orbit_logs(self.model, units, step, js).T
                if c:
                    logs[0] += table[c]
                np.cumsum(logs, axis=0, out=table[c + 1 : c + 1 + len(js)])
            tables.append(table.T)
        return tuple(tables)

    def cocycle_fwd(self, n: int, x: GroupElement) -> float:
        """prod_{j=1..n} w(x * a^j)."""
        return self._cocycle(n, x, False)

    def cocycle_bwd(self, n: int, x: GroupElement) -> float:
        """1 / prod_{j=0..n-1} w(x * a^-j)."""
        return self._cocycle(n, x, True)

    def _cocycle(self, n: int, x: GroupElement, inverse: bool) -> float:
        """The product of the walk's n factors (its reciprocal for S), summed
        in logs past LOG_SPACE_SWITCH factors; no point past them is made."""
        if n < 1:
            raise ValueError("cocycle index n must be >= 1")
        (step, first), w = self._walk(inverse), self.weight
        cur = x * step if first else x
        if n <= LOG_SPACE_SWITCH:
            out = w(cur)
            for _ in range(n - 1):
                cur = cur * step
                out *= w(cur)
            return 1.0 / out if inverse else out
        acc = math.log(w(cur))
        for _ in range(n - 1):
            cur = cur * step
            acc += math.log(w(cur))
        return math.exp(-acc if inverse else acc)


def log_values(values: np.ndarray) -> np.ndarray:
    """math.log of every entry, once per distinct value: the bits of
    ``math.log`` of each weight (np.log may differ in the last bit)."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([math.log(v) for v in distinct.tolist()])[where.reshape(-1)]
