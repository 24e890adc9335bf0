"""Hot numeric kernels on numpy arrays.

The formulas belong to their classes: each Young family's ``values`` and
each weight rule's ``Weight.orbit_logs``.  The two kernels stay module
functions so that the benchmark's tracer can hook them by name:
``modular_sum`` for every modular evaluation of the Luxemburg norm, and
``clampexp_orbit_logs`` for the clamp-exponential rule's orbit tables.
"""

from __future__ import annotations

import numpy as np


def modular_sum(abs_vals, k, mass, phi):
    """mass * sum(phi(v / k)) over the value array; +inf past a custom grid."""
    # the ndarray method skips np.sum's Python-level dispatch; the norm
    # bisection calls this kernel dozens of times per vector
    return mass * float(phi.values(abs_vals / k).sum())


def clampexp_orbit_logs(units, pow_units, h, heisenberg, coord, log_base, lo, hi):
    """Log-weights along orbits for the clamp-exponential weight rule.

    units:     (N, d) int64 start points in lattice units
    pow_units: (J, d) int64 lattice units of the group element's j-th powers
    Entry [i, j] is log w(units[i] * pow_units[j]) with
    w(x) = base**(-clamp(x[coord], lo, hi)).
    """
    x = units[:, coord].astype(np.float64)[:, None]
    a = pow_units[:, coord].astype(np.float64)[None, :]
    real = (x + a) * h
    if heisenberg and coord == 2:
        tw = units[:, 0].astype(np.float64)[:, None] * pow_units[:, 1].astype(
            np.float64
        )[None, :]
        real = real + tw * h * h
    return -np.clip(real, lo, hi) * log_base
