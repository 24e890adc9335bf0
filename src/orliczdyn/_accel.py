"""Hot numeric kernels on numpy arrays.

Young-function family codes used by the kernels:
    0  power      phi(t) = t**p / p
    1  power-log  phi(t) = t**p * (1 + |log t|)
    2  custom     piecewise-linear interpolation on (grid_t, grid_y)
"""

from __future__ import annotations

import numpy as np

FAMILY_POWER = 0
FAMILY_POWERLOG = 1
FAMILY_CUSTOM = 2

EMPTY_GRID = np.zeros(1, dtype=np.float64)


def phi_values(ts, code, p, grid_t, grid_y):
    """Vectorized phi on nonnegative inputs; custom out-of-grid -> +inf."""
    ts = np.asarray(ts, dtype=np.float64)
    if code == FAMILY_POWER:
        return ts**p / p
    if code == FAMILY_POWERLOG:
        out = np.zeros_like(ts)
        pos = ts > 0.0
        u = ts[pos]
        out[pos] = u**p * (1.0 + np.abs(np.log(u)))
        return out
    out = np.interp(ts, grid_t, grid_y)
    out = np.where(ts > grid_t[-1], np.inf, out)
    return out


def modular_sum(abs_vals, k, mass, code, p, grid_t, grid_y):
    """mass * sum(phi(v / k)) over the value array."""
    # the ndarray method skips np.sum's Python-level dispatch; the norm
    # bisection calls this kernel dozens of times per vector
    return mass * float(phi_values(abs_vals / k, code, p, grid_t, grid_y).sum())


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
