"""Step-by-step reference implementations of the orbit walks and sweeps.

These are the scalar loops that ``WeightedTranslation.apply``/``apply_inv``,
``build_periodic_point``, ``GroupElement.__pow__`` and the translate scan
of ``aperiodicity_bound`` replaced: one group product and one weight call
per support point per step, and every n up to n_max in the scan.  The
tests hold the array walks to them bit for bit.

``cocycle_fwd`` and ``cocycle_bwd`` are the two scalar loops that
``WeightedTranslation`` folded into one walk, as they were (with
``math.log(w(x))`` for the removed ``Weight.log_value``): each states its
own direction, and the backward loop still makes the unused point
x * a^-n, which may leave a lattice.  ``series_bound`` is the chaos
series with its geometric tails, from the operator's scalar cocycles;
the epsilon check of ``build_periodic_point`` compares it.
``log_tables`` is the one cumsum over whole rows that the blocked
``WeightedTranslation.log_tables`` replaced; it states the direction
rule literally, apart from the operator's ``_walk``.  ``sweep`` is the
engine's sweep one n at a time, and ``select_e`` chooses E_n at one n
from every accept row of a condition; ``dynamics._sweep`` and
``dynamics._select_e`` replaced them with one blocked sweep that
chooses E_n for a block of n at once.
"""

import math

import numpy as np

from orliczdyn import dynamics
from orliczdyn.dynamics import (
    DisjointnessViolatedError,
    DynamicsError,
    NotChaoticAtNError,
    PeriodicPointResult,
)
from orliczdyn.group import AperiodicityCertificate, EmptySetError, GroupError
from orliczdyn.orlicz import OrliczVector


def power(a, n):
    if n == 0:
        return a.model.identity()
    base = a if n > 0 else a.inverse()
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    return out


def aperiodicity_bound(a, K, n_max):
    if len(K) == 0:
        raise EmptySetError("aperiodicity scan needs a nonempty set")
    if n_max < 1:
        raise GroupError("n_max must be >= 1")
    if a.is_identity:
        return AperiodicityCertificate("periodic", None, n_max)
    base = set(K)
    last_hit = 0
    an = a.model.identity()
    for n in range(1, n_max + 1):
        an = an * a
        if an.is_identity:
            return AperiodicityCertificate("periodic", None, n_max)
        if not base.isdisjoint([k * an for k in K]):
            last_hit = n
    if last_hit >= n_max:
        return AperiodicityCertificate("not_within_bound", None, n_max)
    return AperiodicityCertificate("aperiodic", last_hit, n_max)


def apply(op, f, n=1):
    if n < 0:
        raise ValueError("n must be >= 0")
    w, a = op.weight, op.a
    out = f
    for _ in range(n):
        out = OrliczVector(op.model, [(x * a, w(x * a) * v) for x, v in out.items()])
    return out


def apply_inv(op, h, n=1):
    if n < 0:
        raise ValueError("n must be >= 0")
    w, a_inv = op.weight, op.a.inverse()
    out = h
    for _ in range(n):
        out = OrliczVector(op.model, [(x * a_inv, v / w(x)) for x, v in out.items()])
    return out


def build_periodic_point(op, phi, f, E, n, t_max, epsilon=None):
    if n < 1 or t_max < 0:
        raise DynamicsError("need n >= 1 and t_max >= 0")
    base = set(E)
    cur_set = E
    an = power(op.a, n)
    for _ in range(2 * t_max):
        cur_set = cur_set.translate(an)
        if not base.isdisjoint(cur_set):
            raise DisjointnessViolatedError(
                f"translates of E by powers of a^{n} are not pairwise disjoint"
            )
    if epsilon is not None and t_max >= 1:
        worst = max((series_bound(op, n, t_max, x) for x in E), default=0.0)
        if not worst < epsilon:
            raise NotChaoticAtNError(
                f"cocycle series {worst} not below epsilon={epsilon} at n={n}"
            )
    f_e = f.restrict(E)
    p = f_e
    cur = f_e
    for _ in range(t_max):
        cur = apply_inv(op, cur, n)
        p = p + cur
    bwd_last = cur
    cur = f_e
    for _ in range(t_max):
        cur = apply(op, cur, n)
        p = p + cur
    fwd_beyond = apply(op, cur, n)
    tail_bound = fwd_beyond.luxemburg_norm(phi) + bwd_last.luxemburg_norm(phi)
    return PeriodicPointResult(point=p, tail_bound=tail_bound, n=n, t_max=t_max)


def series_bound(op, n, t_max, x):
    """The chaos series at x: the forward and backward cocycles at t * n,
    t = 1..t_max, and for each direction the geometric tail
    last * rho / (1 - rho), rho the ratio of its last two terms (a missing
    one is 0); inf when some rho is not below 0.99 and its last term is
    not 0."""
    total = 0.0
    for cocycle in (op.cocycle_fwd, op.cocycle_bwd):
        terms = [0.0] + [cocycle(t * n, x) for t in range(1, t_max + 1)]
        total += sum(terms)
        last, prev = terms[-1], terms[-2]
        if last == 0.0:
            continue
        rho = last / prev if prev > 0 else math.inf
        if not rho < 0.99:
            return math.inf
        total += last * rho / (1.0 - rho)
    return total


def cocycle_fwd(op, n, x):
    if n < 1:
        raise ValueError("cocycle index n must be >= 1")
    w, a = op.weight, op.a
    cur = x
    if n <= 64:
        out = 1.0
        for _ in range(n):
            cur = cur * a
            out *= w(cur)
        return out
    acc = 0.0
    for _ in range(n):
        cur = cur * a
        acc += math.log(w(cur))
    return math.exp(acc)


def cocycle_bwd(op, n, x):
    if n < 1:
        raise ValueError("cocycle index n must be >= 1")
    w, a_inv = op.weight, op.a.inverse()
    cur = x
    if n <= 64:
        out = 1.0
        for _ in range(n):
            out *= w(cur)
            cur = cur * a_inv
        return 1.0 / out
    acc = 0.0
    for _ in range(n):
        acc += math.log(w(cur))
        cur = cur * a_inv
    return math.exp(-acc)


def log_tables(model, units, a, weight, depth):
    zero = np.zeros((len(units), 1))
    return tuple(
        np.hstack([zero, np.cumsum(weight.orbit_logs(model, units, b, js), axis=1)])
        for b, js in [(a, np.arange(1, depth + 1)), (a.inverse(), np.arange(depth))]
    )


def select_e(accept_matrix: np.ndarray, eps: float, budget: int):
    """Choose E_n: keep everything except up to `budget` violating points.

    Returns (ok, keep_mask, dropped_count).  The largest admissible E is
    used (only points with some quantity >= eps are dropped); when the
    budget is too small the worst offenders are dropped for the trace and
    ok is False.
    """
    n_pts = accept_matrix.shape[1]
    worst = np.max(accept_matrix, axis=0)
    budget = min(budget, n_pts - 1)
    viol = np.flatnonzero(~(worst < eps))
    keep = np.ones(n_pts, dtype=bool)
    if viol.size == 0:
        return True, keep, 0
    if viol.size <= budget:
        keep[viol] = False
        return True, keep, int(viol.size)
    order = np.lexsort((np.arange(n_pts), -np.where(np.isnan(worst), np.inf, worst)))
    drop = order[:budget]
    keep[drop] = False
    return False, keep, int(budget)


def sweep(scenario, conditions):
    columns = {c.name: c for cond in conditions for c in cond.columns}
    tables = dynamics._orbit_tables(
        scenario.operators(), scenario.K.units, columns.values(), scenario.n_max
    )
    mass = scenario.model.haar_cell_mass
    budget = int(math.floor(scenario.e_deficit_cap / mass + 1e-9))
    out = [([], []) for _ in conditions]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for n in range(1, scenario.n_max + 1):
            values = {name: c.values(tables, n) for name, c in columns.items()}
            for cond, (rows, oks) in zip(conditions, out):
                accept = np.vstack([values[c.name][1] for c in cond.columns])
                ok, keep, dropped = select_e(accept, scenario.epsilon, budget)
                sups = tuple(float(np.max(values[c.name][0][keep])) for c in cond.columns)
                rows.append((n, sups, dropped * mass))
                oks.append(ok)
    return [
        (dynamics._verdict_n(oks, cond.tail), tuple(rows))
        for cond, (rows, oks) in zip(conditions, out)
    ]
