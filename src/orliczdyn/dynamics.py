"""Condition checkers for disjoint transitivity, mixing and chaos.

Every checker mode is a condition swept by one engine.  A condition is

* a list of columns: sup quantities of the weight-product cocycles, each
  read off shared cumulative log tables at sweep index n as a (trace,
  accept) row over the points of a finite compact set K;
* the operators whose ``sup w <= 1`` refuses the run;
* a verdict rule: the first n at which every column is strictly below
  epsilon on K (or on a subset E_n chosen by the deficit policy), or for
  mixing the start of the last unbroken run of such n up to n_max.

A call makes one aperiodicity scan, builds one table per distinct weight
as deep as its columns read, and sweeps n = 1..n_max once.  The
disjoint-chaos sub-verdicts and the same-weight cross-check are extra
conditions over the same tables.  The conditions are limit statements,
so a failed sweep is reported as "not verified within bound", never as
a disproof.

Quantities per operator index l (power r_l), at sweep index n:

* ``fwd_l``          forward cocycle at r_l * n
* ``bwd_l``          backward cocycle at r_l * n
* ``cross_bwd_s_l``  bwd_s((r_l-r_s)n) * bwd_l(r_l n) / bwd_s(r_l n)
* ``cross_fwd_s_l``  fwd_l((r_l-r_s)n) * bwd_s(r_s n) / bwd_l(r_s n)
* ``gap_bwd_s_l``    bwd((r_l-r_s)n), ``gap_fwd_s_l`` fwd((r_l-r_s)n) of the
                     one shared weight (the same-weight reduction)
* ``series_l``       sum over t of fwd_l(t r_l n) + bwd_l(t r_l n),
                     truncated at t_max plus a certified geometric tail
                     for each of the two directions

The cocycles come from one log-table engine, ``_log_tables``: cumulative
sums of each weight rule's ``Weight.orbit_logs`` along the orbits of a
and a^-1, read at n and exponentiated, which keeps long products exact
to ~1e-13 relative.  The sweep reads them over K, and the epsilon check
of ``build_periodic_point`` reads them over E at depth t_max * n, so it
sees the numbers the ``chaotic`` sweep sees.  The scalar
``cocycle_fwd``/``cocycle_bwd`` of the operator are the oracle the tests
hold these tables to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .group import (
    AperiodicityCertificate,
    CompactSet,
    GroupElement,
    GroupModel,
    aperiodicity_bound,
    row_index,
)
from .orlicz import OrliczVector
from .translation import ORBIT_BLOCK_CELLS, Weight, WeightedTranslation
from .young import YoungFunction

VERDICT_VERIFIED = "verified"
VERDICT_NOT_VERIFIED = "not_verified_within_bound"
VERDICT_REFUSED = "refused"

_COUNTING_KINDS = {"int_line", "int_lattice", "heisenberg_int"}
_TAIL_RATIO_CAP = 0.99
_MAX_TABLE_CELLS = 5 * 10**7


class DynamicsError(Exception):
    pass


class ScenarioError(DynamicsError):
    pass


class SupportEscapesKError(DynamicsError):
    pass


class DisjointnessViolatedError(DynamicsError):
    pass


class NotChaoticAtNError(DynamicsError):
    pass


class CheckerDisagreementError(DynamicsError):
    """The reduced and general checkers disagreed; indicates a defect."""


@dataclass(frozen=True)
class Scenario:
    """Inputs for one checker run.

    ``e_deficit_cap`` is the Haar-measure budget the sweep may discard
    from K when selecting E_n (only for lattice models; counting-measure
    models always use E_n = K).
    """

    model: GroupModel
    phi: YoungFunction
    a: GroupElement
    weights: tuple
    powers: tuple
    K: CompactSet
    epsilon: float
    n_max: int
    t_max: int = 50
    e_deficit_cap: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "powers", tuple(int(r) for r in self.powers))
        if len(self.weights) != len(self.powers) or not self.weights:
            raise ScenarioError("need equally many weights and powers, at least one")
        if self.powers[0] < 1 or any(
            b <= a for a, b in zip(self.powers, self.powers[1:])
        ):
            raise ScenarioError("powers must be strictly increasing and >= 1")
        if self.a.model != self.model or self.K.model != self.model:
            raise ScenarioError("element / set belong to a different group model")
        if not self.K.measure > 0:
            raise ScenarioError("K must have positive measure")
        if not self.epsilon > 0:
            raise ScenarioError("epsilon must be positive")
        if self.n_max < 1 or self.t_max < 1:
            raise ScenarioError("n_max and t_max must be >= 1")
        if self.e_deficit_cap < 0:
            raise ScenarioError("deficit cap must be nonnegative")
        if self.e_deficit_cap > 0 and self.model.kind in _COUNTING_KINDS:
            raise ScenarioError(
                "counting-measure models always use E_n = K; deficit cap must be 0"
            )
        for i, w in enumerate(self.weights, start=1):
            if not isinstance(w, Weight):
                raise ScenarioError("weights must be Weight instances")
            try:
                w(self.model.identity())  # probe: coordinate index compatible
            except Exception as exc:
                raise ScenarioError(f"weight {i} cannot be evaluated: {exc}") from exc
        if self.model.kind == "heisenberg_lattice":
            tw = self.a.units[1] * Fraction(self.model.h).limit_denominator(10**12)
            if tw.denominator != 1:
                raise ScenarioError(
                    "heisenberg lattice: a's y-coordinate times h must be an integer "
                    "so orbit products stay on the lattice"
                )

    @property
    def L(self) -> int:
        return len(self.weights)

    def operator(self, idx: int) -> WeightedTranslation:
        return WeightedTranslation(self.model, self.a, self.weights[idx])

    def operators(self) -> tuple:
        return tuple(self.operator(i) for i in range(self.L))

    def summary(self) -> dict:
        return {
            "group": {"kind": self.model.kind, "h": self.model.h},
            "a": list(self.a.units),
            "weights": [repr(w) for w in self.weights],
            "powers": list(self.powers),
            "set_size": len(self.K),
            "set_measure": self.K.measure,
            "epsilon": self.epsilon,
            "n_max": self.n_max,
            "t_max": self.t_max,
            "e_deficit_cap": self.e_deficit_cap,
        }


@dataclass(frozen=True)
class ConditionReport:
    mode: str
    verdict: str
    n_star: int | None
    reason: str | None
    columns: tuple
    rows: tuple  # (n, values tuple, e_deficit)
    sub_verdicts: tuple = ()
    meta: dict = field(default_factory=dict)
    # None when no scan ran: under override, or refused before the scan
    aperiodicity: AperiodicityCertificate | None = None

    @property
    def verified(self) -> bool:
        return self.verdict == VERDICT_VERIFIED

    def row(self, n: int):
        for row in self.rows:
            if row[0] == n:
                return row
        raise KeyError(f"no trace row for n={n}")

    def value(self, n: int, column: str) -> float:
        return self.row(n)[1][self.columns.index(column)]

    def trace_csv(self) -> str:
        lines = ["n," + ",".join(self.columns) + ",e_k_deficit"]
        for n, values, deficit in self.rows:
            cells = [str(n)] + ["%.15g" % v for v in values] + ["%.15g" % deficit]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "verdict": self.verdict,
            "n_star": self.n_star,
            "reason": self.reason,
            "columns": list(self.columns),
            "scenario": dict(self.meta),
            "aperiodicity": None
            if self.aperiodicity is None
            else {"status": self.aperiodicity.status, "bound": self.aperiodicity.bound},
        }
        if self.sub_verdicts:
            doc["sub_verdicts"] = [dict(sv) for sv in self.sub_verdicts]
        return doc


# ---------------------------------------------------------------------------
# orbit tables


def _log_tables(model, units, a, weight, depth):
    """Cumulative log-cocycle tables of one weight over the rows of units:

    fwd[:, n] = sum_{j=1..n} log w(x a^j)        (fwd[:, 0] = 0)
    bwd[:, n] = sum_{j=0..n-1} log w(x a^-j)     (bwd[:, 0] = 0)

    for n = 0..depth, so the forward cocycle is exp(fwd[:, n]) and the
    backward cocycle is exp(-bwd[:, n]).  A row's prefix does not depend
    on the depth.
    """
    zero = np.zeros((len(units), 1))
    return tuple(
        np.hstack([zero, np.cumsum(weight.orbit_logs(model, units, b, js), axis=1)])
        for b, js in [(a, np.arange(1, depth + 1)), (a.inverse(), np.arange(depth))]
    )


class _OrbitTables:
    """The ``_log_tables`` of every operator over the sorted points of K:
    fwd[l] and bwd[l] for operator l.  Operators with equal weights share
    one pair, as deep as the deepest of them needs; a weight of depth 0
    gets none.
    """

    def __init__(self, scenario: Scenario, depths):
        self.points = scenario.K.sorted_elements()
        n_pts = len(self.points)
        max_depth = max(depths)
        if n_pts * max_depth > _MAX_TABLE_CELLS:
            raise ScenarioError(
                f"orbit table of {n_pts} x {max_depth} cells exceeds the desk-scale cap"
            )
        model = scenario.model
        units = model.units_array(self.points)
        weights = scenario.weights
        self.fwd = [None] * scenario.L
        self.bwd = [None] * scenario.L
        for l, w in enumerate(weights):
            sharing = [k for k, v in enumerate(weights) if v == w]  # Weight is unhashable
            d = max(depths[k] for k in sharing)
            if self.fwd[l] is not None or d == 0:
                continue
            tables = _log_tables(model, units, scenario.a, w, d)
            for k in sharing:
                self.fwd[k], self.bwd[k] = tables


# ---------------------------------------------------------------------------
# columns


class _Column(NamedTuple):
    """One sup quantity: ``values(tables, n)`` is its row over the points
    of K, or its (trace, accept) rows when not ``exact``.  ``reads`` maps
    each operator whose table it reads to the deepest index read, per n.
    A name stands for one formula; the sweep evaluates it once per n."""

    name: str
    reads: dict
    values: Callable
    exact: bool = True


def _fwd(r, l) -> _Column:
    return _Column(f"fwd_{l + 1}", {l: r[l]}, lambda t, n: np.exp(t.fwd[l][:, r[l] * n]))


def _bwd(r, l) -> _Column:
    return _Column(f"bwd_{l + 1}", {l: r[l]}, lambda t, n: np.exp(-t.bwd[l][:, r[l] * n]))


def _cross(r, s, l) -> list:
    """The cross quantities of the operator pair s < l."""

    def cross_bwd(t, n):
        gap = (r[l] - r[s]) * n
        return np.exp(-t.bwd[s][:, gap] - t.bwd[l][:, r[l] * n] + t.bwd[s][:, r[l] * n])

    def cross_fwd(t, n):
        gap = (r[l] - r[s]) * n
        return np.exp(t.fwd[l][:, gap] - t.bwd[s][:, r[s] * n] + t.bwd[l][:, r[s] * n])

    pair = f"s{s + 1}_l{l + 1}"
    reads = {s: r[l], l: r[l]}
    return [
        _Column(f"cross_bwd_{pair}", reads, cross_bwd),
        _Column(f"cross_fwd_{pair}", reads, cross_fwd),
    ]


def _gap(r, s, l) -> list:
    """The cross quantities of s < l when both share one weight: plain
    cocycles at the power gap."""
    pair = f"s{s + 1}_l{l + 1}"
    k = r[l] - r[s]
    return [
        _Column(f"gap_bwd_{pair}", {0: k}, lambda t, n: np.exp(-t.bwd[0][:, k * n])),
        _Column(f"gap_fwd_{pair}", {0: k}, lambda t, n: np.exp(t.fwd[0][:, k * n])),
    ]


def _pairwise_columns(scenario, pair) -> tuple:
    """fwd_l and bwd_l of every operator, then ``pair(r, s, l)`` for s < l."""
    r, L = scenario.powers, scenario.L
    cols = [_fwd(r, l) for l in range(L)] + [_bwd(r, l) for l in range(L)]
    for s in range(L):
        for l in range(s + 1, L):
            cols += pair(r, s, l)
    return tuple(cols)


def _geometric_tail(terms):
    """(certified, tail) of a series from the ratio of its last two terms:
    the tail is certified when that ratio is below the cap (or the last
    term is 0), and is then last * rho / (1 - rho), else 0."""
    last, prev = terms[:, -1], terms[:, -2]
    rho = np.where(prev > 0, last / np.where(prev > 0, prev, 1.0), np.inf)
    certified = (rho < _TAIL_RATIO_CAP) | (last == 0.0)
    return certified, np.where(certified & (last > 0), last * rho / (1.0 - rho), 0.0)


def _series_quantities(tables, l, r_l, n, t_max):
    """(trace, accept) for the chaos series of operator l.

    The forward and backward terms are two series with their own decay
    rates, so each gets its own ratio and tail; the ratio of their sum
    understates the slower one.  A point is accepted only when both tails
    are certified.
    """
    idx = np.arange(1, t_max + 1) * (r_l * n)
    fwd = np.exp(tables.fwd[l][:, idx])
    bwd = np.exp(-tables.bwd[l][:, idx])
    trunc = np.sum(fwd + bwd, axis=1)
    fwd_ok, fwd_tail = _geometric_tail(fwd)
    bwd_ok, bwd_tail = _geometric_tail(bwd)
    trace = trunc + fwd_tail + bwd_tail
    accept = np.where(fwd_ok & bwd_ok, trace, np.inf)
    return trace, accept


def _series(scenario, l) -> _Column:
    r_l, t_max = scenario.powers[l], scenario.t_max
    return _Column(
        f"series_{l + 1}",
        {l: t_max * r_l},
        lambda t, n: _series_quantities(t, l, r_l, n, t_max),
        exact=False,
    )


def _chaos_columns(scenario, l) -> tuple:
    return (_fwd(scenario.powers, l), _bwd(scenario.powers, l), _series(scenario, l))


# ---------------------------------------------------------------------------
# the sweep engine


class _Condition(NamedTuple):
    """Columns, the operators whose sup w <= 1 refuses the run, and the
    verdict rule: the first ok n, or with ``tail`` the start of the last
    unbroken run of ok n."""

    columns: tuple
    refuse_ops: Sequence[int]
    tail: bool = False


def _aperiodicity_refusal(cert: AperiodicityCertificate) -> str | None:
    if cert.status == "periodic":
        return (
            "translation element is the identity, hence periodic; "
            "transitivity requires an aperiodic element"
        )
    if cert.status == "not_within_bound":
        return (
            f"aperiodicity not certified within n_max={cert.n_max}: "
            "K still meets its own translates at the bound"
        )
    return None


def _weight_refusal(scenario: Scenario, ops) -> str | None:
    for l in ops:
        sup = scenario.weights[l].sup_bound()
        if sup <= 1.0:
            return (
                f"weight {l + 1}: sup(w) = {sup} <= 1, so the operator norm is "
                "at most 1 and the operator is never transitive"
            )
    return None


def _select_e(accept_matrix: np.ndarray, eps: float, budget: int):
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


def _sweep(scenario, conditions):
    """Run n = 1..n_max once for all conditions over one table build.

    Returns (verdict, n_star, None, rows) for each condition.
    """
    columns = {c.name: c for cond in conditions for c in cond.columns}
    depths = [0] * scenario.L
    for c in columns.values():
        for l, k in c.reads.items():
            depths[l] = max(depths[l], k * scenario.n_max)
    tables = _OrbitTables(scenario, depths)
    mass = scenario.model.haar_cell_mass
    budget = int(math.floor(scenario.e_deficit_cap / mass + 1e-9))
    out = [([], []) for _ in conditions]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for n in range(1, scenario.n_max + 1):
            values = {}
            for name, c in columns.items():
                v = c.values(tables, n)
                values[name] = (v, v) if c.exact else v
            for cond, (rows, oks) in zip(conditions, out):
                accept = np.vstack([values[c.name][1] for c in cond.columns])
                ok, keep, dropped = _select_e(accept, scenario.epsilon, budget)
                sups = tuple(float(np.max(values[c.name][0][keep])) for c in cond.columns)
                rows.append((n, sups, dropped * mass))
                oks.append(ok)
    results = []
    for cond, (rows, oks) in zip(conditions, out):
        n_star = _verdict_n(oks, cond.tail)
        verdict = VERDICT_NOT_VERIFIED if n_star is None else VERDICT_VERIFIED
        results.append((verdict, n_star, None, tuple(rows)))
    return results


def _verdict_n(oks, tail: bool):
    if not tail:
        return next((n for n, ok in enumerate(oks, start=1) if ok), None)
    k = len(oks)
    while k and oks[k - 1]:
        k -= 1
    return k + 1 if k < len(oks) else None


def _run(scenario, conditions, override):
    """Refuse or sweep each condition; one aperiodicity scan in all.

    Returns the aperiodicity certificate (None under override) and
    (verdict, n_star, reason, rows) per condition.  Refused conditions add
    nothing to the table build.
    """
    cert = None
    if override:
        reasons = [None] * len(conditions)
    else:
        cert = aperiodicity_bound(scenario.a, scenario.K, scenario.n_max)
        base = _aperiodicity_refusal(cert)
        reasons = [base or _weight_refusal(scenario, c.refuse_ops) for c in conditions]
    live = [c for c, reason in zip(conditions, reasons) if reason is None]
    swept = iter(_sweep(scenario, live) if live else ())
    return cert, [(VERDICT_REFUSED, None, r, ()) if r else next(swept) for r in reasons]


def _report(mode, scenario, cond, result, sub_verdicts=(), cert=None) -> ConditionReport:
    verdict, n_star, reason, rows = result
    columns = tuple(c.name for c in cond.columns)
    return ConditionReport(
        mode, verdict, n_star, reason, columns, rows,
        sub_verdicts=sub_verdicts, meta=scenario.summary(), aperiodicity=cert,
    )


def _check(mode, scenario, cond, override) -> ConditionReport:
    cert, (result,) = _run(scenario, [cond], override)
    return _report(mode, scenario, cond, result, cert=cert)


# ---------------------------------------------------------------------------
# checker modes


def check_disjoint_transitive(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Search for an n at which all transitivity quantities are < epsilon.

    Refuses (unless overridden) when the translation element is not
    certified aperiodic on K or some weight has sup at most 1.
    """
    if scenario.L < 2:
        raise ScenarioError("disjoint transitivity needs at least two operators")
    cond = _Condition(_pairwise_columns(scenario, _cross), range(scenario.L))
    return _check("disjoint_transitive", scenario, cond, override)


def check_disjoint_mixing(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Like the transitive check, but the condition must hold at every n
    of a tail window [n_tail, n_max]; n_star reports n_tail."""
    if scenario.L < 2:
        raise ScenarioError("disjoint mixing needs at least two operators")
    cond = _Condition(_pairwise_columns(scenario, _cross), range(scenario.L), tail=True)
    return _check("disjoint_mixing", scenario, cond, override)


def check_same_weight(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Reduced checker for operators sharing one weight.

    The cross quantities collapse to plain cocycles at the power gaps;
    the general transitive columns are swept over the same tables and
    must agree (a built-in consistency assertion).
    """
    if scenario.L < 2:
        raise ScenarioError("the same-weight check needs at least two operators")
    ops = range(scenario.L)
    reduced = _Condition(_pairwise_columns(scenario, _gap), ops)
    w0 = scenario.weights[0]
    if any(w != w0 for w in scenario.weights[1:]):
        reason = "weights differ; the reduced check applies to one shared weight"
        return _report("same_weight", scenario, reduced, (VERDICT_REFUSED, None, reason, ()))
    general = _Condition(_pairwise_columns(scenario, _cross), ops)
    cert, (result, check) = _run(scenario, [reduced, general], override)
    if check[:2] != result[:2]:
        raise CheckerDisagreementError(
            f"reduced ({result[0]}, {result[1]}) vs general ({check[0]}, {check[1]})"
        )
    return _report("same_weight", scenario, reduced, result, cert=cert)


def check_chaotic(scenario: Scenario, op_index: int = 0, override: bool = False) -> ConditionReport:
    """Chaos check for a single operator: the cocycle series over E must
    drop below epsilon, with the geometric tail of the forward and of the
    backward terms each certified from the ratio of its own last two
    truncated terms (ratio < 0.99 required)."""
    if not 0 <= op_index < scenario.L:
        raise ScenarioError(f"op_index {op_index} out of range")
    if scenario.t_max < 8:
        raise ScenarioError("chaos checks need truncation depth t_max >= 8")
    cond = _Condition(_chaos_columns(scenario, op_index), (op_index,))
    return _check("chaotic", scenario, cond, override)


def check_disjoint_chaotic(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Conjunction: every operator's chaos series and both cross-term
    families below epsilon at a common n.  Per-operator chaos verdicts
    are attached as sub-verdicts; they are the `check_chaotic` conditions
    swept over the same tables."""
    if scenario.L < 2:
        raise ScenarioError("disjoint chaos needs at least two operators")
    if scenario.t_max < 8:
        raise ScenarioError("chaos checks need truncation depth t_max >= 8")
    L = scenario.L
    series = tuple(_series(scenario, l) for l in range(L))
    combined = _Condition(_pairwise_columns(scenario, _cross) + series, range(L))
    singles = [_Condition(_chaos_columns(scenario, l), (l,)) for l in range(L)]
    cert, (result, *single_results) = _run(scenario, [combined, *singles], override)
    sub = tuple(
        {"op": l + 1, "verdict": verdict, "n_star": n_star}
        for l, (verdict, n_star, _, _) in enumerate(single_results)
    )
    return _report("disjoint_chaotic", scenario, combined, result, sub, cert)


# ---------------------------------------------------------------------------
# constructive witness and periodic points


def _check_supports(scenario, f, targets, E):
    K = scenario.K
    if not E.issubset(K):
        raise SupportEscapesKError("E must be a subset of K")
    for name, vec in [("f", f)] + [(f"g_{i + 1}", g) for i, g in enumerate(targets)]:
        for x in vec.support:
            if x not in K:
                raise SupportEscapesKError(f"support of {name} escapes K")


def build_witness(scenario, f, targets, n, E) -> OrliczVector:
    """Approximating vector f*chi_E + sum_l S_l^{r_l n}(g_l * chi_E).

    The number of targets must equal the number of operators (or be
    empty, in which case the witness degenerates to f*chi_E).
    """
    targets = tuple(targets)
    if targets and len(targets) != scenario.L:
        raise ScenarioError("need one target per operator (or none)")
    _check_supports(scenario, f, targets, E)
    v = f.restrict(E)
    for idx, g in enumerate(targets):
        op = scenario.operator(idx)
        v = v + op.apply_inv(g.restrict(E), scenario.powers[idx] * n)
    return v


def verify_witness(scenario, v, f, targets, n):
    """Residual norms by direct operator iteration (no cocycle tables).

    Returns (rho_0, [rho_1, ..., rho_L]) with rho_0 = N(v - f) and
    rho_l = N(T_l^{r_l n} v - g_l).
    """
    targets = tuple(targets)
    rho0 = (v - f).luxemburg_norm(scenario.phi)
    rhos = []
    for idx, g in enumerate(targets):
        op = scenario.operator(idx)
        image = op.apply(v, scenario.powers[idx] * n)
        rhos.append((image - g).luxemburg_norm(scenario.phi))
    return rho0, rhos


@dataclass(frozen=True)
class PeriodicPointResult:
    point: OrliczVector
    tail_bound: float
    n: int
    t_max: int


def build_periodic_point(
    op: WeightedTranslation,
    phi: YoungFunction,
    f: OrliczVector,
    E: CompactSet,
    n: int,
    t_max: int,
    epsilon: float | None = None,
) -> PeriodicPointResult:
    """Truncated bilateral orbit sum p = sum_m S^{mn}(f chi_E) + T^{mn}(f chi_E).

    The untruncated series is an exact fixed point of T^n; truncation at
    t_max leaves the residual T^{(t_max+1)n}(f chi_E) - S^{t_max n}(f chi_E),
    whose norm is bounded by the reported tail bound.  The translates
    E a^{mn} must be pairwise disjoint up to m = t_max; when epsilon is
    given, the cocycle series of f's operator at this n must already be
    below it on E.
    """
    if n < 1 or t_max < 0:
        raise DynamicsError("need n >= 1 and t_max >= 0")
    if _translates_meet(E, op.a**n, 2 * t_max):
        raise DisjointnessViolatedError(
            f"translates of E by powers of a^{n} are not pairwise disjoint"
        )
    model = op.model
    if epsilon is not None and t_max >= 1:
        # the numbers the chaos sweep reads: its tables at depth t_max * n, summed alike
        fwd, bwd = _log_tables(model, model.units_array(E.elements), op.a, op.weight, t_max * n)
        idx = n * np.arange(1, t_max + 1)
        with np.errstate(over="ignore"):
            series = np.sum(np.exp(fwd[:, idx]) + np.exp(-bwd[:, idx]), axis=1)
        worst = float(np.max(series, initial=0.0))
        if not worst < epsilon:
            raise NotChaoticAtNError(
                f"cocycle series {worst} not below epsilon={epsilon} at n={n}"
            )
    f_e = f.restrict(E)
    fwd_units, fwd = op.orbit(f_e, n, t_max + 1)
    parts = [(fwd_units[:, :-1], fwd[:, :-1])]
    bwd_last = f_e
    if t_max:
        bwd_units, bwd = op.orbit(f_e, n, t_max, inverse=True)
        parts.insert(0, (bwd_units, bwd))
        bwd_last = OrliczVector.from_arrays(model, bwd_units[:, -1], bwd[:, -1])
    # p = f chi_E, then S^{mn} and T^{mn} (f chi_E) for m = 1..t_max, one
    # translate after the other.  The translates E a^(mn), |m| <= t_max, are
    # pairwise disjoint, so no key repeats; entries that underflowed to 0.0
    # drop out, as in a sum of vectors.
    units = np.concatenate([u.transpose(1, 0, 2).reshape(-1, model.dim) for u, _ in parts])
    values = np.concatenate([v.T.reshape(-1) for _, v in parts])
    keep = values != 0.0
    entries = dict(f_e.items())
    entries.update(zip(model.elements(units[keep]), values[keep].tolist()))
    p = OrliczVector(f_e.model)
    p._entries = entries
    # residual of the truncation: T^{(t_max+1)n}(f chi_E) - S^{t_max n}(f chi_E)
    fwd_beyond = OrliczVector.from_arrays(model, fwd_units[:, -1], fwd[:, -1])
    tail_bound = fwd_beyond.luxemburg_norm(phi) + bwd_last.luxemburg_norm(phi)
    return PeriodicPointResult(point=p, tail_bound=tail_bound, n=n, t_max=t_max)


def _translates_meet(E: CompactSet, b: GroupElement, count: int) -> bool:
    """Whether E meets some E b^k, k = 1..count: one membership test on
    unit rows per block of translates.

    A walk off the lattice fails at its first step, or at its second when
    den(b_1 h) divides every x_0 but not b_0; then E cannot meet E b, so
    the error is the one a scan one translate at a time raises first.
    """
    rows = E.model.units_array(E.elements)
    if not len(rows):
        return False
    block = max(1, ORBIT_BLOCK_CELLS // len(rows))
    for k in range(1, count + 1, block):
        moved = E.model.orbit_units(rows, b, np.arange(k, min(k + block, count + 1)))
        if (row_index(moved.reshape(-1, E.model.dim), rows) >= 0).any():
            return True
    return False
