"""Condition checkers for disjoint transitivity, mixing and chaos.

Every checker mode is a condition swept by one engine.  A condition is

* a list of columns (``_Column``): sup quantities of the weight-product
  cocycles over the points of a finite compact set K;
* a verdict rule: the first n at which every column is strictly below
  epsilon on K (or on a subset E_n chosen by the deficit policy), or for
  mixing the start of the last unbroken run of such n up to n_max.

A checker is its conditions and one ``_run`` call, which makes one
aperiodicity scan, builds one table per distinct weight as deep as its
columns read, sweeps n = 1..n_max once and hands back one finished
report per condition.  The disjoint-chaos sub-verdicts and the
same-weight cross-check are extra conditions over the same tables.
A weight with sup w <= 1 refuses the conditions whose terms read its
operator.  ``_pairwise_columns`` refuses one operator (field
``weights``) and ``_chaos_columns`` a truncation depth below 8 (field
``t_max``).  ``_report`` alone decides a verdict, from the sweep's
(n_star, rows) or from a refusal's reason.  The conditions are limit
statements, so a failed sweep is reported as "not verified within
bound", never as a disproof.

The sweep reads every column once for a whole block of n.  E_n is all
of K unless some point violates at n and the deficit budget
(``e_deficit_cap`` in whole Haar cells, only on lattice models) is one
cell or more; then ``_select_e`` drops the worst violators, at most the
budget, and the trace cell is the max over what is left.

A column term (sign, direction, l, k) stands for sign times the log
table of operator l in that direction at index k * n, and a column's row
is exp of its terms' sum; ``_exp_sum`` is the one reader of the tables.
The table depths come from the terms.  Quantities per operator index l
(power r_l), at sweep index n:

* ``fwd_l``          forward cocycle at r_l * n
* ``bwd_l``          backward cocycle at r_l * n
* ``cross_bwd_s_l``  bwd_s((r_l-r_s)n) * bwd_l(r_l n) / bwd_s(r_l n)
* ``cross_fwd_s_l``  fwd_l((r_l-r_s)n) * bwd_s(r_s n) / bwd_l(r_s n)
* ``gap_bwd_s_l``    bwd((r_l-r_s)n), ``gap_fwd_s_l`` fwd((r_l-r_s)n) of the
                     one shared weight (the same-weight reduction)
* ``series_l``       sum over t of fwd_l(t r_l n) + bwd_l(t r_l n),
                     truncated at t_max plus a certified geometric tail
                     for each of the two directions

The cocycles come from one log-table engine, the operator's
``WeightedTranslation.log_tables``: cumulative sums of each weight
rule's ``Weight.orbit_logs`` along the orbit walks of T and S, read at
n and exponentiated, which keeps long products exact to ~1e-13
relative.  ``_orbit_tables`` is the one builder of them, and refuses a
build whose tables hold more than ``_MAX_TABLE_CELLS`` cells in all,
naming ``t_max`` when only the series depth is at fault: the sweep reads
them over K, and the epsilon check of
``build_periodic_point`` reads the ``series`` column of its operator
over E at its n, so it accepts exactly where the ``chaotic`` sweep's
``series_1`` cell would, tails included, and a refusal names that cell.
Its disjointness test is the aperiodicity scan of a^n over E up to
2 t_max, projection cap included.  The scalar ``cocycle_fwd`` and
``cocycle_bwd`` of the operator are the oracle the tests hold these
tables to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import translation
from .group import (
    AperiodicityCertificate,
    CompactSet,
    GroupElement,
    GroupModel,
    _h_fraction,
    _is_int,
    aperiodicity_bound,
    row_index,
)
from .orlicz import OrliczVector
from .translation import Weight, WeightedTranslation
from .young import YoungFunction

VERDICT_VERIFIED = "verified"
VERDICT_NOT_VERIFIED = "not_verified_within_bound"
VERDICT_REFUSED = "refused"

_TAIL_RATIO_CAP = 0.99
_MAX_TABLE_CELLS = 5 * 10**7


class DynamicsError(Exception):
    pass


class ScenarioError(DynamicsError):
    """A refused scenario; ``field`` names the Scenario field at fault, if one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


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
        powers = tuple(self.powers)
        if not all(map(_is_int, powers)):
            raise ScenarioError(f"powers must be integers, got {powers}", "powers")
        object.__setattr__(self, "powers", tuple(map(int, powers)))
        if len(self.weights) != len(self.powers) or not self.weights:
            raise ScenarioError("need equally many weights and powers, at least one", "powers")
        if self.powers[0] < 1 or any(
            b <= a for a, b in zip(self.powers, self.powers[1:])
        ):
            raise ScenarioError("powers must be strictly increasing and >= 1", "powers")
        if self.a.model != self.model:
            raise ScenarioError("a belongs to a different group model", "a")
        if self.K.model != self.model:
            raise ScenarioError("K belongs to a different group model", "K")
        if not self.K.measure > 0:
            raise ScenarioError("K must have positive measure", "K")
        if not self.epsilon > 0:
            raise ScenarioError("epsilon must be positive", "epsilon")
        if not _is_int(self.n_max) or self.n_max < 1:
            raise ScenarioError(f"n_max must be an integer >= 1, got {self.n_max!r}", "n_max")
        if not _is_int(self.t_max) or self.t_max < 1:
            raise ScenarioError(f"t_max must be an integer >= 1, got {self.t_max!r}", "t_max")
        if not self.e_deficit_cap >= 0:  # NaN too
            raise ScenarioError("deficit cap must be nonnegative", "e_deficit_cap")
        if self.e_deficit_cap > 0 and not self.model.is_lattice:
            raise ScenarioError(
                "counting-measure models always use E_n = K; deficit cap must be 0",
                "e_deficit_cap",
            )
        for i, w in enumerate(self.weights):
            if not isinstance(w, Weight):
                raise ScenarioError("weights must be Weight instances", "weights")
            try:
                w(self.model.identity())  # probe: coordinate index compatible
            except Exception as exc:
                msg = f"weights[{i}] cannot be evaluated: {exc}"
                raise ScenarioError(msg, f"weights[{i}]") from exc
        if self.model.kind == "heisenberg_lattice":
            if (self.a.units[1] * _h_fraction(self.model.h)).denominator != 1:
                raise ScenarioError(
                    "heisenberg lattice: a's y-coordinate times h must be an integer "
                    "so orbit products stay on the lattice", "a"
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


def _orbit_tables(ops, units, columns, n_max) -> dict:
    """The ``log_tables`` of the operators ``ops`` over the rows of an
    (N, d) units array, keyed by (direction, l), for operator l as deep as
    the largest k * max(t_max, 1) * n_max of the column terms that read it.
    Equal operators share the pair of the first of them, as deep as the
    deepest needs; an operator no term reads gets none.  The two (N,
    depth + 1) tables of every pair count against the desk-scale cap; a
    refusal names ``t_max`` when the build would fit with every series
    truncated at min(t_max, 8), else ``n_max``."""
    first = [ops.index(op) for op in ops]  # Weight is unhashable

    def depths(t_cap) -> dict:
        out = {}
        for c in columns:
            for _, _, l, k in c.terms:
                d = k * max(min(c.t_max, t_cap), 1) * n_max
                out[first[l]] = max(out.get(first[l], 0), d)
        return out

    def cells(ds) -> int:
        return sum(2 * len(units) * (d + 1) for d in ds.values())

    need = depths(math.inf)
    if cells(need) > _MAX_TABLE_CELLS:
        raise ScenarioError(
            f"orbit tables of {cells(need)} cells ({len(units)} points, depths up to "
            f"{max(need.values())}) exceed the desk-scale cap of {_MAX_TABLE_CELLS}",
            "t_max" if cells(depths(8)) <= _MAX_TABLE_CELLS else "n_max",
        )
    built = {f: ops[f].log_tables(units, d) for f, d in sorted(need.items())}
    tables = {}
    for l, f in enumerate(first):
        if f in built:
            tables["fwd", l], tables["bwd", l] = built[f]
    return tables


def _exp_sum(tables, terms, n):
    """exp of the sum of ``terms`` at sweep index n, taken in order: each
    term (sign, direction, l, k) is sign * tables[direction, l][:, k * n].
    n is one index or an array of them; an array adds its axes to the row.
    This is the one reader of the log tables."""
    total = 0.0
    for sign, direction, l, k in terms:
        total = (np.add if sign > 0 else np.subtract)(total, tables[direction, l][:, k * n])
    return np.exp(total)


# ---------------------------------------------------------------------------
# columns


class _Column(NamedTuple):
    """One sup quantity as a signed sum of log-table reads: ``values(tables,
    n)`` is ``_exp_sum`` of ``terms``, a row over the points of K.  With
    ``t_max`` it is the chaos series of its forward and backward terms,
    each summed at t * n, t = 1..t_max, plus its own certified geometric
    tail (the two decay at their own rates, and the ratio of their sum
    understates the slower one), and accepts a point only when both tails
    are certified.  ``values`` gives (trace, accept) rows, one row twice
    for a plain column.  A name stands for one formula, read once per n."""

    name: str
    terms: tuple
    t_max: int = 0

    def values(self, tables, n):
        if not self.t_max:
            v = _exp_sum(tables, self.terms, n)
            return v, v
        idx = np.multiply.outer(n, np.arange(1, self.t_max + 1))
        fwd, bwd = (_exp_sum(tables, (term,), idx) for term in self.terms)
        fwd_ok, fwd_tail = _geometric_tail(fwd)
        bwd_ok, bwd_tail = _geometric_tail(bwd)
        trace = np.sum(fwd + bwd, axis=-1) + fwd_tail + bwd_tail
        return trace, np.where(fwd_ok & bwd_ok, trace, np.inf)


def _fwd(r, l) -> _Column:
    return _Column(f"fwd_{l + 1}", ((1, "fwd", l, r[l]),))


def _bwd(r, l) -> _Column:
    return _Column(f"bwd_{l + 1}", ((-1, "bwd", l, r[l]),))


def _cross(r, s, l) -> list:
    """The cross quantities of the operator pair s < l."""
    pair, gap = f"s{s + 1}_l{l + 1}", r[l] - r[s]
    bwd = ((-1, "bwd", s, gap), (-1, "bwd", l, r[l]), (1, "bwd", s, r[l]))
    fwd = ((1, "fwd", l, gap), (-1, "bwd", s, r[s]), (1, "bwd", l, r[s]))
    return [_Column(f"cross_bwd_{pair}", bwd), _Column(f"cross_fwd_{pair}", fwd)]


def _gap(r, s, l) -> list:
    """The cross quantities of s < l when both share one weight: plain
    cocycles at the power gap."""
    pair, gap = f"s{s + 1}_l{l + 1}", r[l] - r[s]
    bwd, fwd = ((-1, "bwd", 0, gap),), ((1, "fwd", 0, gap),)
    return [_Column(f"gap_bwd_{pair}", bwd), _Column(f"gap_fwd_{pair}", fwd)]


def _pairwise_columns(scenario, pair) -> tuple:
    """fwd_l and bwd_l of every operator, then ``pair(r, s, l)`` for s < l;
    refuses a scenario of one operator."""
    r, L = scenario.powers, scenario.L
    if L < 2:
        raise ScenarioError("disjoint checks need at least two operators", "weights")
    cols = [_fwd(r, l) for l in range(L)] + [_bwd(r, l) for l in range(L)]
    for s in range(L):
        for l in range(s + 1, L):
            cols += pair(r, s, l)
    return tuple(cols)


def _geometric_tail(terms):
    """(certified, tail) of a series from the ratio of its last two terms
    (the last axis of ``terms``; a missing previous term counts as 0): the
    tail is certified when that ratio is below the cap (or the last term
    is 0), and is then last * rho / (1 - rho), else 0."""
    last = terms[..., -1]
    prev = terms[..., -2] if terms.shape[-1] > 1 else np.zeros_like(last)
    rho = np.where(prev > 0, last / np.where(prev > 0, prev, 1.0), np.inf)
    certified = (rho < _TAIL_RATIO_CAP) | (last == 0.0)
    return certified, np.where(certified & (last > 0), last * rho / (1.0 - rho), 0.0)


def _series(r, l, t_max) -> _Column:
    return _Column(f"series_{l + 1}", _fwd(r, l).terms + _bwd(r, l).terms, t_max)


def _chaos_columns(scenario, l) -> tuple:
    """fwd_l, bwd_l and series_l; refuses a truncation depth below 8."""
    if scenario.t_max < 8:
        raise ScenarioError("chaos checks need truncation depth t_max >= 8", "t_max")
    r = scenario.powers
    return (_fwd(r, l), _bwd(r, l), _series(r, l, scenario.t_max))


# ---------------------------------------------------------------------------
# the sweep engine


class _Condition(NamedTuple):
    """Columns and the verdict rule: the first ok n, or with ``tail`` the
    start of the last unbroken run of ok n.  A weight with sup w <= 1 of
    an operator that the columns' terms read refuses the condition."""

    columns: tuple
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


def _weight_refusal(scenario: Scenario, cond: _Condition) -> str | None:
    for l in sorted({l for c in cond.columns for _, _, l, _ in c.terms}):
        sup = scenario.weights[l].sup_bound()
        if sup <= 1.0:
            return (
                f"weight {l + 1}: sup(w) = {sup} <= 1, so the operator norm is "
                "at most 1 and the operator is never transitive"
            )
    return None


def _select_e(worst, eps: float, budget: int):
    """Choose E_n for a block of n from one condition's (|K|, n) worst
    accept values per point: keep everything except up to ``budget``
    violating points.

    A point violates at n when its worst value is not below eps (NaN
    violates).  n is ok when at most ``budget`` points violate; the
    largest admissible E is used, and when the budget is too small the
    worst offenders are dropped for the trace.  Points rank by their worst
    value, NaN as +inf, ties by position in K.  Returns (ok, keep, dropped)
    per n, with ``keep`` None when nothing is dropped in the block.
    """
    viol = np.count_nonzero(~(worst < eps), axis=0)
    dropped = np.minimum(viol, budget)
    if not dropped.any():
        return viol <= budget, None, dropped
    order = np.argsort(-np.where(np.isnan(worst), np.inf, worst), axis=0, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(len(worst))[:, None], axis=0)
    return viol <= budget, rank >= dropped, dropped


def _sweep(scenario, conditions):
    """Run n = 1..n_max once for all conditions over one table build.

    Each column's sum of table reads (``_exp_sum``) is taken once for a
    whole block of n; a block holds at most translation.ORBIT_BLOCK_CELLS
    cells per array (|K| x n x t_max for a series), or one n when that
    alone is more.  Its accept values fold into each condition's worst
    value per point, ``_select_e`` chooses E_n for the block from those,
    and a trace cell is the column's max over E_n.
    Returns (n_star, rows) for each condition.
    """
    columns = {c.name: c for cond in conditions for c in cond.columns}
    n_pts, n_max = len(scenario.K), scenario.n_max
    tables = _orbit_tables(scenario.operators(), scenario.K.units, columns.values(), n_max)
    mass = scenario.model.haar_cell_mass
    budget = int(math.floor(min(scenario.e_deficit_cap / mass + 1e-9, n_pts - 1)))
    width = max(max(c.t_max, 1) for c in columns.values())
    block = max(1, translation.ORBIT_BLOCK_CELLS // (n_pts * width))
    owned = [{c.name for c in cond.columns} for cond in conditions]
    out = [([], []) for _ in conditions]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for start in range(1, n_max + 1, block):
            ns = np.arange(start, min(start + block, n_max + 1))
            tops, traces, worst = {}, {}, [None] * len(conditions)
            for name, c in columns.items():
                trace, accept = c.values(tables, ns)
                tops[name] = np.max(trace, axis=0)
                # only a budget lets E_n differ from K; without one, holding
                # a block's columns only puts each block on fresh pages
                if budget:
                    traces[name] = trace
                for k, names in enumerate(owned):
                    if name in names:
                        worst[k] = accept if worst[k] is None else np.maximum(worst[k], accept)
            for cond, w, (rows, oks) in zip(conditions, worst, out):
                ok, keep, dropped = _select_e(w, scenario.epsilon, budget)
                sups = [
                    tops[c.name]
                    if keep is None
                    else np.max(traces[c.name], axis=0, where=keep, initial=-np.inf)
                    for c in cond.columns
                ]
                cells = zip(*(s.tolist() for s in sups))
                rows += zip(ns.tolist(), cells, (dropped * mass).tolist())
                oks += ok.tolist()
    return [(_verdict_n(oks, c.tail), tuple(rows)) for c, (rows, oks) in zip(conditions, out)]


def _verdict_n(oks, tail: bool):
    if not tail:
        return next((n for n, ok in enumerate(oks, start=1) if ok), None)
    k = len(oks)
    while k and oks[k - 1]:
        k -= 1
    return k + 1 if k < len(oks) else None


def _run(mode, scenario, conditions, override) -> list:
    """One ``ConditionReport`` per condition, each refused or swept; one
    aperiodicity scan in all.  Refused conditions add nothing to the table
    build."""
    cert = None
    if override:
        reasons = [None] * len(conditions)
    else:
        cert = aperiodicity_bound(scenario.a, scenario.K, scenario.n_max)
        base = _aperiodicity_refusal(cert)
        reasons = [base or _weight_refusal(scenario, c) for c in conditions]
    live = [c for c, reason in zip(conditions, reasons) if reason is None]
    swept = iter(_sweep(scenario, live) if live else ())
    meta = scenario.summary()
    return [
        _report(mode, cond, meta, cert, *(() if r else next(swept)), reason=r)
        for cond, r in zip(conditions, reasons)
    ]


def _report(mode, cond, meta, cert, n_star=None, rows=(), reason=None) -> ConditionReport:
    """The one place a verdict is chosen: refused, verified at n_star, or not."""
    verdict = VERDICT_REFUSED if reason else VERDICT_VERIFIED if n_star else VERDICT_NOT_VERIFIED
    columns = tuple(c.name for c in cond.columns)
    return ConditionReport(mode, verdict, n_star, reason, columns, rows, (), meta, cert)


# ---------------------------------------------------------------------------
# checker modes


def check_disjoint_transitive(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Search for an n at which all transitivity quantities are < epsilon.

    Refuses (unless overridden) when the translation element is not
    certified aperiodic on K or some weight has sup at most 1.
    """
    cond = _Condition(_pairwise_columns(scenario, _cross))
    return _run("disjoint_transitive", scenario, [cond], override)[0]


def check_disjoint_mixing(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Like the transitive check, but the condition must hold at every n
    of a tail window [n_tail, n_max]; n_star reports n_tail."""
    cond = _Condition(_pairwise_columns(scenario, _cross), tail=True)
    return _run("disjoint_mixing", scenario, [cond], override)[0]


def check_same_weight(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Reduced checker for operators sharing one weight.

    The cross quantities collapse to plain cocycles at the power gaps;
    the general transitive columns are swept over the same tables and
    must agree (a built-in consistency assertion).
    """
    reduced = _Condition(_pairwise_columns(scenario, _gap))
    w0 = scenario.weights[0]
    if any(w != w0 for w in scenario.weights[1:]):
        reason = "weights differ; the reduced check applies to one shared weight"
        return _report("same_weight", reduced, scenario.summary(), None, reason=reason)
    general = _Condition(_pairwise_columns(scenario, _cross))
    result, check = _run("same_weight", scenario, [reduced, general], override)
    got, want = (result.verdict, result.n_star), (check.verdict, check.n_star)
    if got != want:
        raise CheckerDisagreementError(f"reduced {got} vs general {want}")
    return result


def check_chaotic(scenario: Scenario, op_index: int = 0, override: bool = False) -> ConditionReport:
    """Chaos check for a single operator: the cocycle series over E must
    drop below epsilon, with the geometric tail of the forward and of the
    backward terms each certified from the ratio of its own last two
    truncated terms (ratio < 0.99 required)."""
    if not 0 <= op_index < scenario.L:
        raise ScenarioError(f"op_index {op_index} out of range")
    cond = _Condition(_chaos_columns(scenario, op_index))
    return _run("chaotic", scenario, [cond], override)[0]


def check_disjoint_chaotic(scenario: Scenario, override: bool = False) -> ConditionReport:
    """Conjunction: every operator's chaos series and both cross-term
    families below epsilon at a common n.  Per-operator chaos verdicts
    are attached as sub-verdicts; they are the `check_chaotic` conditions
    swept over the same tables."""
    L = scenario.L
    cross = _pairwise_columns(scenario, _cross)
    singles = [_Condition(_chaos_columns(scenario, l)) for l in range(L)]
    combined = _Condition(cross + tuple(c.columns[-1] for c in singles))
    result, *singles = _run("disjoint_chaotic", scenario, [combined, *singles], override)
    sub = tuple(
        {"op": l + 1, "verdict": s.verdict, "n_star": s.n_star} for l, s in enumerate(singles)
    )
    return replace(result, sub_verdicts=sub)


# ---------------------------------------------------------------------------
# constructive witness and periodic points


def _check_supports(scenario, f, targets, E):
    K = scenario.K
    if not E.issubset(K):
        raise SupportEscapesKError("E must be a subset of K")
    for name, vec in [("f", f)] + [(f"g_{i + 1}", g) for i, g in enumerate(targets)]:
        if (row_index(vec.units, K.units) < 0).any():
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
    E a^{mn} must be pairwise disjoint for |m| <= t_max; when epsilon is
    given, the ``chaotic`` sweep's ``series_1`` cell at this n and t_max
    over E, tails included, must already be below it.
    """
    if n < 1 or t_max < 0:
        raise DynamicsError("need n >= 1 and t_max >= 0")
    b = op.a**n
    # E meets none of E b^k, 0 < k <= 2 t_max, iff the scan finds no hit
    if t_max and len(E) and aperiodicity_bound(b, E, 2 * t_max).bound != 0:
        raise DisjointnessViolatedError(
            f"translates of E by powers of a^{n} are not pairwise disjoint"
        )
    model = op.model
    if epsilon is not None and t_max >= 1:
        # the chaotic sweep's series_1 cell over E at this n, tails included
        series = _series((1,), 0, t_max)
        tables = _orbit_tables((op,), E.units, [series], n)
        with np.errstate(all="ignore"):
            trace, accept = series.values(tables, n)
        if not np.max(accept, initial=0.0) < epsilon:
            # accept is inf where a tail is not certified, trace the cell's terms
            note = "; a tail is not certified" if (accept > trace).any() else ""
            raise NotChaoticAtNError(
                f"cocycle series {float(np.max(trace, initial=0.0))} not below "
                f"epsilon={epsilon} at n={n}{note}"
            )
    f_e = f.restrict(E)
    fwd_units, fwd = op.orbit(f_e, n, t_max + 1)
    parts = [(f_e.units[:, None], f_e.values[:, None]), (fwd_units[:, :-1], fwd[:, :-1])]
    bwd_last = f_e
    if t_max:
        bwd_units, bwd = op.orbit(f_e, n, t_max, inverse=True)
        parts.append((bwd_units, bwd))
        bwd_last = OrliczVector.from_arrays(model, bwd_units[:, -1], bwd[:, -1])
    # p = f chi_E plus S^{mn} and T^{mn} (f chi_E) for m = 1..t_max; the
    # translates E a^(mn), |m| <= t_max, are pairwise disjoint, so no row repeats
    units = np.concatenate([u.reshape(-1, model.dim) for u, _ in parts])
    p = OrliczVector.from_arrays(model, units, np.concatenate([v.reshape(-1) for _, v in parts]))
    # residual of the truncation: T^{(t_max+1)n}(f chi_E) - S^{t_max n}(f chi_E)
    fwd_beyond = OrliczVector.from_arrays(model, fwd_units[:, -1], fwd[:, -1])
    tail_bound = fwd_beyond.luxemburg_norm(phi) + bwd_last.luxemburg_norm(phi)
    return PeriodicPointResult(point=p, tail_bound=tail_bound, n=n, t_max=t_max)

