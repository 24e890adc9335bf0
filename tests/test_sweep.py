"""The sweep engine against the loops it replaced.

``dynamics._sweep`` reads each column for a block of n at once and
chooses E_n for the whole block; ``reference.sweep`` is the loop one n
at a time, with ``reference.select_e`` at each n.  Every checker mode
must give the same trace.csv, verdict, n_star, reason and sub-verdicts,
byte for byte, at deficit budgets of 0 and above, at the default block
size and at one small enough to split n_max into several blocks.
``WeightedTranslation.log_tables`` fills its tables in column blocks and
must match one cumsum over whole rows bit for bit.  Small blocks are
patched in ``translation``, where both the sweep and the table build
read them.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import reference
from samples import ALL_MODELS, random_element
from orliczdyn import dynamics, translation
from orliczdyn.dynamics import Scenario, _Column, _Condition, _fwd
from orliczdyn.group import CompactSet, GroupModel
from orliczdyn.translation import ClampExpWeight, ConstantWeight, TableWeight, WeightedTranslation
from orliczdyn.young import PowerYoung

RULES = ("constant", "clamp_exp", "table")
MODES = {
    "disjoint_transitive": dynamics.check_disjoint_transitive,
    "same_weight": dynamics.check_same_weight,
    "disjoint_mixing": dynamics.check_disjoint_mixing,
    "chaotic": dynamics.check_chaotic,
    "disjoint_chaotic": dynamics.check_disjoint_chaotic,
}
SMALL_BLOCK_CELLS = 97
LATTICE_KINDS = ("lattice_line", "heisenberg_lattice")


def random_weight(rule, model, rng):
    if rule == "constant":
        # 1e10 overflows the series and the long cocycles to inf
        return ConstantWeight(float(rng.choice([0.5, 1.5, 2.0, 1e10])))
    if rule == "clamp_exp":
        return ClampExpWeight(
            base=float(rng.choice([1.5, 2.0, 3.0])),
            coord=int(rng.integers(model.dim)),
            lo=-float(rng.choice([0.5, 1.0])),
            hi=float(rng.choice([0.5, 1.0])),
        )
    table = {
        random_element(model, rng, span=3).units: float(rng.choice([0.5, 0.8, 1.25, 2.0]))
        for _ in range(12)
    }
    return TableWeight(table, default=float(rng.choice([0.5, 2.0])))


def random_scenario(model, rule, rng, same=False):
    a = model.identity()
    while a.is_identity:
        a = random_element(model, rng, span=2)
    hw = (1 if model.dim == 3 else 2) * model.h
    w1 = random_weight(rule, model, rng)
    w2 = w1 if same else random_weight(str(rng.choice(RULES)), model, rng)
    return Scenario(
        model=model,
        phi=PowerYoung(2.0),
        a=a,
        weights=(w1, w2),
        powers=(1, int(rng.integers(2, 4))),
        K=CompactSet.box(model, [-hw] * model.dim, [hw] * model.dim),
        epsilon=float(10 ** rng.uniform(-3, 0)),
        n_max=int(rng.integers(5, 31)),
        t_max=int(rng.integers(8, 13)),
    )


def outcome(report):
    return (
        report.trace_csv(),
        report.verdict,
        report.n_star,
        report.reason,
        report.sub_verdicts,
    )


def engine_and_reference(monkeypatch, check, scenario, override):
    got = outcome(check(scenario, override=override))
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_sweep", reference.sweep)
        want = outcome(check(scenario, override=override))
    return got, want


@pytest.mark.parametrize("cells", [None, SMALL_BLOCK_CELLS], ids=["default_block", "small_block"])
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_modes_match_reference(monkeypatch, model, rule, cells):
    if cells:
        monkeypatch.setattr(translation, "ORBIT_BLOCK_CELLS", cells)
    rng = np.random.default_rng([ALL_MODELS.index(model), RULES.index(rule)])
    caps = np.random.default_rng([ALL_MODELS.index(model), RULES.index(rule), 1])
    for mode, check in MODES.items():
        scenario = random_scenario(model, rule, rng, same=mode == "same_weight")
        scenarios = [scenario]
        if model.kind in LATTICE_KINDS:
            # a budget of 1 to |K| + 1 cells, so some runs pass the clamp at |K| - 1
            cells = caps.uniform(1, len(scenario.K) + 2)
            cap = cells * model.haar_cell_mass
            scenarios.append(dataclasses.replace(scenario, e_deficit_cap=cap))
        for s in scenarios:
            for override in (False, True):
                got, want = engine_and_reference(monkeypatch, check, s, override)
                assert got == want, (mode, override, s.e_deficit_cap)


def fake_column(name, fn, t_max=0):
    """A test fake of a column: its one term sets the table depth, and
    ``values`` is ``fn``, whose rows are (trace, accept) for a series probe
    (t_max > 0) and one row, trace and accept both, for a plain one."""

    class Probe(_Column):
        def values(self, tables, n):
            v = fn(tables, n)
            return v if t_max else (v, v)

    return Probe(name, ((1, "fwd", 0, 1),), t_max)


def probe_column(sizes):
    """fwd_1 with NaN at point 1 when 7 | n and inf at point 0 when 4 | n;
    records the number of n it is read for.  fwd_1 is first below
    epsilon at n = 7, so the NaN alone moves n_star to 9."""

    def values(t, n):
        n = np.asarray(n)
        sizes.append(n.size)
        v = np.exp(t["fwd", 0][:, n])
        point = np.arange(len(v)).reshape((-1,) + (1,) * n.ndim)
        v = np.where((point == 1) & (n % 7 == 0), np.nan, v)
        return np.where((point == 0) & (n % 4 == 0), np.inf, v)

    return fake_column("probe", values)


def probe_series(t, n):
    """(trace, accept) with NaN in accept only, at every point when 5 | n."""
    trace = np.exp(-t["bwd", 0][:, np.asarray(n)])
    return trace, np.where(np.asarray(n) % 5 == 0, np.nan, trace)


def test_nan_and_inf_columns_in_uneven_blocks(monkeypatch):
    model = GroupModel.int_line()
    w = ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
    scenario = Scenario(
        model=model,
        phi=PowerYoung(2.0),
        a=model.element([1]),
        weights=(w, w),
        powers=(1, 2),
        K=CompactSet.box(model, [-3], [3]),
        epsilon=0.3,
        n_max=24,
    )
    # 7 points and a series column at t_max 50: blocks of 5 n, the last of 4
    monkeypatch.setattr(translation, "ORBIT_BLOCK_CELLS", 7 * 5 * 50)
    sizes = []
    fwd = _fwd(scenario.powers, 0)
    series = fake_column("probe_series", probe_series, scenario.t_max)
    probe = probe_column(sizes)
    conditions = [
        _Condition((fwd, probe)),
        _Condition((fwd, probe), tail=True),  # inf and NaN at n_max
        _Condition((fwd, series), tail=True),
        _Condition((series,)),
    ]
    got = dynamics._sweep(scenario, conditions)
    assert sizes == [5, 5, 5, 5, 4]
    assert got[0][0] == 9
    want = reference.sweep(scenario, conditions)
    assert repr(got) == repr(want)  # NaN != NaN, but repr is exact
    cells = [v for _, values, _ in got[0][1] for v in values]
    assert np.isnan(cells).any() and np.isinf(cells).any()
    assert {n_star is None for n_star, _ in got} == {True, False}


def probe_a(t, n):
    """Point 0 at 3 when n % 4 == 1 (a three-way tie with b and s), point
    4 at 2 when n % 4 == 3, and every point at 5 at n = 6."""
    n = np.asarray(n)
    v = np.full((5,) + n.shape, 0.5)
    v[0] = np.where(n % 4 == 1, 3.0, 0.5)
    v[4] = np.where(n % 4 == 3, 2.0, 0.5)
    return np.where(n == 6, 5.0, v)


def probe_b(t, n):
    n = np.asarray(n)
    v = np.full((5,) + n.shape, 0.5)
    v[1] = np.where(n % 4 == 1, 3.0, 0.5)
    return v


def probe_s(t, n):
    """(trace, accept): point 2 at 3 when n % 4 == 1, and a NaN accept at
    point 3, whose trace is 0.25, when n % 4 is 2 or 3."""
    n = np.asarray(n)
    r = n % 4
    trace = np.full((5,) + n.shape, 0.5)
    trace[2] = np.where(r == 1, 3.0, 0.5)
    trace[3] = 0.25
    accept = trace.copy()
    accept[3] = np.where((r == 2) | (r == 3), np.nan, 0.25)
    return trace, accept


@pytest.mark.parametrize("cells", [1, 2, 10])
def test_budget_ties_nan_and_clamp_in_uneven_blocks(monkeypatch, cells):
    model = GroupModel.lattice_line(0.25)
    scenario = Scenario(
        model=model,
        phi=PowerYoung(2.0),
        a=model.element([0.25]),
        weights=(ConstantWeight(2.0),),
        powers=(1,),
        K=CompactSet.box(model, [0.0], [1.0]),
        epsilon=1.0,
        n_max=13,
        t_max=8,
        e_deficit_cap=cells * 0.25,
    )
    # 5 points and a series column at t_max 8: blocks of 3 n, the last of 1
    monkeypatch.setattr(translation, "ORBIT_BLOCK_CELLS", 5 * 3 * 8)
    a, b = fake_column("a", probe_a), fake_column("b", probe_b)
    s = fake_column("s", probe_s, scenario.t_max)
    conditions = [
        _Condition((a, b, s)),
        _Condition((a, b, s), tail=True),
        _Condition((a,)),
    ]
    got = dynamics._sweep(scenario, conditions)
    want = reference.sweep(scenario, conditions)
    assert repr(got) == repr(want)
    rows = got[0][1]
    budget = min(cells, 4)
    # n = 1: points 0, 1 and 2 tie at 3, and the first of them go
    dropped = min(budget, 3)
    assert rows[0] == (1, tuple(0.5 if i < dropped else 3.0 for i in range(3)), 0.25 * dropped)
    # n = 2: only the NaN accept at point 3 violates; dropping it verifies
    assert rows[1][2] == 0.25 and got[0][0] == (1 if budget >= 3 else 2)
    # n = 3: the NaN outranks point 4's 2.0
    assert rows[2][1][0] == (2.0 if budget == 1 else 0.5)
    # n = 6: all 5 points violate, more than any budget (clamped to 4)
    assert rows[5] == (6, (5.0, 0.5, 0.5), 0.25 * budget)


def test_positive_budget_matches_reference(monkeypatch):
    m = GroupModel.lattice_line(0.25)
    table = {(u,): 2.0 for u in range(-700, 0)}
    table.update({(u,): 1.0 for u in range(0, 9)})
    table[(5,)] = 1e-30  # only dropping unit 5 lets the sweep verify
    w = TableWeight(table, default=0.5)
    scenario = Scenario(
        model=m,
        phi=PowerYoung(2.0),
        a=m.element([1.0]),
        weights=(w, w),
        powers=(1, 2),
        K=CompactSet.box(m, [0.0], [2.0]),
        epsilon=1e-2,
        n_max=40,
        e_deficit_cap=0.3,
    )
    for check in MODES.values():
        got, want = engine_and_reference(monkeypatch, check, scenario, False)
        assert got == want
    report = dynamics.check_disjoint_transitive(scenario)
    assert report.verified and report.row(report.n_star)[2] == 0.25


@pytest.mark.parametrize("cells", [7, None], ids=["small_block", "default_block"])
@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_log_tables_match_one_cumsum(monkeypatch, model, cells):
    if cells:
        monkeypatch.setattr(translation, "ORBIT_BLOCK_CELLS", cells)
    rng = np.random.default_rng(ALL_MODELS.index(model))
    hw = 2 * model.h
    units = CompactSet.box(model, [-hw] * model.dim, [hw] * model.dim).units
    for rule in RULES:
        a = model.identity()
        while a.is_identity:
            a = random_element(model, rng, span=2)
        weight = random_weight(rule, model, rng)
        got = WeightedTranslation(model, a, weight).log_tables(units, 41)
        want = reference.log_tables(model, units, a, weight, 41)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_chaos_sweep_memory_is_bounded():
    # the two log tables are 343 x 3201 cells each; an unblocked
    # (|K|, n_max, t_max) series would add about 50 MB on top
    model = GroupModel.heisenberg_int()
    w = ClampExpWeight(base=2.0, coord=2, lo=-1.0, hi=1.0)
    scenario = Scenario(
        model=model,
        phi=PowerYoung(2.0),
        a=model.element([1, 0, 2]),
        weights=(w,),
        powers=(1,),
        K=CompactSet.box(model, [-3] * 3, [3] * 3),
        epsilon=1e-3,
        n_max=64,
        t_max=50,
    )
    tables = 2 * len(scenario.K) * (scenario.t_max * scenario.n_max + 1) * 8
    tracemalloc.start()
    try:
        report = dynamics.check_chaotic(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verified
    assert peak - tables < 8 * 10**6
