import dataclasses
import math
import sys

import numpy as np
import pytest

from samples import ALL_MODELS
from orliczdyn import _accel, dynamics
from orliczdyn.dynamics import (
    CheckerDisagreementError,
    ConditionReport,
    DisjointnessViolatedError,
    NotChaoticAtNError,
    Scenario,
    ScenarioError,
    SupportEscapesKError,
    VERDICT_NOT_VERIFIED,
    VERDICT_REFUSED,
    VERDICT_VERIFIED,
    build_periodic_point,
    build_witness,
    check_chaotic,
    check_disjoint_chaotic,
    check_disjoint_mixing,
    check_disjoint_transitive,
    check_same_weight,
    verify_witness,
)
from orliczdyn.group import CompactSet, GroupModel
from orliczdyn.orlicz import OrliczVector, indicator
from orliczdyn.translation import (
    ClampExpWeight,
    ConstantWeight,
    TableWeight,
    WeightedTranslation,
)
from orliczdyn.young import PowerYoung

ZLINE = GroupModel.int_line()
HEIS = GroupModel.heisenberg_int()
STEP = ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
HSTEP = ClampExpWeight(base=2.0, coord=2, lo=-1.0, hi=1.0)


def z_scenario(eps=1e-2, n_max=64, weights=(STEP, STEP), powers=(1, 2), box=3, phi=None, t_max=50):
    return Scenario(
        model=ZLINE,
        phi=phi or PowerYoung(2.0),
        a=ZLINE.element([1]),
        weights=weights,
        powers=powers,
        K=CompactSet.box(ZLINE, [-box], [box]),
        epsilon=eps,
        n_max=n_max,
        t_max=t_max,
    )


def heis_scenario(eps=1e-3, n_max=64, t_max=50):
    return Scenario(
        model=HEIS,
        phi=PowerYoung(2.0),
        a=HEIS.element([1, 0, 2]),
        weights=(HSTEP, HSTEP),
        powers=(1, 2),
        K=CompactSet.box(HEIS, [-3, -3, -3], [3, 3, 3]),
        epsilon=eps,
        n_max=n_max,
        t_max=t_max,
    )


def cocycle_oracle(scenario, weight, x, n, forward):
    """Direct per-point product, no tables."""
    a = scenario.a
    if forward:
        return math.prod(weight(x * a**j) for j in range(1, n + 1))
    return 1.0 / math.prod(weight(x * a**-j) for j in range(n))


def quantities_oracle(scenario, n):
    """All transitive sup quantities over K via direct products."""
    r = scenario.powers
    K = list(scenario.K)
    out = {}
    for l, w in enumerate(scenario.weights, start=1):
        out[f"fwd_{l}"] = max(cocycle_oracle(scenario, w, x, r[l - 1] * n, True) for x in K)
        out[f"bwd_{l}"] = max(cocycle_oracle(scenario, w, x, r[l - 1] * n, False) for x in K)
    for s in range(1, scenario.L + 1):
        for l in range(s + 1, scenario.L + 1):
            ws, wl = scenario.weights[s - 1], scenario.weights[l - 1]
            gap = (r[l - 1] - r[s - 1]) * n
            out[f"cross_bwd_s{s}_l{l}"] = max(
                cocycle_oracle(scenario, ws, x, gap, False)
                * cocycle_oracle(scenario, wl, x, r[l - 1] * n, False)
                / cocycle_oracle(scenario, ws, x, r[l - 1] * n, False)
                for x in K
            )
            out[f"cross_fwd_s{s}_l{l}"] = max(
                cocycle_oracle(scenario, wl, x, gap, True)
                * cocycle_oracle(scenario, ws, x, r[s - 1] * n, False)
                / cocycle_oracle(scenario, wl, x, r[s - 1] * n, False)
                for x in K
            )
    return out


class TestDisjointTransitive:
    def test_z_step_scenario_verified(self):
        s = z_scenario()
        rep = check_disjoint_transitive(s)
        assert rep.verified
        # oracle: first n at which all directly-computed quantities are < eps
        first = next(
            n
            for n in range(1, s.n_max + 1)
            if all(v < s.epsilon for v in quantities_oracle(s, n).values())
        )
        assert rep.n_star == first == 14

    def test_z_trace_closed_form(self):
        # worst forward point is x = -3: two clamped-low factors survive
        s = z_scenario()
        rep = check_disjoint_transitive(s)
        for n in range(5, 30):
            assert rep.value(n, "fwd_1") == pytest.approx(2.0 ** (5 - n), rel=1e-12)

    def test_trace_matches_direct_product_oracle(self):
        s = z_scenario(n_max=24)
        rep = check_disjoint_transitive(s)
        for n in (1, 3, 7, 14, 24):
            oracle = quantities_oracle(s, n)
            for col, val in oracle.items():
                assert rep.value(n, col) == pytest.approx(val, rel=1e-10)

    def test_heisenberg_example_verified(self):
        rep = check_disjoint_transitive(heis_scenario())
        assert rep.verified and rep.n_star <= 64

    def test_trace_matches_operator_materialization(self):
        # cocycle sups agree with coefficients read off T^n / S^n images
        s = z_scenario(n_max=16, box=2)
        rep = check_disjoint_transitive(s)
        ops = s.operators()
        for n in (2, 9, 16):
            for l, op in enumerate(ops, start=1):
                m = s.powers[l - 1] * n
                fwd = max(
                    op.apply(OrliczVector.point_mass(x), m).value(x * s.a**m)
                    for x in s.K
                )
                bwd = max(
                    op.apply_inv(OrliczVector.point_mass(x), m).value(x * s.a**-m)
                    for x in s.K
                )
                assert rep.value(n, f"fwd_{l}") == pytest.approx(fwd, rel=1e-10)
                assert rep.value(n, f"bwd_{l}") == pytest.approx(bwd, rel=1e-10)

    def test_not_verified_is_not_a_disproof(self):
        s = z_scenario(eps=1e-9, n_max=10)
        rep = check_disjoint_transitive(s)
        assert rep.verdict == VERDICT_NOT_VERIFIED and rep.n_star is None
        # a longer sweep verifies the same quantities
        assert check_disjoint_transitive(z_scenario(eps=1e-9, n_max=64)).verified

    def test_needs_two_operators(self):
        with pytest.raises(ScenarioError):
            check_disjoint_transitive(z_scenario(weights=(STEP,), powers=(1,)))


class TestRefusals:
    def test_flat_weight_refused(self):
        s = z_scenario(weights=(ConstantWeight(1.0), ConstantWeight(1.0)))
        rep = check_disjoint_transitive(s)
        assert rep.verdict == VERDICT_REFUSED
        assert "sup(w)" in rep.reason and "<= 1" in rep.reason

    def test_identity_element_refused(self):
        s = Scenario(
            model=ZLINE,
            phi=PowerYoung(2.0),
            a=ZLINE.element([0]),
            weights=(STEP, STEP),
            powers=(1, 2),
            K=CompactSet.box(ZLINE, [-3], [3]),
            epsilon=1e-2,
            n_max=32,
        )
        rep = check_disjoint_transitive(s)
        assert rep.verdict == VERDICT_REFUSED and "periodic" in rep.reason

    def test_aperiodicity_not_certified_refused(self):
        rep = check_disjoint_transitive(z_scenario(n_max=5))
        assert rep.verdict == VERDICT_REFUSED and "aperiodicity" in rep.reason.lower()

    def test_override_runs_anyway(self):
        s = z_scenario(weights=(ConstantWeight(1.0), ConstantWeight(1.0)), n_max=16)
        rep = check_disjoint_transitive(s, override=True)
        assert rep.verdict == VERDICT_NOT_VERIFIED
        assert rep.value(5, "fwd_1") == 1.0


    @pytest.mark.parametrize(
        "change,field",
        [
            (dict(n_max=0), "n_max"),
            (dict(t_max=0), "t_max"),
            (dict(a=HEIS.element([1, 0, 0])), "a"),
            (dict(K=CompactSet.box(HEIS, [0, 0, 0], [1, 1, 1])), "K"),
        ],
        ids=["n_max", "t_max", "a_model", "K_model"],
    )
    def test_scenario_refusals_name_their_field(self, change, field):
        with pytest.raises(ScenarioError) as got:
            dataclasses.replace(z_scenario(), **change)
        assert got.value.field == field and field in str(got.value)


class TestTableCap:
    """The desk-scale cap counts the two (N, depth + 1) tables of every
    distinct operator, the cells the build allocates, and names the field
    at fault: t_max when the build would fit with every series truncated
    at min(t_max, 8), else n_max."""

    def built_cells(self, monkeypatch, run):
        cells = []
        log_tables = WeightedTranslation.log_tables

        def counting_log_tables(op, units, depth):
            tables = log_tables(op, units, depth)
            cells.append(sum(t.size for t in tables))
            return tables

        with monkeypatch.context() as m:
            m.setattr(WeightedTranslation, "log_tables", counting_log_tables)
            run()
        return sum(cells)

    def assert_cap_is_tight(self, monkeypatch, run, field="n_max"):
        cells = self.built_cells(monkeypatch, run)
        monkeypatch.setattr(dynamics, "_MAX_TABLE_CELLS", cells)
        run()
        monkeypatch.setattr(dynamics, "_MAX_TABLE_CELLS", cells - 1)
        with pytest.raises(ScenarioError, match="desk-scale cap") as got:
            run()
        assert got.value.field == field

    @pytest.mark.parametrize(
        "weights", [(STEP, STEP), (STEP, ClampExpWeight(3.0, 0, -1.0, 1.0))], ids=["shared", "two"]
    )
    def test_sweep(self, monkeypatch, weights):
        s = z_scenario(n_max=8, weights=weights)
        self.assert_cap_is_tight(monkeypatch, lambda: check_disjoint_transitive(s, override=True))

    def test_periodic_point(self, monkeypatch):
        # the series at t_max 20 is what outgrows the cap; n is no field here
        op, phi = WeightedTranslation(ZLINE, ZLINE.element([1]), STEP), PowerYoung(2.0)
        K = CompactSet.box(ZLINE, [-3], [3])
        self.assert_cap_is_tight(
            monkeypatch, lambda: build_periodic_point(op, phi, indicator(K), K, 10, 20, 0.5),
            "t_max",
        )


def test_equal_operators_share_one_table_pair(monkeypatch):
    # operators (A, B, A): columns read 0 and 2, the later one deeper, and never 1
    builds = []
    log_tables = WeightedTranslation.log_tables

    def counting_log_tables(op, units, depth):
        builds.append((op.weight, depth))
        return log_tables(op, units, depth)

    monkeypatch.setattr(WeightedTranslation, "log_tables", counting_log_tables)
    other = ClampExpWeight(3.0, 0, -1.0, 1.0)
    ops = tuple(WeightedTranslation(ZLINE, ZLINE.element([1]), w) for w in (STEP, other, STEP))
    columns = [
        dynamics._Column("near", ((1, "fwd", 0, 2),)),
        dynamics._Column("far", ((-1, "bwd", 2, 5),)),
    ]
    units = CompactSet.box(ZLINE, [-3], [3]).units
    tables = dynamics._orbit_tables(ops, units, columns, 4)
    assert builds == [(STEP, 20)]
    assert tables["fwd", 0] is tables["fwd", 2] and tables["bwd", 0] is tables["bwd", 2]
    assert tables["fwd", 0].shape == tables["bwd", 2].shape == (7, 21)
    assert set(tables) == {("fwd", 0), ("bwd", 0), ("fwd", 2), ("bwd", 2)}


class TestSameWeight:
    def test_agrees_with_general(self):
        s = z_scenario()
        reduced = check_same_weight(s)
        general = check_disjoint_transitive(s)
        assert (reduced.verdict, reduced.n_star) == (general.verdict, general.n_star)

    def test_power_ladder_reduction(self):
        # consecutive powers: the gap quantities are plain cocycles at n
        s = z_scenario(powers=(1, 2, 3), weights=(STEP, STEP, STEP))
        rep = check_same_weight(s)
        assert rep.verified
        for n in (6, 12):
            assert rep.value(n, "gap_fwd_s1_l2") == pytest.approx(
                cocycle_oracle(s, STEP, ZLINE.element([-3]), n, True), rel=1e-10
            )

    def test_constant_two_not_verified(self):
        s = z_scenario(weights=(ConstantWeight(2.0), ConstantWeight(2.0)))
        rep = check_same_weight(s)
        assert rep.verdict == VERDICT_NOT_VERIFIED

    def test_differing_weights_refused(self):
        s = z_scenario(weights=(STEP, ClampExpWeight(base=3.0, coord=0, lo=-1.0, hi=1.0)))
        rep = check_same_weight(s)
        assert rep.verdict == VERDICT_REFUSED and "differ" in rep.reason


def scalar_cells(scenario, n):
    """Every fwd, bwd, cross and gap quantity at n: the sup over K of
    products of the operators' scalar ``cocycle_fwd``/``cocycle_bwd``."""
    r, ops, K = scenario.powers, scenario.operators(), list(scenario.K)
    memo = {}

    def c(direction, l, k):
        if (direction, l, k) not in memo:
            cocycle = ops[l].cocycle_fwd if direction == "fwd" else ops[l].cocycle_bwd
            memo[direction, l, k] = np.array([cocycle(k * n, x) for x in K])
        return memo[direction, l, k]

    cells = {}
    for l in range(scenario.L):
        cells[f"fwd_{l + 1}"] = c("fwd", l, r[l])
        cells[f"bwd_{l + 1}"] = c("bwd", l, r[l])
        for s in range(l):
            pair, gap = f"s{s + 1}_l{l + 1}", r[l] - r[s]
            cells[f"cross_bwd_{pair}"] = c("bwd", s, gap) * c("bwd", l, r[l]) / c("bwd", s, r[l])
            cells[f"cross_fwd_{pair}"] = c("fwd", l, gap) * c("bwd", s, r[s]) / c("bwd", l, r[s])
            cells[f"gap_bwd_{pair}"] = c("bwd", 0, gap)
            cells[f"gap_fwd_{pair}"] = c("fwd", 0, gap)
    return {name: float(np.max(v)) for name, v in cells.items()}


@pytest.mark.parametrize("powers", [(1, 3, 4), (2, 3, 5)])
@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_three_operator_cells_match_scalar_cocycles(model, powers):
    """Distinct weights and power gaps unequal to every power, so a term
    that reads the wrong operator or the wrong index shows."""
    hw = (1 if model.dim == 3 else 2) * model.h
    distinct = (
        ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0),
        ClampExpWeight(base=3.0, coord=model.dim - 1, lo=-0.5, hi=1.0),
        ConstantWeight(1.5),
    )
    cases = [(distinct, check_disjoint_transitive), (distinct[:1] * 3, check_same_weight)]
    for weights, check in cases:
        s = Scenario(
            model=model,
            phi=PowerYoung(2.0),
            a=model.element_units([1, 2, 1][: model.dim]),
            weights=weights,
            powers=powers,
            K=CompactSet.box(model, [-hw] * model.dim, [hw] * model.dim),
            epsilon=1e-3,
            n_max=6,
        )
        rep = check(s, override=True)
        assert len(rep.columns) == 12
        for n in (1, 2, 6):
            want = scalar_cells(s, n)
            for col in rep.columns:
                assert rep.value(n, col) == pytest.approx(want[col], rel=1e-10), (col, n)


LINES = (ZLINE, GroupModel.lattice_line(0.5), GroupModel.lattice_line(0.25))


def line_weight(model, rng, u, family, log_down=None):
    """A weight that is constant past a window around the point u (in lattice
    units) of a line model, with log w_+ and log w_-, its values near +inf
    and -inf, and the first n at which every factor step j >= n of the walks
    from u (to u + j forward, u - j backward) is past the window.

    ``table``: keys cover u - width..u + width, so w_+ = w_- = default.
    ``decaying``: clamp_exp with log w_+ < 0 and log w_- = ``log_down``.
    ``mixed``: clamp_exp with a base on either side of 1."""
    if family == "table":
        width = int(rng.integers(1, 4))
        keys = [(k,) for k in range(u - width, u + width + 1)]
        default = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.25, 3.0)]))
        w = TableWeight(dict(zip(keys, rng.uniform(0.3, 3.0, len(keys)).tolist())), default)
        return w, math.log(default), math.log(default), width + 1
    if family == "decaying":
        base, hi = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.5, 2.0))
        w = ClampExpWeight(base, 0, -log_down / math.log(base), hi)
    else:
        lo = float(rng.uniform(-2.0, 1.0))
        base = float(rng.choice([rng.uniform(0.5, 0.9), rng.uniform(1.1, 2.0)]))
        w = ClampExpWeight(base, 0, lo, lo + float(rng.uniform(0.2, 2.0)))
    x = u * model.h
    # + 1: (hi - x) / h may round below the step at which the clamp starts
    onset = max(1, math.ceil(max(w.hi - x, x - w.lo) / model.h) + 1)
    return w, -w.hi * math.log(w.base), -w.lo * math.log(w.base), onset


def line_slopes(up, down, r):
    """Each transitivity column's log slope in n once the orbit is past every
    window, by hand from log w_+ (``up``) and log w_- (``down``) of each
    weight (Salas 1995; Grosse-Erdmann 2000): a bilateral weighted shift whose
    weight is w_+ near +inf and w_- near -inf."""
    slopes = {}
    for l in range(len(r)):
        slopes[f"fwd_{l + 1}"] = r[l] * up[l]
        slopes[f"bwd_{l + 1}"] = -r[l] * down[l]
        for s in range(l):
            pair = f"s{s + 1}_l{l + 1}"
            slopes[f"cross_fwd_{pair}"] = (
                (r[l] - r[s]) * up[l] - r[s] * down[s] + r[s] * down[l]
            )
            slopes[f"cross_bwd_{pair}"] = r[s] * down[s] - r[l] * down[l]
    return slopes


@pytest.mark.parametrize("seed", range(8))
def test_line_cells_are_geometric_past_the_window(seed):
    """On int_line and on lattice_line with a one cell, K one point: clamp_exp
    and table weights are constant past their windows, so every column is
    exp(A + slope n) once the orbit has left all windows in both directions.

    Past that onset the verdict follows from the slopes alone.  When every
    slope is negative, the n_star of an epsilon halfway (in log) between two
    consecutive cells is predicted from the slopes and the cells at the
    onset, which come from the scalar cocycles.  When a slope is positive,
    that column never drops back below its value at the onset, so no
    epsilon up to that value is verified."""
    for i, model in enumerate(LINES):
        rng = np.random.default_rng([20, seed, i])
        family = ("decaying", "mixed", "table")[(seed + i) % 3]
        L = int(rng.integers(2, 4))
        powers = tuple(sorted(int(r) for r in rng.choice(np.arange(1, 6), L, replace=False)))
        u, log_down = int(rng.integers(-4, 5)), float(rng.uniform(0.3, 1.5))
        table_at = int(rng.integers(L)) if family == "table" else -1
        drawn = [
            line_weight(model, rng, u, "table" if l == table_at else family, log_down)
            for l in range(L)
        ]
        weights, up, down, onsets = zip(*drawn)
        onset = max(onsets)
        K = CompactSet.from_elements(model, [model.element_units([u])])
        s = Scenario(model, PowerYoung(2.0), model.element_units([1]), weights, powers, K,
                     1e-2, onset + 15)
        rep = check_disjoint_transitive(s, override=True)
        slopes = line_slopes(up, down, powers)
        assert sorted(slopes) == sorted(rep.columns)
        checked = 0
        for col, slope in slopes.items():
            for n in range(onset, s.n_max):
                a, b = rep.value(n, col), rep.value(n + 1, col)
                if all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in (a, b)):
                    assert b / a == pytest.approx(math.exp(slope), rel=1e-12), (col, n, model)
                    checked += 1
        assert checked >= 10 * len(slopes)

        # the largest cell of every n before the onset, which epsilon stays under
        floor = min((max(rep.row(n)[1]) for n in range(1, onset)), default=math.inf)
        at_onset = scalar_cells(s, onset)
        rising = [col for col, slope in slopes.items() if slope > 0]
        if family == "decaying":  # w_+ < 1 < w_- and one w_- for all: every slope < 0
            assert not rising

            def cell(n):
                return max(at_onset[c] * math.exp(m * (n - onset)) for c, m in slopes.items())

            n_star = onset + int(rng.integers(1, 6))
            while cell(n_star - 1) > floor:  # an n before the onset would pass
                n_star += 1
            eps = math.sqrt(cell(n_star - 1) * cell(n_star))
            got = check_disjoint_transitive(dataclasses.replace(s, epsilon=eps), override=True)
            assert (got.verdict, got.n_star) == (VERDICT_VERIFIED, n_star), model
        elif rising:
            for col in rising:
                start = rep.value(onset, col)
                assert all(rep.value(n, col) >= start for n in range(onset, s.n_max + 1))
            eps = min(floor, *(at_onset[col] for col in rising)) * (1 - 1e-9)
            got = check_disjoint_transitive(dataclasses.replace(s, epsilon=eps), override=True)
            assert got.verdict == VERDICT_NOT_VERIFIED, model
        assert family != "table" or rising  # a table's fwd and bwd slopes differ in sign


def oscillating_weight(n_max=48):
    # blocks of eight 1/2s then eight 2s along the forward orbit: the
    # forward cocycle at 0 returns to 1 at every multiple of 16
    table = {}
    for j in range(1, 2 * n_max + 1):
        table[(j,)] = 0.5 if (j - 1) % 16 < 8 else 2.0
    return TableWeight(table, default=2.0)


class TestMixing:
    def test_step_scenario_mixing(self):
        s = z_scenario()
        rep = check_disjoint_mixing(s)
        assert rep.verified
        trans = check_disjoint_transitive(s)
        assert trans.verified and trans.n_star <= rep.n_star

    def test_oscillating_weight_separates_modes(self):
        w = oscillating_weight()
        s = Scenario(
            model=ZLINE,
            phi=PowerYoung(2.0),
            a=ZLINE.element([1]),
            weights=(w, w),
            powers=(1, 2),
            K=CompactSet.from_elements(ZLINE, [ZLINE.element([0])]),
            epsilon=0.1,
            n_max=48,
        )
        trans = check_disjoint_transitive(s)
        assert trans.verified and trans.n_star == 4
        # the forward cocycle returns to 1 at multiples of 16
        assert trans.value(16, "fwd_1") == pytest.approx(1.0, rel=1e-12)
        mix = check_disjoint_mixing(s)
        assert mix.verdict == VERDICT_NOT_VERIFIED

    def test_mixing_tail_semantics(self):
        s = z_scenario()
        rep = check_disjoint_mixing(s)
        for n, values, _ in rep.rows:
            if n >= rep.n_star:
                assert all(v < s.epsilon for v in values)


def chaos_series_oracle(op, x, n, t_max):
    return sum(
        op.cocycle_fwd(t * n, x) + op.cocycle_bwd(t * n, x) for t in range(1, t_max + 1)
    )


class TestChaotic:
    def test_point_series_closed_form(self):
        op = WeightedTranslation(ZLINE, ZLINE.element([1]), STEP)
        x0 = ZLINE.element([0])
        val = chaos_series_oracle(op, x0, 10, 50)
        assert val == pytest.approx(3.0 * 2.0**-10 / (1.0 - 2.0**-10), abs=1e-12)

    def test_verified_within_16(self):
        s = z_scenario(eps=1e-2, n_max=16)
        rep = check_chaotic(s, op_index=0)
        assert rep.verified and rep.n_star <= 16

    def test_series_trace_matches_oracle(self):
        s = z_scenario(eps=1e-2, n_max=12, t_max=20)
        rep = check_chaotic(s, op_index=0)
        op = s.operator(0)
        for n in (3, 8, 12):
            # tail below the certified geometric bound of the last term
            trunc = max(chaos_series_oracle(op, x, n, s.t_max) for x in s.K)
            assert rep.value(n, "series_1") >= trunc - 1e-12
            assert rep.value(n, "series_1") == pytest.approx(trunc, rel=1e-6)

    def test_flat_weight_with_override_never_verifies(self):
        s = z_scenario(weights=(ConstantWeight(1.0), ConstantWeight(1.0)), n_max=8, t_max=10)
        rep = check_chaotic(s, op_index=0, override=True)
        assert rep.verdict == VERDICT_NOT_VERIFIED
        assert all(row[1][rep.columns.index("series_1")] >= 2 * s.t_max for row in rep.rows)

    def test_growth_weight_tail_not_certified(self):
        s = z_scenario(weights=(ConstantWeight(2.0), ConstantWeight(2.0)), n_max=4, t_max=10)
        rep = check_chaotic(s, op_index=0, override=True)
        assert rep.verdict == VERDICT_NOT_VERIFIED

    def test_requires_depth(self):
        with pytest.raises(ScenarioError):
            check_chaotic(z_scenario(n_max=4, t_max=4), op_index=0)

    def test_slow_backward_tail_not_hidden_by_fast_forward(self):
        # From x = -6 the forward terms fall by 1/4 a step once past z = 2,
        # but the backward terms only by 2^-0.02; the ratio of the summed
        # last two terms certified a tail of about 1 and a series of 17.03.
        w = ClampExpWeight(base=2.0, coord=0, lo=-0.02, hi=2.0)
        s = z_scenario(eps=50.0, n_max=1, weights=(w,), powers=(1,), t_max=8)
        s = dataclasses.replace(s, K=CompactSet.from_elements(ZLINE, [ZLINE.element([-6])]))
        rep = check_chaotic(s, op_index=0)
        r = 2.0**-0.02
        fwd = sum(2.0 ** (0.02 * t) for t in range(1, 6)) + 2.0**0.1 + 2.0**-0.9 * 4 / 3
        exact = fwd + r / (1.0 - r)  # 78.6355...
        assert rep.value(1, "series_1") == pytest.approx(exact, rel=1e-11)
        assert rep.verdict == VERDICT_NOT_VERIFIED
        # the periodic point's epsilon check reads this cell, so it refuses
        # epsilon = 50 too, though the truncated series alone is below 50
        op, x = s.operator(0), ZLINE.element([-6])
        assert sum(op.cocycle_fwd(t, x) + op.cocycle_bwd(t, x) for t in range(1, 9)) < 50
        with pytest.raises(NotChaoticAtNError) as got:
            build_periodic_point(op, s.phi, indicator(s.K), s.K, 1, 8, epsilon=50.0)
        cell = rep.value(1, "series_1")
        assert str(got.value).startswith(f"cocycle series {cell} not below epsilon=50.0")

    @pytest.mark.parametrize("lo,hi", [(-0.02, 2.0), (-0.5, 0.5), (-2.0, 0.01), (-1.0, 3.0)])
    def test_certified_series_bounds_long_sum(self, lo, hi):
        """On the line every step ratio of a clamp_exp orbit is monotone, so
        a certified tail is an upper bound: check it against 20000 terms."""
        w = ClampExpWeight(base=2.0, coord=0, lo=lo, hi=hi)
        terms, checked = 20000, 0
        for x in (-6, -1, 0, 3):
            s = z_scenario(eps=1.0, n_max=3, weights=(w,), powers=(1,), t_max=8)
            s = dataclasses.replace(s, K=CompactSet.from_elements(ZLINE, [ZLINE.element([x])]))
            series = dynamics._series(s.powers, 0, s.t_max)
            tables = dynamics._orbit_tables(s.operators(), s.K.units, [series], s.n_max)
            for n in (1, 2, 3):
                steps = np.arange(1, terms * n + 1)
                fwd = np.cumsum(-np.clip(x + steps, lo, hi) * math.log(2.0))[n - 1 :: n]
                bwd = np.cumsum(np.clip(x + 1 - steps, lo, hi) * math.log(2.0))[n - 1 :: n]
                long_sum = np.sum(np.exp(fwd)) + np.sum(np.exp(bwd))
                trace, accept = series.values(tables, n)
                if np.isfinite(accept[0]):
                    assert accept[0] >= long_sum * (1 - 1e-12)
                    checked += 1
        assert checked >= 8


class TestDisjointChaotic:
    def test_heisenberg_example(self):
        rep = check_disjoint_chaotic(heis_scenario(eps=1e-2, n_max=32, t_max=16))
        assert rep.verified
        assert all(sv["verdict"] == VERDICT_VERIFIED for sv in rep.sub_verdicts)

    def test_refused_conjunction(self):
        s = z_scenario(weights=(ConstantWeight(1.0), ConstantWeight(1.0)), t_max=10)
        assert check_disjoint_transitive(s).verdict == VERDICT_REFUSED
        assert check_disjoint_chaotic(s).verdict == VERDICT_REFUSED

    def test_component_failure_localized(self):
        s = z_scenario(weights=(STEP, ConstantWeight(1.0)), t_max=10, n_max=16)
        rep = check_disjoint_chaotic(s)
        assert rep.verdict == VERDICT_REFUSED
        assert "weight 2" in rep.reason
        by_op = {sv["op"]: sv["verdict"] for sv in rep.sub_verdicts}
        assert by_op[1] == VERDICT_VERIFIED
        assert by_op[2] == VERDICT_REFUSED

    def test_series_implies_transitive_quantities(self):
        s = heis_scenario(eps=1e-2, n_max=20, t_max=16)
        rep = check_disjoint_chaotic(s)
        n = rep.n_star
        trans = check_disjoint_transitive(s)
        assert trans.verified and trans.n_star <= n


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


STEP3 = ClampExpWeight(base=3.0, coord=0, lo=-1.0, hi=1.0)


class TestEngine:
    """One aperiodicity scan and one table build per checker call."""

    @pytest.mark.parametrize(
        "check",
        [
            check_disjoint_transitive,
            check_disjoint_mixing,
            check_same_weight,
            check_chaotic,
            check_disjoint_chaotic,
        ],
    )
    def test_one_aperiodicity_scan(self, monkeypatch, check):
        calls = counting(monkeypatch, dynamics, "aperiodicity_bound")
        rep = check(z_scenario(n_max=16, t_max=10))
        assert rep.verdict != VERDICT_REFUSED
        assert len(calls) == 1

    def test_tables_built_once_per_weight(self, monkeypatch):
        calls = counting(monkeypatch, _accel, "clampexp_orbit_logs")
        check_disjoint_chaotic(z_scenario(weights=(STEP, STEP3), n_max=16, t_max=10))
        log_bases = [args[5] for args in calls]
        assert sorted(log_bases) == sorted([math.log(2.0)] * 2 + [math.log(3.0)] * 2)

    def test_equal_weights_share_tables(self, monkeypatch):
        calls = counting(monkeypatch, _accel, "clampexp_orbit_logs")
        check_disjoint_chaotic(z_scenario(n_max=16, t_max=10))
        assert len(calls) == 2  # one forward and one backward table

    @pytest.mark.parametrize(
        "weights,override",
        [
            ((STEP, STEP), False),
            ((STEP, STEP3), False),
            ((STEP, ConstantWeight(1.0)), False),  # combined check refused by weight 2
            ((STEP, ConstantWeight(1.0)), True),
            ((ConstantWeight(2.0), STEP3), False),
        ],
    )
    def test_sub_verdicts_match_standalone(self, weights, override):
        s = z_scenario(weights=weights, n_max=16, t_max=10)
        rep = check_disjoint_chaotic(s, override=override)
        for l, sv in enumerate(rep.sub_verdicts):
            alone = check_chaotic(s, op_index=l, override=override)
            assert sv == {"op": l + 1, "verdict": alone.verdict, "n_star": alone.n_star}
        assert len(rep.sub_verdicts) == s.L


class TestEPolicy:
    def make_scenario(self, cap):
        m = GroupModel.lattice_line(0.25)
        table = {(u,): 2.0 for u in range(-700, 0)}
        table.update({(u,): 1.0 for u in range(0, 9)})
        table[(5,)] = 1e-30  # poisons the backward cocycle at unit 5 only
        w = TableWeight(table, default=0.5)
        return Scenario(
            model=m,
            phi=PowerYoung(2.0),
            a=m.element([1.0]),
            weights=(w, w),
            powers=(1, 2),
            K=CompactSet.box(m, [0.0], [2.0]),
            epsilon=1e-2,
            n_max=40,
            e_deficit_cap=cap,
        )

    def test_cap_zero_blocks(self):
        rep = check_disjoint_transitive(self.make_scenario(0.0))
        assert rep.verdict == VERDICT_NOT_VERIFIED

    def test_cap_admits_dropping_the_bad_cell(self):
        rep = check_disjoint_transitive(self.make_scenario(0.3))
        assert rep.verified
        n, _, deficit = rep.row(rep.n_star)
        assert deficit == pytest.approx(0.25)  # exactly one cell dropped

    def test_cap_nan_refused(self):
        with pytest.raises(ScenarioError, match="deficit cap"):
            self.make_scenario(math.nan)

    @pytest.mark.parametrize("cap", [1e308, math.inf])
    def test_huge_cap_is_the_measure_of_k(self, cap):
        # cap / cell mass overflows to inf; the budget is all but one cell either way
        want = check_disjoint_transitive(self.make_scenario(2.25))
        got = check_disjoint_transitive(self.make_scenario(cap))
        assert got.verified
        assert (got.verdict, got.n_star, got.trace_csv()) == (
            want.verdict, want.n_star, want.trace_csv())

    def test_counting_models_reject_cap(self):
        with pytest.raises(ScenarioError):
            Scenario(
                model=ZLINE,
                phi=PowerYoung(2.0),
                a=ZLINE.element([1]),
                weights=(STEP, STEP),
                powers=(1, 2),
                K=CompactSet.box(ZLINE, [-3], [3]),
                epsilon=1e-2,
                n_max=16,
                e_deficit_cap=1.0,
            )


class TestWitness:
    def setup_scenario(self):
        K0 = CompactSet.from_elements(ZLINE, [ZLINE.element([0])])
        s = Scenario(
            model=ZLINE,
            phi=PowerYoung(1.0),
            a=ZLINE.element([1]),
            weights=(STEP, STEP),
            powers=(1, 2),
            K=K0,
            epsilon=1e-2,
            n_max=64,
        )
        return s, indicator(K0)

    def recursive_inverse_oracle(self, weight, m):
        # S^m of the unit mass at 0 sits at -m with value 1/(w(0)...w(-(m-1)))
        val, pos = 1.0, 0
        for _ in range(m):
            val = val / weight(ZLINE.element([pos]))
            pos -= 1
        return pos, val

    def test_witness_matches_recursive_oracle(self):
        s, f = self.setup_scenario()
        v = build_witness(s, f, [f, f], 4, s.K)
        p1, v1 = self.recursive_inverse_oracle(STEP, 4)
        p2, v2 = self.recursive_inverse_oracle(STEP, 8)
        assert (p1, v1) == (-4, 0.125) and (p2, v2) == (-8, 0.0078125)
        assert v.value(ZLINE.element([0])) == 1.0
        assert v.value(ZLINE.element([p1])) == v1
        assert v.value(ZLINE.element([p2])) == v2
        assert len(v) == 3

    def test_residual_exact_value(self):
        s, f = self.setup_scenario()
        v = build_witness(s, f, [f, f], 4, s.K)
        rho0, rhos = verify_witness(s, v, f, [f, f], 4)
        assert rho0 == 0.1328125  # 2^-3 + 2^-7, exact in binary
        assert rhos[0] == pytest.approx(0.1875, abs=1e-15)

    def test_residuals_decay(self):
        s, f = self.setup_scenario()
        v = build_witness(s, f, [f, f], 16, s.K)
        rho0, rhos = verify_witness(s, v, f, [f, f], 16)
        assert rho0 < 1e-3 and all(r < 1e-3 for r in rhos)

    def test_degenerate_no_targets(self):
        s, f = self.setup_scenario()
        assert build_witness(s, f, [], 4, s.K) == f.restrict(s.K)

    def test_n_zero(self):
        s, f = self.setup_scenario()
        v = build_witness(s, f, [f, f], 0, s.K)
        assert v == f + f + f

    def test_support_escape_rejected(self):
        s, f = self.setup_scenario()
        stray = OrliczVector.point_mass(ZLINE.element([9]))
        with pytest.raises(SupportEscapesKError):
            build_witness(s, stray, [f, f], 4, s.K)
        with pytest.raises(SupportEscapesKError):
            build_witness(s, f, [stray, f], 4, s.K)

    def test_soundness_link(self):
        # residuals are controlled by the triangle bounds built from the
        # operator images, on a scenario the checker verified
        model, phi = ZLINE, PowerYoung(2.0)
        K = CompactSet.box(ZLINE, [-2], [2])
        s = Scenario(
            model=model,
            phi=phi,
            a=ZLINE.element([1]),
            weights=(STEP, STEP),
            powers=(1, 2),
            K=K,
            epsilon=1e-2,
            n_max=64,
        )
        rep = check_disjoint_transitive(s)
        assert rep.verified
        n = rep.n_star
        f = indicator(K)
        gs = [indicator(K), indicator(K)]
        v = build_witness(s, f, gs, n, K)
        rho0, rhos = verify_witness(s, v, f, gs, n)
        ops = s.operators()
        bound0 = sum(
            ops[i].apply_inv(gs[i].restrict(K), s.powers[i] * n).luxemburg_norm(phi)
            for i in range(2)
        )
        assert rho0 <= bound0 + 1e-12
        for l in range(2):
            terms = [ops[l].apply(f.restrict(K), s.powers[l] * n).luxemburg_norm(phi)]
            for sidx in range(2):
                if sidx != l:
                    img = ops[l].apply(
                        ops[sidx].apply_inv(gs[sidx].restrict(K), s.powers[sidx] * n),
                        s.powers[l] * n,
                    )
                    terms.append(img.luxemburg_norm(phi))
            assert rhos[l] <= sum(terms) + 1e-12


class TestPeriodicPoint:
    def make_op(self):
        return WeightedTranslation(ZLINE, ZLINE.element([1]), STEP)

    def test_residual_below_tail_bound(self):
        op = self.make_op()
        phi = PowerYoung(2.0)
        K = CompactSet.box(ZLINE, [-3], [3])
        res = build_periodic_point(op, phi, indicator(K), K, 10, 20, epsilon=0.5)
        resid = (op.apply(res.point, 10) - res.point).luxemburg_norm(phi)
        assert resid <= res.tail_bound
        assert resid <= 1e-6

    def test_truncation_zero(self):
        op = self.make_op()
        phi = PowerYoung(1.0)
        K = CompactSet.box(ZLINE, [0], [0])
        f = indicator(K)
        res = build_periodic_point(op, phi, f, K, 5, 0)
        assert res.point == f
        resid = (op.apply(res.point, 5) - res.point).luxemburg_norm(phi)
        assert resid <= res.tail_bound + 1e-15

    def test_zero_vector_fixed_point(self):
        op = self.make_op()
        K = CompactSet.box(ZLINE, [0], [0])
        res = build_periodic_point(op, PowerYoung(2.0), OrliczVector.zero(ZLINE), K, 5, 8)
        assert res.point.is_zero() and res.tail_bound == 0.0

    def test_disjointness_violation(self):
        op = self.make_op()
        K = CompactSet.box(ZLINE, [-3], [3])
        with pytest.raises(DisjointnessViolatedError):
            build_periodic_point(op, PowerYoung(2.0), indicator(K), K, 1, 2)

    def test_not_chaotic_at_n(self):
        op = self.make_op()
        K = CompactSet.box(ZLINE, [-3], [3])
        with pytest.raises(NotChaoticAtNError):
            build_periodic_point(op, PowerYoung(2.0), indicator(K), K, 10, 20, epsilon=1e-9)

    def test_overflowing_series_not_chaotic(self):
        # the forward cocycle 1e650 overflows: a series of inf, not a math range error
        op = WeightedTranslation(ZLINE, ZLINE.element([1]), ConstantWeight(1e10))
        K = CompactSet.box(ZLINE, [0], [0])
        with pytest.raises(NotChaoticAtNError, match="cocycle series inf"):
            build_periodic_point(op, PowerYoung(2.0), indicator(K), K, 65, 1, epsilon=1.0)


class TestReportShape:
    def test_column_count(self):
        rep = check_disjoint_transitive(z_scenario(n_max=8))
        L = 2
        assert len(rep.columns) == 2 * L + L * (L - 1)
        chaos = check_disjoint_chaotic(heis_scenario(eps=1e-2, n_max=8, t_max=8))
        assert len(chaos.columns) == 2 * L + L * (L - 1) + L

    def test_rows_cover_sweep(self):
        rep = check_disjoint_transitive(z_scenario(n_max=8))
        assert [row[0] for row in rep.rows] == list(range(1, 9))

    def test_csv_shape(self):
        rep = check_disjoint_transitive(z_scenario(n_max=3, box=0))
        lines = rep.trace_csv().strip().split("\n")
        assert lines[0].startswith("n,") and lines[0].endswith(",e_k_deficit")
        assert len(lines) == 4

    def test_json_dict(self):
        rep = check_disjoint_transitive(z_scenario(n_max=16))
        doc = rep.to_json_dict()
        assert doc["verdict"] == VERDICT_VERIFIED
        assert doc["scenario"]["powers"] == [1, 2]
