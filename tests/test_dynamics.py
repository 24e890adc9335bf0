import dataclasses
import math

import numpy as np
import pytest

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

    @pytest.mark.parametrize("lo,hi", [(-0.02, 2.0), (-0.5, 0.5), (-2.0, 0.01), (-1.0, 3.0)])
    def test_certified_series_bounds_long_sum(self, lo, hi):
        """On the line every step ratio of a clamp_exp orbit is monotone, so
        a certified tail is an upper bound: check it against 20000 terms."""
        w = ClampExpWeight(base=2.0, coord=0, lo=lo, hi=hi)
        terms, checked = 20000, 0
        for x in (-6, -1, 0, 3):
            s = z_scenario(eps=1.0, n_max=3, weights=(w,), powers=(1,), t_max=8)
            s = dataclasses.replace(s, K=CompactSet.from_elements(ZLINE, [ZLINE.element([x])]))
            tables = dynamics._OrbitTables(s, [3 * s.t_max])
            for n in (1, 2, 3):
                steps = np.arange(1, terms * n + 1)
                fwd = np.cumsum(-np.clip(x + steps, lo, hi) * math.log(2.0))[n - 1 :: n]
                bwd = np.cumsum(np.clip(x + 1 - steps, lo, hi) * math.log(2.0))[n - 1 :: n]
                long_sum = np.sum(np.exp(fwd)) + np.sum(np.exp(bwd))
                trace, accept = dynamics._series_quantities(tables, 0, 1, n, s.t_max)
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
