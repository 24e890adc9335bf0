import math

import numpy as np
import pytest

from samples import random_element, random_vector
from orliczdyn.group import CompactSet, EmptySetError, GroupModel
from orliczdyn.orlicz import OrliczVector
from orliczdyn.translation import (
    ClampExpWeight,
    ConstantWeight,
    TableWeight,
    Weight,
    WeightedTranslation,
    WeightError,
    sup_abs_on,
)
from orliczdyn.young import PowerYoung

ZLINE = GroupModel.int_line()
HEIS = GroupModel.heisenberg_int()
STEP = ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
HSTEP = ClampExpWeight(base=2.0, coord=2, lo=-1.0, hi=1.0)


def zop(weight=STEP, a=1):
    return WeightedTranslation(ZLINE, ZLINE.element([a]), weight)


def chi(p):
    return OrliczVector.point_mass(ZLINE.element([p]))


class TestWeights:
    def test_step_profile(self):
        w = HSTEP
        assert w(HEIS.element([0, 0, 1])) == 0.5
        assert w(HEIS.element([0, 0, 5])) == 0.5
        assert w(HEIS.element([0, 0, 0])) == 1.0
        assert w(HEIS.element([0, 0, -1])) == 2.0
        assert w(HEIS.element([7, 3, -9])) == 2.0

    def test_step_bounds(self):
        assert STEP.sup_bound() == 2.0 and STEP.inf_bound() == 0.5

    def test_constant(self):
        w = ConstantWeight(3.0)
        assert w(ZLINE.element([17])) == 3.0
        with pytest.raises(WeightError):
            ConstantWeight(0.0)

    def test_table(self):
        w = TableWeight({(0,): 0.25, (1,): 4.0}, default=1.5)
        assert w(ZLINE.element([0])) == 0.25
        assert w(ZLINE.element([9])) == 1.5
        assert w.sup_bound() == 4.0 and w.inf_bound() == 0.25
        with pytest.raises(WeightError):
            TableWeight({(0,): -1.0}, default=1.0)
        with pytest.raises(WeightError):
            TableWeight({(0.5,): 2.0}, default=1.0)  # keys are integer lattice units
        with pytest.raises(WeightError):
            TableWeight({(True,): 2.0}, default=1.0)

    def test_lattice_uses_real_coordinates(self):
        m = GroupModel.lattice_line(0.5)
        w = ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
        assert w(m.element([0.5])) == 2.0**-0.5

    def test_from_config(self):
        w = Weight.from_config({"rule": "clamp_exp", "base": 2.0, "coord": 2, "lo": -1.0, "hi": 1.0})
        assert w == HSTEP
        assert Weight.from_config({"rule": "constant", "c": 2.0}) == ConstantWeight(2.0)
        t = Weight.from_config({"rule": "table", "entries": [[[0], 0.5]], "default": 2.0})
        assert t(ZLINE.element([0])) == 0.5
        with pytest.raises(WeightError):  # no silent int(1.7) == 1
            Weight.from_config({"rule": "table", "entries": [[[1.7], 0.5]], "default": 2.0})


class TestOperator:
    def test_apply_definition(self):
        op = zop(ConstantWeight(2.0))
        out = op.apply(chi(0), 1)
        assert out == OrliczVector.point_mass(ZLINE.element([1]), 2.0)

    def test_apply_zero_times(self):
        f = chi(0) + chi(3)
        assert zop().apply(f, 0) == f
        assert zop().apply_inv(f, 0) == f

    def test_heisenberg_apply(self):
        op = WeightedTranslation(HEIS, HEIS.element([1, 0, 2]), HSTEP)
        out = op.apply(OrliczVector.point_mass(HEIS.element([0, 0, 0])), 1)
        target = HEIS.element([1, 0, 2])
        assert set(out.support) == {target}
        assert out.value(target) == HSTEP(target) == 0.5

    def test_apply_inv_definition(self):
        op = zop(ConstantWeight(2.0))
        out = op.apply_inv(chi(0), 1)
        assert out == OrliczVector.point_mass(ZLINE.element([-1]), 0.5)

    def test_round_trips_exact(self):
        rng = np.random.default_rng(21)
        for model, weight, a in [
            (ZLINE, STEP, ZLINE.element([1])),
            (ZLINE, TableWeight({(0,): 0.3, (2,): 5.0}, default=1.1), ZLINE.element([2])),
            (HEIS, HSTEP, HEIS.element([1, 0, 2])),
        ]:
            op = WeightedTranslation(model, a, weight)
            for _ in range(300):
                f = random_vector(model, rng)
                n = int(rng.integers(0, 5))
                for g in (op.apply(op.apply_inv(f, n), n), op.apply_inv(op.apply(f, n), n)):
                    assert set(g.support) == set(f.support)
                    for x, v in f.items():
                        assert abs(g.value(x) - v) <= 1e-12 * abs(v)

    def test_support_size_preserved(self):
        rng = np.random.default_rng(22)
        op = zop()
        f = random_vector(ZLINE, rng, max_points=6)
        assert len(op.apply(f, 7)) == len(f)
        assert len(op.apply_inv(f, 7)) == len(f)


class TestCocycles:
    def test_fwd_step_weight(self):
        assert zop().cocycle_fwd(3, ZLINE.element([0])) == 0.125

    def test_fwd_constant(self):
        op = zop(ConstantWeight(3.0))
        for n in (1, 2, 5):
            assert op.cocycle_fwd(n, ZLINE.element([4])) == 3.0**n

    def test_fwd_heisenberg(self):
        op = WeightedTranslation(HEIS, HEIS.element([1, 0, 2]), HSTEP)
        assert op.cocycle_fwd(4, HEIS.element([0, 0, 1])) == 0.0625

    def test_bwd_step_weight(self):
        # w(0) w(-1) w(-2) = 1 * 2 * 2, reciprocal 1/4
        assert zop().cocycle_bwd(3, ZLINE.element([0])) == 0.25

    def test_bwd_constant(self):
        op = zop(ConstantWeight(2.0))
        assert op.cocycle_bwd(5, ZLINE.element([0])) == 2.0**-5

    def test_bwd_heisenberg(self):
        op = WeightedTranslation(HEIS, HEIS.element([1, 0, 2]), HSTEP)
        assert op.cocycle_bwd(4, HEIS.element([0, 0, -1])) == 1.0 / 16.0

    def test_direct_product_oracle(self):
        rng = np.random.default_rng(30)
        op = WeightedTranslation(HEIS, HEIS.element([1, 1, 0]), HSTEP)
        for _ in range(50):
            x = random_element(HEIS, rng, span=4)
            n = int(rng.integers(1, 12))
            fwd = math.prod(HSTEP(x * op.a**j) for j in range(1, n + 1))
            bwd = 1.0 / math.prod(HSTEP(x * op.a**-j) for j in range(n))
            assert op.cocycle_fwd(n, x) == pytest.approx(fwd, rel=1e-12)
            assert op.cocycle_bwd(n, x) == pytest.approx(bwd, rel=1e-12)

    def test_cocycle_composition_identity(self):
        # base-2 weights make every product an exact power of two
        op = zop()
        x = ZLINE.element([-2])
        for n, m in [(1, 1), (3, 4), (10, 7), (20, 30)]:
            lhs = op.cocycle_fwd(n + m, x)
            rhs = op.cocycle_fwd(n, x) * op.cocycle_fwd(m, x * op.a**n)
            assert lhs == rhs

    def test_log_space_matches_direct(self):
        op = zop()
        x = ZLINE.element([0])
        for n in (64, 65, 100, 300):
            # forward orbit of 0 sees w = 1/2 at every step
            assert op.cocycle_fwd(n, x) == pytest.approx(2.0**-n, rel=1e-11)

    def test_log_space_avoids_intermediate_underflow(self):
        # 170 factors of 1e-4 then 170 of 1e+4: direct product underflows
        # to zero midway, the log path recovers the exact value 1
        table = {(i,): 1e-4 for i in range(1, 171)}
        table.update({(i,): 1e4 for i in range(171, 341)})
        op = zop(TableWeight(table, default=1.0))
        x = ZLINE.element([0])
        direct = 1.0
        for j in range(1, 341):
            direct *= op.weight(ZLINE.element([j]))
        assert direct == 0.0
        assert op.cocycle_fwd(340, x) == pytest.approx(1.0, rel=1e-9)

    def test_operator_factorization(self):
        # T^n applied to a point mass lands at x0 * a^n with value equal
        # to the reciprocal backward cocycle there
        rng = np.random.default_rng(31)
        for model, weight, a in [
            (ZLINE, STEP, ZLINE.element([1])),
            (HEIS, HSTEP, HEIS.element([1, 0, 2])),
        ]:
            op = WeightedTranslation(model, a, weight)
            for _ in range(40):
                x0 = random_element(model, rng, span=4)
                n = int(rng.integers(1, 10))
                out = op.apply(OrliczVector.point_mass(x0), n)
                y = x0 * a**n
                assert set(out.support) == {y}
                assert out.value(y) == pytest.approx(1.0 / op.cocycle_bwd(n, y), rel=1e-12)
                inv_out = op.apply_inv(OrliczVector.point_mass(x0), n)
                yb = x0 * a**-n
                assert inv_out.value(yb) == pytest.approx(op.cocycle_bwd(n, x0), rel=1e-12)

    def test_norm_transport(self):
        # N(T^n (f chi_E)) equals N(fwd-cocycle * f on E)
        rng = np.random.default_rng(32)
        phi = PowerYoung(2.0)
        op = zop()
        E = CompactSet.box(ZLINE, [-3], [3])
        for _ in range(60):
            f = random_vector(ZLINE, rng, span=3)
            n = int(rng.integers(1, 20))
            lhs = op.apply(f.restrict(E), n).luxemburg_norm(phi)
            weighted = OrliczVector(
                ZLINE, {x: op.cocycle_fwd(n, x) * v for x, v in f.restrict(E).items()}
            )
            rhs = weighted.luxemburg_norm(phi)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zop().cocycle_fwd(0, ZLINE.element([0]))


class TestSup:
    def test_constant_one(self):
        E = CompactSet.box(ZLINE, [-5], [5])
        assert sup_abs_on(lambda x: 1.0, E) == 1.0

    def test_step_fwd_over_window(self):
        # direct-product oracle at each of the 3 points gives max 0.25 at x=-1
        op = zop()
        E = CompactSet.box(ZLINE, [-1], [1])
        oracle = max(
            math.prod(STEP(ZLINE.element([p + j])) for j in range(1, 4)) for p in (-1, 0, 1)
        )
        assert oracle == 0.25
        assert sup_abs_on(lambda x: op.cocycle_fwd(3, x), E) == 0.25

    def test_empty_set(self):
        with pytest.raises(EmptySetError):
            sup_abs_on(lambda x: 1.0, CompactSet.box(ZLINE, [1], [0]))
