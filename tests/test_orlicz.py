import math

import numpy as np
import pytest

from samples import ALL_MODELS, random_element, random_vector
from orliczdyn.group import CompactSet, GroupModel, ModelMismatchError
from orliczdyn.orlicz import OrliczVector, indicator
from orliczdyn.translation import ConstantWeight, WeightedTranslation
from orliczdyn.young import CustomYoung, OutOfGridError, PowerLogYoung, PowerYoung

ZLINE = GroupModel.int_line()
HEIS = GroupModel.heisenberg_int()
P1 = PowerYoung(1.0)
P2 = PowerYoung(2.0)


def chi(*points):
    return OrliczVector(ZLINE, {ZLINE.element([p]): 1.0 for p in points})


class TestModular:
    def test_two_point_indicator(self):
        assert chi(0, 1).modular(1.0, P2) == 1.0

    def test_zero_vector(self):
        assert OrliczVector.zero(ZLINE).modular(2.0, P2) == 0.0

    def test_scaled_point(self):
        f = OrliczVector.point_mass(ZLINE.element([5]), 3.0)
        assert f.modular(2.0, P1) == 1.5

    def test_cell_mass_scaling(self):
        m = GroupModel.lattice_line(0.5)
        f = OrliczVector.point_mass(m.element([1.0]), 2.0)
        assert f.modular(1.0, P2) == 0.5 * 2.0  # phi(2) = 2 times mass 0.5

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            chi(0).modular(0.0, P2)


class TestLuxemburgNorm:
    def test_two_point_indicator_p2(self):
        # closed form (lambda(B)/p)^(1/p) = (2/2)^(1/2)
        assert abs(chi(0, 1).luxemburg_norm(P2) - 1.0) < 1e-12

    def test_p1_is_absolute_sum(self):
        f = OrliczVector.point_mass(ZLINE.element([5]), 3.0)
        assert abs(f.luxemburg_norm(P1) - 3.0) < 1e-12
        g = OrliczVector(ZLINE, {ZLINE.element([i]): v for i, v in [(0, 1.5), (3, -2.5), (7, 0.25)]})
        assert abs(g.luxemburg_norm(P1) - 4.25) < 1e-12 * 4.25

    def test_zero(self):
        assert OrliczVector.zero(ZLINE).luxemburg_norm(P2) == 0.0

    def test_single_point_closed_form(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 2.0, 3.0):
            phi = PowerYoung(p)
            for _ in range(20):
                c = float(rng.uniform(0.1, 9.0))
                f = OrliczVector.point_mass(ZLINE.element([int(rng.integers(-9, 9))]), c)
                expect = c / phi.inverse(1.0)
                assert abs(f.luxemburg_norm(phi) - expect) <= 1e-11 * expect

    def test_indicator_norm_formula(self):
        K = CompactSet.box(ZLINE, [0], [5])
        expect = math.sqrt(3.0)  # 1 / phi^-1(1/6) for phi = t^2/2
        assert abs(indicator(K).luxemburg_norm(P2) - expect) <= 1e-9

    def test_indicator_norm_formula_random(self):
        rng = np.random.default_rng(42)
        for phi in [P1, P2, PowerYoung(3.0), PowerLogYoung(2.0)]:
            for _ in range(25):
                pts = {int(p) for p in rng.integers(-40, 40, size=rng.integers(1, 25))}
                K = CompactSet.from_elements(ZLINE, [ZLINE.element([p]) for p in pts])
                lhs = indicator(K).luxemburg_norm(phi)
                rhs = 1.0 / phi.inverse(1.0 / K.measure)
                assert abs(lhs - rhs) <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        for model in [ZLINE, HEIS]:
            for _ in range(500):
                f = random_vector(model, rng)
                a = random_element(model, rng)
                n0 = f.luxemburg_norm(P2)
                n1 = f.translate(a).luxemburg_norm(P2)
                assert abs(n0 - n1) <= 1e-10 * (1.0 + n0)

    def test_homogeneity(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            f = random_vector(ZLINE, rng)
            c = float(rng.uniform(-4.0, 4.0))
            if c == 0.0:
                continue
            lhs = (c * f).luxemburg_norm(P2)
            rhs = abs(c) * f.luxemburg_norm(P2)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            f = random_vector(ZLINE, rng)
            g = random_vector(ZLINE, rng)
            assert (f + g).luxemburg_norm(P2) <= f.luxemburg_norm(P2) + g.luxemburg_norm(P2) + 1e-9

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            f = random_vector(ZLINE, rng)
            bump = random_vector(ZLINE, rng)
            g_entries = {x: abs(v) for x, v in f.items()}
            for x, v in bump.items():
                g_entries[x] = g_entries.get(x, 0.0) + abs(v)
            g = OrliczVector(ZLINE, g_entries)
            assert f.luxemburg_norm(P2) <= g.luxemburg_norm(P2) + 1e-12

    def test_norm_zero_iff_zero_vector(self):
        f = chi(0, 3)
        assert (f - f).is_zero()
        assert (f - f).luxemburg_norm(P2) == 0.0
        assert f.luxemburg_norm(P2) > 0.0

    def test_underflowed_entries_have_norm_zero(self):
        op = WeightedTranslation(ZLINE, ZLINE.element([1]), ConstantWeight(1e-200))
        f = op.apply(OrliczVector.point_mass(ZLINE.element([0])), 2)
        assert len(f) == 1 and not f.is_zero()  # 1e-400 underflowed to 0.0
        phis = [P1, P2, PowerLogYoung(2.0), CustomYoung([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])]
        for phi in phis:
            assert f.luxemburg_norm(phi) == 0.0

    def test_custom_grid_certification(self):
        phi = CustomYoung([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])
        # in-grid norm works
        f = OrliczVector.point_mass(ZLINE.element([0]), 0.5)
        assert f.luxemburg_norm(phi) > 0.0
        # a tiny-mass lattice puts the bracket beyond the grid knowledge
        m = GroupModel.lattice_line(1e-6)
        g = OrliczVector.point_mass(m.element_units([0]), 1.0)
        with pytest.raises(OutOfGridError):
            g.luxemburg_norm(phi)


class TestVectorOps:
    def test_translate_point(self):
        f = chi(0)
        assert f.translate(ZLINE.element([1])) == chi(1)

    def test_translate_identity(self):
        f = chi(0, 2, 5)
        assert f.translate(ZLINE.element([0])) == f

    def test_translate_heisenberg(self):
        f = OrliczVector.point_mass(HEIS.element([0, 0, 0]))
        a = HEIS.element([1, 0, 2])
        assert f.translate(a) == OrliczVector.point_mass(a)

    def test_translate_values_preserved(self):
        rng = np.random.default_rng(2)
        for model in ALL_MODELS:
            f = random_vector(model, rng)
            a = random_element(model, rng)
            g = f.translate(a)
            assert sorted(v for _, v in f.items()) == sorted(v for _, v in g.items())
            assert len(g) == len(f)

    def test_indicator(self):
        K = CompactSet.box(ZLINE, [-1], [1])
        f = indicator(K)
        assert len(f) == 3 and all(v == 1.0 for _, v in f.items())
        assert indicator(CompactSet.box(ZLINE, [1], [0])).is_zero()

    def test_canonical_zero_dropping(self):
        f = OrliczVector(ZLINE, {ZLINE.element([0]): 1.0, ZLINE.element([1]): 0.0})
        assert len(f) == 1
        assert (f - f).is_zero() and len(f - f) == 0

    def test_restrict(self):
        f = chi(-2, 0, 2)
        E = CompactSet.box(ZLINE, [-1], [1])
        assert f.restrict(E) == chi(0)

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            chi(0).translate(HEIS.element([0, 0, 0]))
        with pytest.raises(ModelMismatchError):
            chi(0) + OrliczVector.point_mass(HEIS.element([0, 0, 0]))

    def test_json_round_trip(self):
        f = OrliczVector(ZLINE, {ZLINE.element([-4]): 0.125, ZLINE.element([0]): 1.0})
        entries = f.to_json_entries()
        assert entries == [[[-4], 0.125], [[0], 1.0]]
        assert OrliczVector.from_json_entries(ZLINE, entries) == f
