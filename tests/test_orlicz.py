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
        assert len(f) == 0 and f.is_zero()  # 1e-400 underflows to 0.0 and is dropped
        phis = [P1, P2, PowerLogYoung(2.0), CustomYoung([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])]
        for phi in phis:
            assert f.luxemburg_norm(phi) == 0.0

    def test_overflowed_entries_have_norm_inf(self):
        # no k has a modular of at most 1, so no doubling brackets the norm
        op = WeightedTranslation(ZLINE, ZLINE.element([1]), ConstantWeight(1e200))
        f = op.apply(chi(0, 5), 2)
        assert np.isinf(f.values).all()  # 1e400 overflows to inf
        phis = [P1, P2, PowerLogYoung(2.0), CustomYoung([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])]
        for phi in phis:
            assert f.luxemburg_norm(phi) == math.inf
            assert (chi(0) - f).luxemburg_norm(phi) == math.inf  # -inf entries too

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
        with pytest.raises(ModelMismatchError):
            chi(0).restrict(CompactSet.box(HEIS, [0] * 3, [0] * 3))

    def test_from_arrays_sorts_and_sums_in_row_order(self):
        units = np.array([[3], [1], [3], [1], [3], [2]])
        f = OrliczVector.from_arrays(ZLINE, units, [0.1, 1.0, 0.2, -1.0, -0.3, 0.0])
        # (0.1 + 0.2) - 0.3 in row order; 0.1 + (0.2 - 0.3) would give -2.8e-17
        assert f.to_json_entries() == [[[3], (0.1 + 0.2) - 0.3]]

    def test_json_round_trip(self):
        f = OrliczVector(ZLINE, {ZLINE.element([-4]): 0.125, ZLINE.element([0]): 1.0})
        entries = f.to_json_entries()
        assert entries == [[[-4], 0.125], [[0], 1.0]]


def _oracle(pairs) -> list:
    """The old dict semantics: values of a repeated point summed in order,
    zero sums dropped; entries sorted by units, values as bit patterns."""
    d = {}
    for x, v in pairs:
        d[x] = d.get(x, 0.0) + v
    return sorted((x.units, v.hex()) for x, v in d.items() if v != 0.0)


def _bits(vec) -> list:
    return [(x.units, v.hex()) for x, v in vec.items()]


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_vector_arithmetic_matches_dict_oracle(model):
    """Random vectors on a few points, with repeated points, sums that
    cancel to 0 and products that underflow to 0."""
    rng = np.random.default_rng(ALL_MODELS.index(model))
    choices = [0.1, 0.2, -0.3, 0.5, -0.5, 1.0, -1.0, 1e-300, 0.0]
    seen = set()

    def pairs():
        n = int(rng.integers(0, 9))
        return [
            (random_element(model, rng, span=1), float(rng.choice(choices))) for _ in range(n)
        ]

    for _ in range(60):
        p, q = pairs(), pairs()
        f, g = OrliczVector(model, p), OrliczVector(model, q)
        assert _bits(f) == _oracle(p)
        units = model.units_array([x for x, _ in p])
        assert _bits(OrliczVector.from_arrays(model, units, [v for _, v in p])) == _oracle(p)
        assert _bits(f + g) == _oracle(f.items() + g.items())
        assert _bits(f - g) == _oracle(f.items() + [(x, -v) for x, v in g.items()])
        assert _bits(-f) == _oracle([(x, -v) for x, v in f.items()])
        for c in (2.0, -0.5, 0.0, 1e-30):
            assert _bits(c * f) == _bits(f * c) == _oracle([(x, c * v) for x, v in f.items()])
        E = CompactSet.from_elements(model, [random_element(model, rng, span=1) for _ in range(6)])
        assert _bits(f.restrict(E)) == _oracle([(x, v) for x, v in f.items() if x in set(E)])
        a = random_element(model, rng, span=3)
        assert _bits(f.translate(a)) == _oracle([(x * a, v) for x, v in f.items()])
        want = dict(f.items())
        for x in [x for x, _ in p + q] + [model.identity()]:
            assert f.value(x) == want.get(x, 0.0)
        other = ZLINE if model != ZLINE else HEIS
        assert f.value(other.identity()) == 0.0
        seen.add(len(p) - len(f))
    assert max(seen) >= 3  # repeats and cancellations were exercised
