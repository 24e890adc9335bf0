import math

import numpy as np
import pytest

from orliczdyn.group import GroupModel
from orliczdyn.orlicz import OrliczVector
from orliczdyn.young import (
    ConjugateDivergesError,
    CustomYoung,
    InvalidParameterError,
    OutOfGridError,
    PowerLogYoung,
    PowerYoung,
    UnboundedInverseError,
)


def exp_grid_custom(t_max=50.0, n=400):
    ts = np.linspace(0.0, t_max, n)
    return CustomYoung([(t, math.expm1(t)) for t in ts])


def quadratic_custom(t_max=10.0, n=101):
    ts = np.linspace(0.0, t_max, n)
    return CustomYoung([(t, t * t) for t in ts])


class TestEval:
    def test_power_value(self):
        assert PowerYoung(2.0)(2.0) == 2.0
        assert PowerYoung(3.0)(2.0) == 8.0 / 3.0

    def test_zero_everywhere(self):
        for phi in [PowerYoung(1.0), PowerYoung(2.5), PowerLogYoung(2.0), quadratic_custom()]:
            assert phi(0.0) == 0.0

    def test_powerlog_at_one(self):
        assert PowerLogYoung(2.0)(1.0) == 1.0

    def test_evenness(self):
        for phi in [PowerYoung(1.7), PowerLogYoung(2.3), quadratic_custom()]:
            for t in [0.3, 1.0, 2.7, 5.1]:
                assert phi(-t) == phi(t)

    def test_monotone(self):
        ts = np.linspace(0.0, 8.0, 200)
        for phi in [PowerYoung(1.0), PowerYoung(2.0), PowerLogYoung(2.0), quadratic_custom()]:
            vals = [phi(t) for t in ts]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            PowerYoung(0.9)
        with pytest.raises(InvalidParameterError):
            PowerLogYoung(1.0)

    @pytest.mark.parametrize("phi", [PowerYoung(1100.0), PowerLogYoung(1100.0)], ids=repr)
    def test_large_exponent_overflows_to_inf(self, phi):
        # the scalar formula gives +inf where the array formula does, not OverflowError
        with np.errstate(over="ignore"):
            assert phi(10.0) == phi(-10.0) == phi.values(np.array([10.0]))[0] == math.inf
        model = GroupModel.int_line()
        v = OrliczVector(model, {model.element([0]): 1.0, model.element([1]): 3.0})
        norm = v.luxemburg_norm(phi)
        assert math.isfinite(norm) and v.modular(norm, phi) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_custom_refuses_non_finite_samples(self, bad):
        for samples in ([(0, 0), (1, 1), (2, bad)], [(0, 0), (1, 1), (bad, 4)]):
            with pytest.raises(InvalidParameterError, match="finite"):
                CustomYoung(samples)

    def test_custom_out_of_grid(self):
        phi = quadratic_custom(t_max=10.0)
        with pytest.raises(OutOfGridError):
            phi(10.5)

    def test_custom_rejects_nonconvex(self):
        with pytest.raises(InvalidParameterError):
            CustomYoung([(0.0, 0.0), (1.0, 5.0), (2.0, 6.0), (3.0, 6.5)])

    def test_custom_rejects_flat_zero(self):
        with pytest.raises(InvalidParameterError):
            CustomYoung([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])

    def test_convexity_sampled(self):
        # power and custom families; the power-log family has a documented
        # narrow non-convex window below |t| = 1 for small exponents
        rng = np.random.default_rng(7)
        for phi in [PowerYoung(1.0), PowerYoung(2.0), PowerYoung(3.5), quadratic_custom(), exp_grid_custom(8.0)]:
            for _ in range(300):
                s, t = sorted(rng.uniform(0.0, 4.0, size=2))
                for theta in (0.25, 0.5, 0.75):
                    lhs = phi(theta * s + (1 - theta) * t)
                    rhs = theta * phi(s) + (1 - theta) * phi(t)
                    assert lhs <= rhs + 1e-9 * (1.0 + phi(t))


class TestInverse:
    def test_trivial_values(self):
        assert PowerYoung(2.0).inverse(0.0) == 0.0
        assert abs(PowerYoung(2.0).inverse(2.0) - 2.0) < 1e-10
        assert abs(PowerLogYoung(2.0).inverse(1.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("phi", [PowerYoung(1.0), PowerYoung(1.5), PowerYoung(3.0), PowerLogYoung(2.0), PowerLogYoung(3.0)])
    def test_roundtrip(self, phi):
        for t in np.linspace(0.05, 20.0, 40):
            assert abs(phi.inverse(phi(t)) - t) <= 1e-8 * (1.0 + t)

    def test_power_closed_form(self):
        phi = PowerYoung(2.0)
        for s in [0.5, 1.0, 7.0]:
            assert abs(phi.inverse(s) - math.sqrt(2.0 * s)) < 1e-10

    def test_unbounded_for_custom(self):
        phi = quadratic_custom(t_max=10.0)
        with pytest.raises(UnboundedInverseError):
            phi.inverse(1e6)


class TestConjugate:
    def grid_max(self, phi, y, hi, n=2_000_001):
        xs = np.linspace(0.0, hi, n)
        return float(np.max(xs * abs(y) - phi.values(xs)))

    def test_power2_y3(self):
        phi = PowerYoung(2.0)
        oracle = self.grid_max(phi, 3.0, 10.0)
        assert abs(oracle - 4.5) < 1e-9
        assert abs(phi.conjugate(3.0) - 4.5) < 1e-7

    def test_power3_y1(self):
        phi = PowerYoung(3.0)
        oracle = self.grid_max(phi, 1.0, 5.0)
        assert abs(oracle - 2.0 / 3.0) < 1e-9
        assert abs(phi.conjugate(1.0) - 2.0 / 3.0) < 1e-6

    def test_zero(self):
        for phi in [PowerYoung(2.0), PowerLogYoung(2.0), quadratic_custom()]:
            assert phi.conjugate(0.0) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_power_closed_form_sweep(self, p):
        phi = PowerYoung(p)
        q = p / (p - 1)
        for y in np.linspace(0.0, 10.0, 41):
            assert abs(phi.conjugate(y) - abs(y) ** q / q) <= 1e-6

    def test_diverges_for_p1(self):
        with pytest.raises(ConjugateDivergesError):
            PowerYoung(1.0).conjugate(2.0)

    def test_p1_inside_unit_ball(self):
        assert PowerYoung(1.0).conjugate(1.0) == 0.0
        assert PowerYoung(1.0).conjugate(0.5) == 0.0

    def test_custom_against_grid(self):
        phi = exp_grid_custom(t_max=10.0, n=2000)
        for y in [0.5, 1.0, 2.0, 4.0]:
            oracle = self.grid_max(phi, y, 10.0, n=200_001)
            assert abs(phi.conjugate(y) - oracle) < 1e-4

    def test_cache_idempotent(self):
        phi = PowerYoung(2.0)
        assert phi.conjugate(3.0) == phi.conjugate(3.0)

    def test_young_inequality_all_families(self):
        for phi in [PowerYoung(2.0), PowerYoung(3.0), PowerLogYoung(2.0), exp_grid_custom(25.0)]:
            xs = np.linspace(0.0, 10.0, 101)
            ys = np.linspace(0.0, 10.0, 101)
            psi = np.array([phi.conjugate(float(y)) for y in ys])
            phix = phi.values(xs)
            lhs = np.outer(xs, ys)
            rhs = phix[:, None] + psi[None, :] + 1e-6
            assert np.all(lhs <= rhs)
