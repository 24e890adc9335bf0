import math

import numpy as np
import pytest

import orliczdyn as od
from orliczdyn import _accel
from orliczdyn.group import GroupModel
from orliczdyn.translation import ClampExpWeight
from orliczdyn.young import CustomYoung, OutOfGridError, PowerLogYoung, PowerYoung
from samples import random_element


@pytest.fixture
def rng():
    return np.random.default_rng(77)


GRID_T = np.linspace(0.0, 10.0, 101)
CUSTOM = CustomYoung(list(zip(GRID_T, GRID_T**2)))
YOUNGS = [PowerYoung(1.0), PowerYoung(2.0), PowerYoung(3.5), PowerLogYoung(2.0), CUSTOM]


class TestKernelsMatchScalar:
    """The array formulas and kernels against the library's scalar definitions."""

    @pytest.mark.parametrize("phi", YOUNGS)
    def test_phi_values(self, rng, phi):
        ts = rng.uniform(0.0, 9.5, size=300)
        np.testing.assert_allclose(phi.values(ts), [phi(t) for t in ts], rtol=1e-13)

    @pytest.mark.parametrize("phi", YOUNGS)
    def test_modular_sum(self, rng, phi):
        vals = rng.uniform(0.0, 8.0, size=500)
        for k in (0.85, 1.0, 3.7):
            got = _accel.modular_sum(vals, k, 0.5, phi)
            assert got == pytest.approx(0.5 * math.fsum(phi(v / k) for v in vals), rel=1e-12)

    def test_custom_out_of_grid_is_inf(self):
        vals = np.array([20.0])
        assert math.isinf(CUSTOM.values(vals)[0])
        assert math.isinf(_accel.modular_sum(vals, 1.0, 1.0, CUSTOM))
        with pytest.raises(OutOfGridError):
            CUSTOM.value_array(vals)

    @pytest.mark.parametrize(
        "model,a_units,coord",
        [
            (GroupModel.lattice_line(0.5), [1], 0),
            (GroupModel.heisenberg_int(), [1, 1, 2], 2),
            (GroupModel.heisenberg_lattice(0.5), [1, 2, 1], 2),
        ],
        ids=["abelian", "heisenberg", "heisenberg_lattice"],
    )
    def test_orbit_logs(self, rng, model, a_units, coord):
        w = ClampExpWeight(base=2.0, coord=coord, lo=-2.5, hi=1.5)
        xs = [random_element(model, rng, span=4) for _ in range(30)]
        a = model.element_units(a_units)
        pows = [a**j for j in range(1, 25)]
        got = _accel.clampexp_orbit_logs(
            np.array([x.units for x in xs], dtype=np.int64),
            np.array([p.units for p in pows], dtype=np.int64),
            model.h,
            model.is_heisenberg,
            coord,
            math.log(w.base),
            w.lo,
            w.hi,
        )
        want = [[math.log(w(x * p)) for p in pows] for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_numpy_fallback_end_to_end():
    # the whole checker pipeline runs on the numpy kernels
    z = od.GroupModel.int_line()
    w = od.ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
    s = od.Scenario(model=z, phi=od.PowerYoung(2.0), a=z.element([1]),
                    weights=(w, w), powers=(1, 2),
                    K=od.CompactSet.box(z, [-3], [3]), epsilon=1e-2, n_max=32)
    rep = od.check_disjoint_transitive(s)
    assert od.ACCEL_BACKEND == "numpy"
    assert (rep.verdict, rep.n_star) == ("verified", 14)
