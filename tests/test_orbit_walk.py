"""Array orbit walks against the step-by-step references, bit for bit."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import reference
from samples import ALL_MODELS, random_element, random_vector
from orliczdyn.dynamics import (
    DisjointnessViolatedError,
    DynamicsError,
    NotChaoticAtNError,
    _log_tables,
    build_periodic_point,
)
from orliczdyn.group import CompactSet, GroupModel, OffLatticeError
from orliczdyn.orlicz import OrliczVector, indicator
from orliczdyn.translation import (
    ClampExpWeight,
    ConstantWeight,
    TableWeight,
    Weight,
    WeightedTranslation,
    log_values,
)
from orliczdyn.young import PowerYoung

NS = (0, 1, 2, 7, 65)
PHI = PowerYoung(2.0)


def weights(model):
    rng = np.random.default_rng(7)
    table = {
        tuple(int(u) for u in rng.integers(-6, 7, size=model.dim)): float(v)
        for v in rng.choice([0.3, 0.7, 1.25, 2.5], size=40)
    }
    return {
        "constant": ConstantWeight(1.3),
        "clamp_exp": ClampExpWeight(base=2.5, coord=model.dim - 1, lo=-1.5, hi=1.0),
        "table": TableWeight(table, default=1.1),
    }


CASES = [
    (model, name)
    for model in ALL_MODELS
    for name in ("constant", "clamp_exp", "table")
]
CASE_IDS = [f"{m.kind}-{name}" for m, name in CASES]


def bits(vec):
    """Entries in key order, values as exact bit patterns."""
    return [(x, v.hex()) for x, v in vec.items()]


def operator(model, name, rng):
    return WeightedTranslation(model, random_element(model, rng, span=3), weights(model)[name])


@pytest.mark.parametrize("model,name", CASES, ids=CASE_IDS)
def test_apply_and_inverse_match_reference(model, name):
    rng = np.random.default_rng(11)
    for _ in range(4):
        op = operator(model, name, rng)
        f = random_vector(model, rng, max_points=6, span=4)
        for n in NS:
            assert bits(op.apply(f, n)) == bits(reference.apply(op, f, n))
            assert bits(op.apply_inv(f, n)) == bits(reference.apply_inv(op, f, n))


@pytest.mark.parametrize("model,name", CASES, ids=CASE_IDS)
def test_periodic_point_matches_reference(model, name):
    rng = np.random.default_rng(12)
    E = CompactSet.from_elements(model, [model.identity()])
    op = WeightedTranslation(model, random_element(model, rng, span=3), weights(model)[name])
    if op.a.is_identity:
        op = WeightedTranslation(model, model.element_units([1] * model.dim), op.weight)
    f = random_vector(model, rng, max_points=1, span=0)
    for n in NS:
        for t_max in (0, 1, 3):
            if n == 0:
                with pytest.raises(DynamicsError):
                    build_periodic_point(op, PHI, f, E, n, t_max)
                continue
            got = build_periodic_point(op, PHI, f, E, n, t_max)
            want = reference.build_periodic_point(op, PHI, f, E, n, t_max)
            assert bits(got.point) == bits(want.point)
            assert got.tail_bound.hex() == want.tail_bound.hex()


def test_periodic_point_on_a_box_matches_reference():
    model = GroupModel.heisenberg_int()
    op = WeightedTranslation(model, model.element([1, 0, 2]), weights(model)["clamp_exp"])
    K = CompactSet.box(model, [-1, -1, -1], [1, 1, 1])
    for n, t_max in [(3, 5), (8, 12)]:
        got = build_periodic_point(op, PHI, indicator(K), K, n, t_max, epsilon=10.0)
        want = reference.build_periodic_point(op, PHI, indicator(K), K, n, t_max, epsilon=10.0)
        assert bits(got.point) == bits(want.point)
        assert got.tail_bound.hex() == want.tail_bound.hex()


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_power_matches_product_loop(model):
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_element(model, rng, span=9)
        for n in (*range(-7, 8), 65, -65):
            assert a**n == reference.power(a, n)


def test_empty_vector():
    model = GroupModel.heisenberg_int()
    op = WeightedTranslation(model, model.element([1, 0, 2]), ConstantWeight(2.0))
    zero = OrliczVector.zero(model)
    for n in NS:
        assert bits(op.apply(zero, n)) == bits(reference.apply(op, zero, n)) == []
        assert bits(op.apply_inv(zero, n)) == bits(reference.apply_inv(op, zero, n)) == []
    E = CompactSet.box(model, [0, 0, 0], [0, 0, 0])
    got = build_periodic_point(op, PHI, zero, E, 2, 3)
    assert got.point.is_zero() and got.tail_bound == 0.0


def test_underflow_to_zero_stays_in_support():
    model = GroupModel.int_line()
    op = WeightedTranslation(model, model.element([1]), ConstantWeight(1e-200))
    f = OrliczVector(model, {model.element([0]): 1.0, model.element([3]): -2.0})
    image = op.apply(f, 2)
    assert bits(image) == bits(reference.apply(op, f, 2))
    assert set(image.items()) == {(model.element([2]), 0.0), (model.element([5]), -0.0)}
    assert bits(op.apply_inv(f, 2)) == bits(reference.apply_inv(op, f, 2))  # overflows to inf
    # the orbit of 0 underflows from its second step on, the orbit of 10 does not
    tiny = TableWeight({(1,): 1e-200, (2,): 1e-200}, default=1.0)
    op = WeightedTranslation(model, model.element([1]), tiny)
    E = CompactSet.from_elements(model, [model.element([0]), model.element([10])])
    got = build_periodic_point(op, PHI, indicator(E), E, 1, 4)
    want = reference.build_periodic_point(op, PHI, indicator(E), E, 1, 4)
    assert bits(got.point) == bits(want.point)
    assert got.tail_bound.hex() == want.tail_bound.hex()
    assert model.element([1]) in got.point.support
    assert model.element([2]) not in got.point.support


def test_periodic_point_whose_forward_tail_underflows():
    model = GroupModel.int_line()
    op = WeightedTranslation(model, model.element([1]), ConstantWeight(1e-200))
    E = CompactSet.from_elements(model, [model.element([0])])
    got = build_periodic_point(op, PHI, indicator(E), E, 1, 1)
    want = reference.build_periodic_point(op, PHI, indicator(E), E, 1, 1)
    assert bits(got.point) == bits(want.point)
    # T^2 chi_E underflows to 0.0, so only S chi_E (1e200 at -1) is left
    assert got.tail_bound == want.tail_bound == op.apply_inv(indicator(E)).luxemburg_norm(PHI)


def test_heisenberg_lattice_twist_raises_where_the_loop_does():
    model = GroupModel.heisenberg_lattice(0.5)
    op = WeightedTranslation(model, model.element_units([1, 1, 0]), ConstantWeight(2.0))
    even = OrliczVector.point_mass(model.element_units([2, 0, 0]))
    odd = OrliczVector.point_mass(model.element_units([3, 0, 0]))
    for f, n in [(even, 2), (even, 5), (odd, 1), (odd + even, 1)]:
        with pytest.raises(OffLatticeError) as want:
            reference.apply(op, f, n)
        with pytest.raises(OffLatticeError) as got:
            op.apply(f, n)
        assert str(got.value) == str(want.value)
    assert bits(op.apply(even, 1)) == bits(reference.apply(op, even, 1))
    for n in (0, 1):  # a^-1 itself leaves the lattice: a0 * a1 * h = 1/2
        with pytest.raises(OffLatticeError):
            reference.apply_inv(op, even, n)
        with pytest.raises(OffLatticeError):
            op.apply_inv(even, n)
    with pytest.raises(OffLatticeError):
        reference.power(op.a, 2)
    with pytest.raises(OffLatticeError):
        op.a**2


def test_disjointness_fires_at_the_same_n_and_t_max():
    model = GroupModel.int_line()
    op = WeightedTranslation(model, model.element([1]), ClampExpWeight(2.0, 0, -1.0, 1.0))
    E = CompactSet.from_elements(model, [model.element([0]), model.element([6])])
    f = indicator(E)
    fired = []
    for n in range(1, 8):
        for t_max in range(0, 6):
            try:
                want = reference.build_periodic_point(op, PHI, f, E, n, t_max)
            except DisjointnessViolatedError as exc:
                with pytest.raises(DisjointnessViolatedError, match=re.escape(str(exc))):
                    build_periodic_point(op, PHI, f, E, n, t_max)
                fired.append((n, t_max))
                continue
            got = build_periodic_point(op, PHI, f, E, n, t_max)
            assert bits(got.point) == bits(want.point)
            assert got.tail_bound.hex() == want.tail_bound.hex()
    assert (1, 3) in fired and (1, 2) not in fired and (7, 5) not in fired


def test_heisenberg_z_past_int64_is_exact():
    model = GroupModel.heisenberg_int()
    a = model.element_units([3 * 2**20, 2**21, 5])
    op = WeightedTranslation(model, a, ClampExpWeight(1.5, 2, -1.0, 1.0))
    f = OrliczVector(model, {model.element_units([7, -3, 11]): 1.0, model.identity(): 0.5})
    n = 5000
    got, want = op.apply(f, n), reference.apply(op, f, n)
    assert bits(got) == bits(want)
    assert max(x.units[2] for x in got.support) > 2**63
    assert bits(op.apply_inv(got, n)) == bits(reference.apply_inv(op, want, n))
    ends = model.orbit_units(model.units_array(f.support), a, [n])
    assert ends.dtype == object
    assert [tuple(u) for u in ends[:, 0].tolist()] == [x.units for x in want.support]
    assert a**n == reference.power(a, n)


def test_long_apply_memory_is_bounded():
    model = GroupModel.heisenberg_int()
    op = WeightedTranslation(model, model.element([1, 1, 0]), ClampExpWeight(2.0, 2, -1.0, 1.0))
    f = OrliczVector.point_mass(model.identity())
    tracemalloc.start()
    try:
        image = op.apply(f, 2 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert set(image.support) == {model.element([1, 1, 0]) ** (2 * 10**6)}


class CallOnly(Weight):
    """A rule with only ``__call__``, so every array formula is the default;
    its many distinct values show where np.log and math.log part."""

    def __call__(self, x):
        return 0.5 + (7919 * x.units[0] + 104729 * x.units[-1]) % 1000 / 400


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("name", ["constant", "clamp_exp", "table", "call_only"])
@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_orbit_logs_match_log_value(model, name, direction):
    weight = CallOnly() if name == "call_only" else weights(model)[name]
    points = CompactSet.box(model, [-2] * model.dim, [2] * model.dim).sorted_elements()
    a = model.element_units([1, 2, -1][: model.dim])
    step, js = (a, np.arange(1, 40)) if direction == "fwd" else (a.inverse(), np.arange(40))
    logs = weight.orbit_logs(model, model.units_array(points), step, js)
    powers = [step ** int(j) for j in js]
    want = [[weight.log_value(x * b) for b in powers] for x in points]
    if name == "clamp_exp":
        np.testing.assert_allclose(logs, want, rtol=1e-14, atol=1e-15)
    else:
        assert [[v.hex() for v in row] for row in logs.tolist()] == [
            [v.hex() for v in row] for row in want
        ]


@pytest.mark.parametrize("model,name", CASES, ids=CASE_IDS)
def test_cocycles_match_scalar_methods(model, name):
    # the log tables read at n, 2n, ... against the scalar oracle; products
    # and log sums round differently, so agreement is to 1e-12 relative
    rng = np.random.default_rng(14)
    op = operator(model, name, rng)
    points = [random_element(model, rng, span=4) for _ in range(5)]
    for n, count in [(1, 3), (7, 12), (65, 2)]:  # products, then past LOG_SPACE_SWITCH
        fwd, bwd = _log_tables(model, model.units_array(points), op.a, op.weight, count * n)
        for i, x in enumerate(points):
            for k in n * np.arange(1, count + 1):
                assert np.exp(fwd[i, k]) == pytest.approx(op.cocycle_fwd(int(k), x), rel=1e-12)
                assert np.exp(-bwd[i, k]) == pytest.approx(op.cocycle_bwd(int(k), x), rel=1e-12)


def worst_of(exc) -> float:
    return float(re.search(r"cocycle series (\S+) not below", str(exc)).group(1))


def test_not_chaotic_at_n_matches_reference():
    model = GroupModel.heisenberg_int()
    op = WeightedTranslation(model, model.element([1, 0, 2]), weights(model)["clamp_exp"])
    K = CompactSet.box(model, [-1, -1, -1], [1, 1, 1])
    for n, t_max in [(2, 20), (9, 8)]:  # series terms below and past 64 factors
        with pytest.raises(NotChaoticAtNError) as want:
            reference.build_periodic_point(op, PHI, indicator(K), K, n, t_max, epsilon=1e-9)
        with pytest.raises(NotChaoticAtNError) as got:
            build_periodic_point(op, PHI, indicator(K), K, n, t_max, epsilon=1e-9)
        # the table engine sums exp(log sums), the reference products: ~1 ulp apart
        assert worst_of(got.value) == pytest.approx(worst_of(want.value), rel=1e-12)


@pytest.mark.parametrize("model,name", CASES, ids=CASE_IDS)
def test_not_chaotic_decision_matches_reference(model, name):
    """Epsilon a hair below and above the reference's worst series: both
    engines raise below and build above."""
    a = model.element_units([3, 2, 1][: model.dim])  # moves x by 3: E's translates stay apart
    op = WeightedTranslation(model, a, weights(model)[name])
    E = CompactSet.from_elements(
        model, [model.element_units([u] + [0] * (model.dim - 1)) for u in (-1, 0, 1)]
    )
    f = indicator(E)
    for n, t_max in [(1, 8), (2, 20), (7, 12), (9, 8), (65, 2)]:
        worst = max(
            sum(op.cocycle_fwd(t * n, x) + op.cocycle_bwd(t * n, x) for t in range(1, t_max + 1))
            for x in E
        )
        for epsilon, raises in [(worst * (1 - 1e-9), True), (worst * (1 + 1e-9), False)]:
            for build in (reference.build_periodic_point, build_periodic_point):
                if raises:
                    with pytest.raises(NotChaoticAtNError):
                        build(op, PHI, f, E, n, t_max, epsilon=epsilon)
                else:
                    build(op, PHI, f, E, n, t_max, epsilon=epsilon)


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_weight_rules_on_units_match_call(model):
    if model.kind in ("lattice_line", "heisenberg_lattice"):
        model = GroupModel(model.kind, model.dim, 0.013)  # irregular real coordinates
    rng = np.random.default_rng(15)
    units = rng.integers(-400, 401, size=(3000, model.dim))
    points = model.elements(units)
    rules = list(weights(model).values()) + [
        ClampExpWeight(base, model.dim - 1, -2.3, 2.9) for base in (1.7, 3.14159, 0.37)
    ]
    for w in rules:
        assert [v.hex() for v in w.on_units(model, units).tolist()] == [
            w(x).hex() for x in points
        ]


def test_log_values_match_math_log():
    values = np.random.default_rng(16).uniform(0.01, 10.0, 20000)  # np.log differs on some
    want = [math.log(v).hex() for v in values.tolist()]
    assert [v.hex() for v in log_values(values).tolist()] == want


def test_rule_without_on_units_walks_through_call():
    class Parity(Weight):
        def __call__(self, x):
            return 0.75 if x.units[0] % 2 else 1.5

    model = GroupModel.int_lattice(2)
    op = WeightedTranslation(model, model.element([1, 2]), Parity())
    f = random_vector(model, np.random.default_rng(17), max_points=6)
    for n in NS:
        assert bits(op.apply(f, n)) == bits(reference.apply(op, f, n))
        assert bits(op.apply_inv(f, n)) == bits(reference.apply_inv(op, f, n))
