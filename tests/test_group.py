import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from samples import ALL_MODELS, random_element
from orliczdyn import group
from orliczdyn.group import (
    CompactSet,
    EmptySetError,
    GroupElement,
    GroupError,
    GroupModel,
    ModelMismatchError,
    OffLatticeError,
    aperiodicity_bound,
    row_index,
)
from orliczdyn.orlicz import OrliczVector

HEIS = GroupModel.heisenberg_int()
ZLINE = GroupModel.int_line()


class TestArithmetic:
    def test_heisenberg_product(self):
        a = HEIS.element([1, 2, 3])
        b = HEIS.element([4, 5, 6])
        assert (a * b).units == (5, 7, 14)  # z + z' + x*y' = 3 + 6 + 1*5

    def test_int_line_addition(self):
        assert (ZLINE.element([3]) * ZLINE.element([5])).units == (8,)

    def test_identity(self):
        rng = np.random.default_rng(0)
        for model in ALL_MODELS:
            e = model.identity()
            for _ in range(20):
                g = random_element(model, rng)
                assert g * e == g and e * g == g

    def test_heisenberg_inverse(self):
        a = HEIS.element([1, 0, 2])
        assert a.inverse().units == (-1, 0, -2)
        b = HEIS.element([2, 3, -1])
        assert (b * b.inverse()).is_identity
        assert (b.inverse() * b).is_identity

    def test_int_inverse(self):
        assert ZLINE.element([7]).inverse().units == (-7,)
        for model in ALL_MODELS:
            assert model.identity().inverse() == model.identity()

    def test_powers(self):
        a = HEIS.element([1, 0, 2])
        assert (a**2).units == (2, 0, 4)
        assert (a**-1).units == (-1, 0, -2)
        assert (a**0) == HEIS.identity()

    def test_power_matches_iterated_product(self):
        rng = np.random.default_rng(3)
        for model in ALL_MODELS:
            g = random_element(model, rng, span=4)
            acc = model.identity()
            for n in range(1, 9):
                acc = acc * g
                assert g**n == acc
                assert g**-n == acc.inverse()

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for model in ALL_MODELS:
            for _ in range(10_000):
                g, h, k = (random_element(model, rng, span=30) for _ in range(3))
                assert (g * h) * k == g * (h * k)
                assert (g * g.inverse()).is_identity
                assert g * model.identity() == g

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            ZLINE.element([1]) * GroupModel.int_lattice(2).element([1, 1])

    def test_real_coordinates(self):
        m = GroupModel.lattice_line(0.5)
        assert m.element([1.5]).units == (3,)
        assert m.element_units([3]).real == (1.5,)
        with pytest.raises(OffLatticeError):
            m.element([0.3])

    def test_integer_coordinates_are_exact(self):
        # a float quotient would round these to their even neighbours
        assert ZLINE.element([2**53 + 1]).units == (2**53 + 1,)
        assert HEIS.element([0, 0, 2**70 + 1]).units == (0, 0, 2**70 + 1)
        assert GroupModel.int_lattice(2).element([-(2**64) - 1, 3]).units == (-(2**64) - 1, 3)
        assert GroupModel.lattice_line(0.5).element([2**60 + 1]).units == (2**61 + 2,)
        assert GroupModel.lattice_line(0.1).element([10**20 + 1]).units == (10**21 + 10,)
        m = GroupModel.heisenberg_lattice(0.25)
        assert m.element([1, -2, 2**62 + 1]).units == (4, -8, 2**64 + 4)
        assert GroupModel.lattice_line(0.3).element([3]).units == (10,)
        with pytest.raises(OffLatticeError):
            GroupModel.lattice_line(0.3).element([1])

    def test_heisenberg_lattice_twist_exactness(self):
        m = GroupModel.heisenberg_lattice(0.5)
        ok = m.element_units([3, 2, 1])  # y even: twist x*y'*h stays integral
        assert (ok * ok).units == (6, 4, 2 + 3)  # twist 3*2*0.5 = 3
        bad = m.element_units([1, 1, 0])
        with pytest.raises(OffLatticeError):
            bad * bad


class TestCompactSets:
    def test_box_and_haar(self):
        K = CompactSet.box(ZLINE, [-3], [3])
        assert len(K) == 7 and K.measure == 7.0

    def test_lattice_cell_mass(self):
        m = GroupModel.lattice_line(0.5)
        K = CompactSet.box(m, [0.0], [1.5])  # units 0..3, 4 cells
        assert len(K) == 4 and K.measure == 2.0

    def test_heisenberg_lattice_mass(self):
        m = GroupModel.heisenberg_lattice(0.5)
        K = CompactSet.box(m, [0, 0, 0], [0.5, 0.5, 0.5])
        assert len(K) == 8 and K.measure == 8 * 0.125

    def test_empty(self):
        K = CompactSet.box(ZLINE, [2], [1])
        assert len(K) == 0 and K.measure == 0.0
        K = CompactSet.box(HEIS, [0, 0, 0], [3, -1, 3])
        assert K.units.shape == (0, 3) and list(K) == []

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_box_matches_product_enumeration(self, model):
        rng = np.random.default_rng(31)
        for _ in range(5):
            u0 = rng.integers(-4, 3, size=model.dim)
            u1 = u0 + rng.integers(0, 4, size=model.dim)
            h = model.h
            K = CompactSet.box(model, (u0 - 0.4) * h, (u1 + 0.4) * h)
            want = list(itertools.product(*[range(a, b + 1) for a, b in zip(u0, u1)]))
            assert K.units.dtype == np.int64
            assert [e.units for e in K] == want
            assert [tuple(u) for u in K.units.tolist()] == want

    def test_box_caps(self):
        with pytest.raises(GroupError, match="more than 2e6"):
            CompactSet.box(GroupModel.int_lattice(2), [0, 0], [1414, 1414])
        with pytest.raises(GroupError, match="more than 1e6"):
            CompactSet.box(ZLINE, [0], [10**6 + 1])

    def test_box_past_int64_is_exact(self):
        big = 2**63
        K = CompactSet.box(ZLINE, [big], [big + 4096])
        assert len(K) == 4097 and K.units.dtype == object
        assert K.units[:, 0].tolist() == list(range(big, big + 4097))
        K = CompactSet.box(HEIS, [-1, 0, big - 2048], [1, 0, big])  # z crosses 2^63 - 1
        zs = range(big - 2048, big + 1)
        assert [e.units for e in K] == [(x, 0, z) for x in (-1, 0, 1) for z in zs]
        assert HEIS.element_units((0, 0, big)) in K
        assert HEIS.element_units((0, 0, big + 1)) not in K

    def test_integer_box_bounds_are_exact(self):
        K = CompactSet.box(ZLINE, [2**64 + 1], [2**64 + 3])
        assert K.units[:, 0].tolist() == [2**64 + 1, 2**64 + 2, 2**64 + 3]
        K = CompactSet.box(GroupModel.lattice_line(0.5), [2**60 + 1], [2**60 + 2])
        assert K.units[:, 0].tolist() == list(range(2**61 + 2, 2**61 + 5))
        K = CompactSet.box(HEIS, [0, 0, 2**70 + 1], [0, 0, 2**70 + 1])
        assert [e.units for e in K] == [(0, 0, 2**70 + 1)]
        # h = 0.3 reads as 3/10, so the bounds are -10/3 and 10/3 units
        K = CompactSet.box(GroupModel.lattice_line(0.3), [-1], [1])
        assert K.units[:, 0].tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_from_elements_sorts_and_drops_repeats(self):
        rng = np.random.default_rng(6)
        for model in ALL_MODELS:
            pts = [random_element(model, rng, span=2) for _ in range(30)]
            K = CompactSet.from_elements(model, pts)
            assert [e.units for e in K] == sorted({x.units for x in pts})
            assert [e.units for e in CompactSet.from_elements(model, pts[::-1])] == [
                e.units for e in K
            ]

    def test_right_invariance(self):
        rng = np.random.default_rng(5)
        for model in ALL_MODELS:
            pts = [random_element(model, rng, span=6) for _ in range(15)]
            K = CompactSet.from_elements(model, pts)
            for _ in range(10):
                a = random_element(model, rng, span=10)
                for n in (-3, -1, 1, 2, 5):
                    assert K.translate(a**n).measure == K.measure

    def test_membership_and_subset(self):
        K = CompactSet.box(ZLINE, [-2], [2])
        E = CompactSet.box(ZLINE, [-1], [1])
        assert ZLINE.element([0]) in K and ZLINE.element([3]) not in K
        assert GroupModel.lattice_line(0.5).element([0]) not in K
        assert E.issubset(K) and not K.issubset(E)
        assert CompactSet.from_elements(ZLINE, []).issubset(E)

    def test_constructor_sorts_and_drops_repeats(self):
        K = CompactSet(ZLINE, np.array([[1], [1], [0]]))
        assert len(K) == 2 and K.measure == 2.0
        assert K.units.tolist() == [[0], [1]]
        assert OrliczVector.indicator(K).value(ZLINE.element([1])) == 1.0

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_cell_width_must_be_positive_and_finite(self, h):
        for make in (GroupModel.lattice_line, GroupModel.heisenberg_lattice):
            with pytest.raises(GroupError, match="positive and finite"):
                make(h)

    def test_unit_entries(self):
        units, values = group.unit_entries([[[2, 0], 1], [(-1, 5), 0.5]])
        assert units.tolist() == [[-1, 5], [2, 0]] and units.dtype == np.int64
        assert values.tolist() == [0.5, 1.0] and values.dtype == np.float64
        big = 2**70
        units, _ = group.unit_entries({(big,): 2.0, (0,): 1.0}.items(), dim=1)
        assert units.dtype == object and units.tolist() == [[0], [big]]
        assert group.unit_entries([], dim=3)[0].shape == (0, 3)
        for entries, dim in [
            ([[[0], 1.0], [[0, 1], 1.0]], None),  # mixed key lengths
            ([[[0], 1.0]], 2),  # not the model's dimension
            ([[[0], 1.0], [[0], 2.0]], None),  # repeated key
            ([[[], 1.0]], None),
            ([[[np.float64(1.0)], 1.0]], None),
            ([[[0], "1"]], None),
            ([[[0], False]], None),
            ([[[0], math.nan]], None),
            ([[[0], math.inf]], None),
            ([[[0], -math.inf]], None),
        ]:
            with pytest.raises(GroupError):
                group.unit_entries(entries, dim)




class TestAperiodicity:
    def test_int_line_bound(self):
        K = CompactSet.box(ZLINE, [-3], [3])
        cert = aperiodicity_bound(ZLINE.element([1]), K, 100)
        assert cert.status == "aperiodic" and cert.bound == 6

    def test_bound_matches_brute_force(self):
        K = CompactSet.box(ZLINE, [-3], [3])
        a = ZLINE.element([2])
        cert = aperiodicity_bound(a, K, 60)
        hits = [
            n
            for n in range(1, 61)
            for an in [a**n]
            if not set(K).isdisjoint(K.translate(an))
            or not set(K).isdisjoint(K.translate(an.inverse()))
        ]
        assert cert.bound == max(hits)
        for n in range(cert.bound + 1, 61):
            an = a**n
            assert set(K).isdisjoint(K.translate(an))
            assert set(K).isdisjoint(K.translate(an.inverse()))

    def test_identity_is_periodic(self):
        K = CompactSet.box(ZLINE, [-3], [3])
        assert aperiodicity_bound(ZLINE.element([0]), K, 50).status == "periodic"

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_periodic_only_for_the_identity(self, model):
        # every model's group is torsion-free: no power of a != e is e
        rng = np.random.default_rng(21)
        K = CompactSet.box(model, [-2] * model.dim, [2] * model.dim)
        assert aperiodicity_bound(model.identity(), K, 30).status == "periodic"
        for _ in range(40):
            a = random_element(model, rng, span=3)
            if not a.is_identity:
                assert aperiodicity_bound(a, K, 30).status != "periodic"

    def test_heisenberg_example_bound(self):
        K = CompactSet.box(HEIS, [-3, -3, -3], [3, 3, 3])
        cert = aperiodicity_bound(HEIS.element([1, 0, 2]), K, 100)
        assert cert.status == "aperiodic" and cert.bound == 3

    def test_not_within_bound(self):
        K = CompactSet.box(ZLINE, [-3], [3])
        cert = aperiodicity_bound(ZLINE.element([1]), K, 5)
        assert cert.status == "not_within_bound"

    def test_z_caps_only_when_a1_is_zero(self):
        # a_1 = 1: the twist x * n moves z back by n at x = -1, so every
        # translate keeps z = 0 and a z cap (width 0) would stop at n = 2
        K = CompactSet.from_elements(HEIS, [HEIS.element_units((-1, y, 0)) for y in range(11)])
        a = HEIS.element_units((0, 1, 1))
        cert = aperiodicity_bound(a, K, 20)
        assert cert == reference.aperiodicity_bound(a, K, 20)
        assert cert.status == "aperiodic" and cert.bound == 10

    def test_scan_stops_at_projection_cap(self, monkeypatch):
        # caps: x 12 // 1, z 12 // 2 (a_1 = 0); so n <= 6 of 256 are tested
        tested, products = [], []
        row_index = group.row_index
        mul = GroupElement.__mul__
        monkeypatch.setattr(group, "row_index", lambda *args: tested.append(1) or row_index(*args))
        monkeypatch.setattr(GroupElement, "__mul__", lambda *args: products.append(1) or mul(*args))
        K = CompactSet.box(HEIS, [-6] * 3, [6] * 3)
        cert = aperiodicity_bound(HEIS.element_units((1, 0, 2)), K, 256)
        assert cert.status == "aperiodic" and cert.bound == 6
        assert len(tested) <= 6
        assert products

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            aperiodicity_bound(ZLINE.element([1]), CompactSet.box(ZLINE, [2], [1]), 10)

    def test_blocks_bound_the_orbit_arrays(self, monkeypatch):
        # 13 * 13 * 41 points: blocks of 4 steps, and the z cap is 40
        asked = []
        orbit_units = GroupModel.orbit_units

        def counting(model, units, b, j):
            asked.append(np.size(j))
            return orbit_units(model, units, b, j)

        monkeypatch.setattr(GroupModel, "orbit_units", counting)
        K = CompactSet.box(HEIS, [-6, -6, -20], [6, 6, 20])
        cert = aperiodicity_bound(HEIS.element_units((0, 0, 1)), K, 1000)
        assert cert.status == "aperiodic" and cert.bound == 40
        assert len(asked) >= 10 and max(asked) <= max(1, group.ORBIT_BLOCK_CELLS // len(K))

    def test_sparse_set_at_a_large_cap(self):
        # the only hit is 0 + 20000 at n = 20000, in the scan's second block
        K = CompactSet.from_elements(ZLINE, [ZLINE.element([0]), ZLINE.element([20000])])
        a = ZLINE.element([1])
        for n_max in (20000, 20001):
            assert aperiodicity_bound(a, K, n_max) == reference.aperiodicity_bound(a, K, n_max)
        assert aperiodicity_bound(a, K, 20001).bound == 20000


def _scan_outcome(scan, a, K, n_max):
    try:
        return scan(a, K, n_max)
    except GroupError as exc:
        return type(exc), str(exc)


def _random_scan_case(model, rng):
    """A random K of 1-30 points and a random a, both on the sublattice of
    a random stride, so translates meet K often and lattice twists both
    stay on and leave the lattice."""
    stride = int(rng.choice([1, 1, 2, 3]))
    span = int(rng.integers(1, 6))
    pts = rng.integers(-span, span + 1, size=(int(rng.integers(1, 31)), model.dim))
    K = CompactSet.from_elements(model, [model.element_units(p) for p in (pts * stride).tolist()])
    a = model.element_units((rng.integers(-2, 3, size=model.dim) * stride).tolist())
    return a, K


class TestAperiodicityMatchesReference:
    """The capped array scan against the full scalar loop it replaced: same
    certificate, or the same exception with the same message (5,040 random
    cases)."""

    @pytest.mark.parametrize(
        "seed,model",
        enumerate(ALL_MODELS + [GroupModel.heisenberg_lattice(1 / 3)]),
        ids=lambda v: f"{v.kind}-{v.h:.3g}" if isinstance(v, GroupModel) else str(v),
    )
    def test_random_sets(self, seed, model):
        rng = np.random.default_rng(seed)
        seen = set()
        for n_max in (1, 2, 3, 7, 20, 60):
            for _ in range(140):
                a, K = _random_scan_case(model, rng)
                want = _scan_outcome(reference.aperiodicity_bound, a, K, n_max)
                assert _scan_outcome(aperiodicity_bound, a, K, n_max) == want
                seen.add(want.status if hasattr(want, "status") else want[0])
        assert {"aperiodic", "not_within_bound", "periodic"} <= seen
        if model.kind == "heisenberg_lattice":
            assert OffLatticeError in seen

    def test_heisenberg_past_int64(self):
        big = 2**63
        K = CompactSet.from_elements(
            HEIS,
            [
                HEIS.element_units((x, y, big + z))
                for x in range(-2, 3)
                for y in (0, 1)
                for z in (-1, 0, 1)
            ],
        )
        bounds = set()
        for a_units in [(0, 1, 0), (1, 0, 1), (1, 1, big), (1, 0, -big), (2, 3, 0)]:
            a = HEIS.element_units(a_units)
            for n_max in (1, 7, 20):
                want = reference.aperiodicity_bound(a, K, n_max)
                assert aperiodicity_bound(a, K, n_max) == want
                bounds.add(want.bound)
        assert {0, 1} <= bounds  # some translates meet K, some do not

    def test_model_mismatch_message(self):
        K = CompactSet.box(GroupModel.lattice_line(0.5), [-1], [1])
        a = ZLINE.element([1])
        want = _scan_outcome(reference.aperiodicity_bound, a, K, 5)
        assert want[0] is ModelMismatchError
        assert _scan_outcome(aperiodicity_bound, a, K, 5) == want

    @pytest.mark.parametrize("cells", [1, 7, 40])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_small_blocks(self, monkeypatch, model, cells):
        # blocks of a few steps, so a hit or an error can fall in any block
        monkeypatch.setattr(group, "ORBIT_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        for _ in range(60):
            a, K = _random_scan_case(model, rng)
            want = _scan_outcome(reference.aperiodicity_bound, a, K, 20)
            assert _scan_outcome(aperiodicity_bound, a, K, 20) == want


class TestRowIndex:
    KEYS = np.array([[0, 0], [2, -1], [1, 3]])

    def test_matches_and_misses(self):
        rows = np.array([[1, 3], [5, 5], [0, 0], [2, 0], [2, -1]])
        assert row_index(rows, self.KEYS).tolist() == [2, -1, 0, -1, 1]

    def test_empty_keys(self):
        rows = np.array([[1, 3], [0, 0]])
        assert row_index(rows, np.zeros((0, 2), dtype=np.int64)).tolist() == [-1, -1]

    def test_empty_rows(self):
        out = row_index(np.zeros((0, 2), dtype=np.int64), self.KEYS)
        assert out.shape == (0,) and out.dtype == np.int64

    def test_rows_outside_the_box(self):
        rows = np.array([[3, 0], [-1, 0], [0, 4], [0, -2]])
        assert row_index(rows, self.KEYS).tolist() == [-1] * 4

    def test_object_rows(self):
        big = 2**70
        rows = np.array([[1, 3], [big, 0], [0, -big], [2, -1]], dtype=object)
        assert row_index(rows, self.KEYS).tolist() == [2, -1, -1, 1]
        keys = np.array([[big, 1], [0, 0]], dtype=object)
        rows = np.array([[big, 1], [big + 1, 1], [0, 0], [big, 0]], dtype=object)
        assert row_index(rows, keys).tolist() == [0, -1, 1, -1]

    @staticmethod
    def oracle(rows, keys):
        where = {tuple(k): i for i, k in enumerate(keys.tolist())}
        return [where.get(tuple(r), -1) for r in rows.tolist()]

    def test_matches_a_dict_oracle(self):
        # strides up to 2^60 make boxes whose volume overflows int64
        rng = np.random.default_rng(17)
        volumes = set()
        for _ in range(400):
            d = int(rng.integers(1, 4))
            stride = int(rng.choice([1, 3, 2**31, 2**60]))
            keys = np.unique(rng.integers(-3, 4, size=(int(rng.integers(1, 30)), d)), axis=0)
            keys = keys[rng.permutation(len(keys))] * stride
            # past the box on every side, and one unit off a key
            rows = rng.integers(-4, 5, size=(int(rng.integers(0, 60)), d)) * stride
            rows += rng.integers(-1, 2, size=rows.shape) * (rng.random(rows.shape) < 0.2)
            assert row_index(rows, keys).tolist() == self.oracle(rows, keys)
            for r, k in [(rows.astype(object), keys), (rows, keys.astype(object))]:
                assert row_index(r, k).tolist() == self.oracle(rows, keys)
            span = (keys.max(axis=0) - keys.min(axis=0)).astype(object) + 1
            volumes.add(math.prod(span.tolist()) > 2**63 - 1)
        assert volumes == {False, True}

    def test_box_volume_past_int64(self):
        big = 2**40
        keys = np.array([[big, big], [0, 0]])
        rows = np.array([[0, 0], [big, big], [0, big], [big, 0], [1, 0], [big + 1, 0], [0, 1]])
        assert row_index(rows, keys).tolist() == [1, 0, -1, -1, -1, -1, -1]
        assert row_index(rows.astype(object), keys).tolist() == [1, 0, -1, -1, -1, -1, -1]

    def test_object_keys_in_a_small_box(self):
        big = 2**70
        keys = np.array([[big + 1, 5], [big, 0]], dtype=object)
        rows = np.array([[big, 0], [big + 1, 5], [big, 5], [0, 0]], dtype=object)
        assert row_index(rows, keys).tolist() == [1, 0, -1, -1]
        assert row_index(np.array([[0, 0], [1, 5]]), keys).tolist() == [-1, -1]


HASH_SEED_PROBE = """
import json
from orliczdyn.group import CompactSet, GroupError, GroupModel, aperiodicity_bound
from orliczdyn.orlicz import OrliczVector
from orliczdyn.young import PowerYoung

model = GroupModel.heisenberg_lattice(1 / 3)
try:
    aperiodicity_bound(
        model.element_units((0, 1, 0)), CompactSet.box(model, [-2 / 3] * 3, [2 / 3] * 3), 5
    )
    message = None
except GroupError as exc:
    message = str(exc)
heis = GroupModel.heisenberg_int()
K = CompactSet.box(heis, [-3] * 3, [3] * 3)
print(json.dumps({
    "message": message,
    "order": [e.units for e in K],
    "norm": OrliczVector.indicator(K).luxemburg_norm(PowerYoung(2.0)).hex(),
}))
"""


def test_results_do_not_depend_on_the_hash_seed():
    src = str(Path(group.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outs.append(json.loads(run.stdout))
    assert outs[0]["message"] == "Heisenberg twist -2*1*h leaves the lattice"
    assert len(outs[0]["order"]) == 343
    assert outs[1] == outs[0] and outs[2] == outs[0]
