import numpy as np
import pytest

import reference
from samples import ALL_MODELS, random_element
from orliczdyn.group import (
    CompactSet,
    EmptySetError,
    GroupError,
    GroupModel,
    ModelMismatchError,
    OffLatticeError,
    aperiodicity_bound,
    haar,
    row_index,
)

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
        assert len(K) == 7 and haar(K) == 7.0

    def test_lattice_cell_mass(self):
        m = GroupModel.lattice_line(0.5)
        K = CompactSet.box(m, [0.0], [1.5])  # units 0..3, 4 cells
        assert len(K) == 4 and haar(K) == 2.0

    def test_heisenberg_lattice_mass(self):
        m = GroupModel.heisenberg_lattice(0.5)
        K = CompactSet.box(m, [0, 0, 0], [0.5, 0.5, 0.5])
        assert len(K) == 8 and haar(K) == 8 * 0.125

    def test_empty(self):
        K = CompactSet.box(ZLINE, [2], [1])
        assert len(K) == 0 and haar(K) == 0.0

    def test_right_invariance(self):
        rng = np.random.default_rng(5)
        for model in ALL_MODELS:
            pts = [random_element(model, rng, span=6) for _ in range(15)]
            K = CompactSet.from_elements(model, pts)
            for _ in range(10):
                a = random_element(model, rng, span=10)
                for n in (-3, -1, 1, 2, 5):
                    assert haar(K.translate(a**n)) == haar(K)

    def test_membership_and_subset(self):
        K = CompactSet.box(ZLINE, [-2], [2])
        E = CompactSet.box(ZLINE, [-1], [1])
        assert ZLINE.element([0]) in K
        assert E.issubset(K) and not K.issubset(E)


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
            if not K.elements.isdisjoint(K.translate(an).elements)
            or not K.elements.isdisjoint(K.translate(an.inverse()).elements)
        ]
        assert cert.bound == max(hits)
        for n in range(cert.bound + 1, 61):
            an = a**n
            assert K.elements.isdisjoint(K.translate(an).elements)
            assert K.elements.isdisjoint(K.translate(an.inverse()).elements)

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

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            aperiodicity_bound(ZLINE.element([1]), CompactSet.box(ZLINE, [2], [1]), 10)


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
    """The array scan against the scalar loop it replaced: same certificate,
    or the same exception with the same message."""

    @pytest.mark.parametrize(
        "seed,model",
        enumerate(ALL_MODELS + [GroupModel.heisenberg_lattice(1 / 3)]),
        ids=lambda v: f"{v.kind}-{v.h:.3g}" if isinstance(v, GroupModel) else str(v),
    )
    def test_random_sets(self, seed, model):
        rng = np.random.default_rng(seed)
        seen = set()
        for n_max in (1, 2, 3, 7, 20, 60):
            for _ in range(25):
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


class TestConfig:
    def test_from_config(self):
        assert GroupModel.from_config({"kind": "heisenberg_int"}) == HEIS
        assert GroupModel.from_config({"kind": "int_lattice", "d": 2}).dim == 2
        assert GroupModel.from_config({"kind": "lattice_line", "h": 0.5}).h == 0.5

    def test_bad_kind(self):
        with pytest.raises(GroupError):
            GroupModel.from_config({"kind": "free_group"})
