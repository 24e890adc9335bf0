"""Group models and random elements and vectors shared by the tests."""

import numpy as np

from orliczdyn.group import GroupElement, GroupModel
from orliczdyn.orlicz import OrliczVector

ALL_MODELS = [
    GroupModel.int_line(),
    GroupModel.int_lattice(2),
    GroupModel.heisenberg_int(),
    GroupModel.lattice_line(0.5),
    GroupModel.heisenberg_lattice(0.5),
]


def random_element(model: GroupModel, rng: np.random.Generator, span: int = 20) -> GroupElement:
    units = rng.integers(-span, span + 1, size=model.dim)
    if model.kind == "heisenberg_lattice":
        # even y-units keep the twist on the h=0.5 lattice (a subgroup)
        units[1] = 2 * (units[1] // 2)
    return model.element_units(units.tolist())


def random_vector(model, rng, max_points=8, span=20, scale=3.0):
    n = int(rng.integers(1, max_points + 1))
    entries = {}
    for _ in range(n):
        x = random_element(model, rng, span)
        entries[x] = float(rng.uniform(-scale, scale)) or 1.0
    return OrliczVector(model, entries)
