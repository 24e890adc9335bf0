"""Seeded generator of scenario documents in the CLI's JSON schema.

Every workload is a list of templates.  A template fixes what drives a
scenario's cost (group model, size of K, n_max, powers, t_max, weight
rule, mode) and its intended verdict; the seed only perturbs values that
leave the cost alone (signs of `a`, clamp windows, bases, epsilon, table
values).  Documents come in blocks that hold each template once, in a
seeded order, so any whole number of blocks has the same template mix
for every seed.

A constructions document that asks for a periodic point is an ordinary
`chaotic` document with one extra section, `"periodic_point": {"n": ...}`;
`cli.parse_config` ignores it.  A chaos_batch entry is a batch of four
chaos documents for one `orliczdyn check` call.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("transitive_scan", "constructions", "chaos_batch")
BATCH = 4  # chaos_batch documents per `orliczdyn check` call

_CUSTOM_SAMPLES = [
    [0.0, 0.0],
    [0.5, 0.125],
    [1.0, 0.5],
    [2.0, 2.0],
    [4.0, 8.0],
    [8.0, 32.0],
    [16.0, 128.0],
    [64.0, 2048.0],
]


def _box(hw, dim, h=1.0):
    return {"box": {"lo": [-hw * h] * dim, "hi": [hw * h] * dim}}


def _clamp(rng, coord, window="decay"):
    """A clamp_exp weight; "decay" gives sup w > 1, "flat" gives sup w = 1."""
    lo = 0.0 if window == "flat" else rng.choice([-1.0, -1.5])
    return {
        "rule": "clamp_exp",
        "base": rng.choice([2.0, 2.5, 3.0]),
        "coord": coord,
        "lo": lo,
        "hi": rng.choice([1.0, 1.5]),
    }


def _table(rng, hw, dim):
    """Table weight on a cube of lattice units around the origin."""
    entries = []
    cube = [[i] for i in range(-hw, hw + 1)]
    for _ in range(dim - 1):
        cube = [u + [i] for u in cube for i in range(-hw, hw + 1)]
    for units in cube:
        entries.append([units, rng.choice([0.5, 0.8, 1.25, 2.0])])
    return {"rule": "table", "entries": entries, "default": 1.0}


def _young(rng, family):
    if family == "power":
        return {"family": "power", "p": rng.choice([1.5, 2.0, 3.0])}
    if family == "powerlog":
        return {"family": "powerlog", "alpha": rng.choice([1.5, 2.0])}
    return {"family": "custom", "samples": _CUSTOM_SAMPLES}


def _doc(mode, group, young, a, weights, powers, K, epsilon, n_max, **extra):
    doc = {
        "mode": mode,
        "group": group,
        "young": young,
        "a": a,
        "weights": weights,
        "powers": powers,
        "K": K,
        "epsilon": epsilon,
        "n_max": n_max,
    }
    doc.update(extra)
    return doc


HEIS = {"kind": "heisenberg_int"}
HEIS_LAT = {"kind": "heisenberg_lattice", "h": 0.5}
LAT3 = {"kind": "int_lattice", "d": 3}
LAT2 = {"kind": "int_lattice", "d": 2}


def _pm(rng):
    return rng.choice([-1, 1])


# --- transitive_scan: large K, clamp_exp weights, refusal diagnostics on.
# Scenario cost is mostly |K| * n_max group products in the aperiodicity scan.


def _ts_heis_transitive(rng):
    w = _clamp(rng, 2)
    return _doc("disjoint_transitive", HEIS, _young(rng, "power"), [_pm(rng), 0, 2],
                [w, w, w], [1, 2, 3], _box(6, 3), rng.choice([1e-3, 1e-4]), 24)


def _ts_heis_mixing(rng):
    w = _clamp(rng, 2)
    return _doc("disjoint_mixing", HEIS, _young(rng, "power"), [_pm(rng), 0, 3],
                [w, w], [1, 2], _box(5, 3), rng.choice([1e-3, 1e-4]), 40)


def _ts_lattice_same_weight(rng):
    w = _clamp(rng, 0)
    return _doc("same_weight", LAT3, _young(rng, "power"), [1, _pm(rng), 0], [w, w],
                [1, 2], _box(4, 3), rng.choice([1e-3, 1e-4]), 28)


def _ts_heis_lattice_deficit(rng):
    w = _clamp(rng, 2)
    return _doc("disjoint_transitive", HEIS_LAT, _young(rng, "power"), [0.5, 0.0, 1.0],
                [w, w], [1, 2], _box(4, 3, 0.5), rng.choice([1e-3, 1e-4]), 40,
                e_k_deficit_cap=0.5)


def _ts_heis_slow_decay(rng):
    """base close to 1: the products stay above epsilon up to n_max."""
    w = {"rule": "clamp_exp", "base": rng.choice([1.02, 1.05]), "coord": 2,
         "lo": -1.0, "hi": 1.0}
    return _doc("disjoint_transitive", HEIS, _young(rng, "power"), [_pm(rng), 0, 2],
                [w, w], [1, 2], _box(6, 3), 1e-6, 24)


def _ts_lattice_flat_weight(rng):
    """sup w = 1 on one weight: refused after the full scan."""
    return _doc("disjoint_mixing", LAT3, _young(rng, "power"), [_pm(rng), 0, 1],
                [_clamp(rng, 2), _clamp(rng, 2, "flat")], [1, 2], _box(5, 3), 1e-3, 40)


# --- constructions: witnesses and periodic points, clamp_exp/constant weights.


def _co_witness_heis(rng):
    w = _clamp(rng, 2)
    return _doc("witness", HEIS, _young(rng, "power"), [_pm(rng), 0, 2],
                [w, w], [1, 2], _box(1, 3), 1e-3, 32, witness={"n": 80})


def _co_witness_constant(rng):
    """Constant weights never decay: not verified, built at witness.n."""
    c = rng.choice([1.1, 1.2])
    return _doc("witness", LAT2, _young(rng, "powerlog"), [1, _pm(rng)],
                [{"rule": "constant", "c": c}, _clamp(rng, 0)], [1, 2], _box(3, 2),
                1e-3, 16, witness={"n": 64})


def _co_periodic_heis(rng):
    return _doc("chaotic", HEIS, _young(rng, "power"), [_pm(rng), 0, 2], [_clamp(rng, 2)],
                [1], _box(1, 3), 1e-3, 16, t_max=50, periodic_point={"n": 8})


def _co_periodic_lattice_custom(rng):
    return _doc("chaotic", HEIS_LAT, _young(rng, "custom"), [0.5, 0.0, 1.0],
                [_clamp(rng, 2)], [1], _box(1, 3, 0.5), 1e-3, 16, t_max=40,
                periodic_point={"n": 8})


def _co_periodic_plane_powerlog(rng):
    return _doc("chaotic", LAT2, _young(rng, "powerlog"), [1, _pm(rng)], [_clamp(rng, 0)],
                [1], _box(2, 2), 1e-3, 16, t_max=50, periodic_point={"n": 6})


def _co_periodic_short_tail(rng):
    """Few orbit terms: the tail bound sits well above rounding."""
    return _doc("chaotic", LAT3, _young(rng, "power"), [7, 0, 0], [_clamp(rng, 0)],
                [1], _box(3, 3), 1e-3, 16, t_max=12, periodic_point={"n": 1})


# --- chaos_batch: small K, table weights mixed with clamp_exp, t_max 20-50,
# run four to an `orliczdyn check` call.


def _cb_heis_table(rng):
    return _doc("chaotic", HEIS, _young(rng, "power"), [_pm(rng), 0, 2],
                [_table(rng, 3, 3)], [1], _box(1, 3), 1e-3, 16, t_max=20)


def _cb_heis_table_clamp(rng):
    return _doc("disjoint_chaotic", HEIS, _young(rng, "power"), [0, _pm(rng), 2],
                [_table(rng, 2, 3), _clamp(rng, 2)], [1, 2], _box(1, 3), 1e-3, 4,
                t_max=50)


def _cb_lattice_clamp_table(rng):
    return _doc("disjoint_chaotic", LAT2, _young(rng, "power"), [_pm(rng), 1],
                [_clamp(rng, 1), _table(rng, 6, 2)], [1, 2], _box(1, 2), 1e-3, 8,
                t_max=30)


def _cb_heis_clamp_pair(rng):
    w = _clamp(rng, 2)
    return _doc("disjoint_chaotic", HEIS, _young(rng, "power"), [_pm(rng), 0, 2],
                [w, w], [1, 2], _box(1, 3), 1e-3, 24, t_max=40)


def _cb_heis_lattice_clamp(rng):
    return _doc("chaotic", HEIS_LAT, _young(rng, "power"), [0.5, 0.0, 1.0],
                [_clamp(rng, 2)], [1], _box(2, 3, 0.5), 1e-3, 32, t_max=50)


# name -> (document function, intended verdict)
TEMPLATES = {
    "transitive_scan": {
        "heis_transitive": (_ts_heis_transitive, "verified"),
        "heis_mixing": (_ts_heis_mixing, "verified"),
        "lattice_same_weight": (_ts_lattice_same_weight, "verified"),
        "heis_lattice_deficit": (_ts_heis_lattice_deficit, "verified"),
        "heis_slow_decay": (_ts_heis_slow_decay, "not_verified_within_bound"),
        "lattice_flat_weight": (_ts_lattice_flat_weight, "refused"),
    },
    "constructions": {
        "witness_heis": (_co_witness_heis, "verified"),
        "witness_constant": (_co_witness_constant, "not_verified_within_bound"),
        "periodic_heis": (_co_periodic_heis, "periodic_point"),
        "periodic_lattice_custom": (_co_periodic_lattice_custom, "periodic_point"),
        "periodic_plane_powerlog": (_co_periodic_plane_powerlog, "periodic_point"),
        "periodic_short_tail": (_co_periodic_short_tail, "periodic_point"),
    },
    "chaos_batch": {
        "heis_table": (_cb_heis_table, "not_verified_within_bound"),
        "heis_table_clamp": (_cb_heis_table_clamp, "not_verified_within_bound"),
        "lattice_clamp_table": (_cb_lattice_clamp_table, "not_verified_within_bound"),
        "heis_clamp_pair": (_cb_heis_clamp_pair, "verified"),
        "heis_lattice_clamp": (_cb_heis_lattice_clamp, "verified"),
    },
}


def generate(workload: str, seed: int, blocks: int) -> list:
    """`blocks` blocks of (label, document) pairs for one workload.

    A block holds every template of the workload once, in a seeded order.
    For chaos_batch a block is five calls of BATCH documents that hold
    every template four times; the label joins their template names.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    templates = TEMPLATES[workload]
    out = []
    for _ in range(blocks):
        names = list(templates)
        if workload == "chaos_batch":
            names *= BATCH
        rng.shuffle(names)
        docs = [(name, templates[name][0](rng)) for name in names]
        if workload != "chaos_batch":
            out += docs
            continue
        for i in range(0, len(docs), BATCH):
            batch = docs[i : i + BATCH]
            out.append(("+".join(name for name, _ in batch), [doc for _, doc in batch]))
    return out


def dumps(doc) -> str:
    """Canonical document text: the bytes the CLI reads."""
    return json.dumps(doc, sort_keys=True)
