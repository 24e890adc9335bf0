"""Acceptance suite: each criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values are
frozen from independent oracles (closed forms, direct products, direct
summation); tolerances and runtime budgets are asserted as stated.
"""

import math
import time

import numpy as np
import pytest

from samples import ALL_MODELS, random_element, random_vector
from orliczdyn.dynamics import (
    Scenario,
    VERDICT_NOT_VERIFIED,
    VERDICT_REFUSED,
    build_periodic_point,
    build_witness,
    check_chaotic,
    check_disjoint_mixing,
    check_disjoint_transitive,
    check_same_weight,
    verify_witness,
)
from orliczdyn.group import CompactSet, GroupModel
from orliczdyn.orlicz import OrliczVector
from orliczdyn.translation import ClampExpWeight, ConstantWeight, TableWeight, WeightedTranslation
from orliczdyn.young import PowerLogYoung, PowerYoung

ZLINE = GroupModel.int_line()
HEIS = GroupModel.heisenberg_int()
STEP = ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0)
HSTEP = ClampExpWeight(base=2.0, coord=2, lo=-1.0, hi=1.0)


def _verdict(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d} ({name}): {status}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} ({name}) exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_indicator_norm_formula():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for phi in [PowerYoung(1.0), PowerYoung(2.0), PowerYoung(3.0), PowerLogYoung(2.0)]:
        for _ in range(50):
            pts = {int(p) for p in rng.integers(-50, 51, size=int(rng.integers(1, 30)))}
            K = CompactSet.from_elements(ZLINE, [ZLINE.element([p]) for p in pts])
            lhs = OrliczVector.indicator(K).luxemburg_norm(phi)
            rhs = 1.0 / phi.inverse(1.0 / K.measure)
            ok &= abs(lhs - rhs) <= 1e-9
    _verdict(1, "indicator norm formula", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_translation_invariance():
    rng = np.random.default_rng(102)
    phi = PowerYoung(2.0)
    t0 = time.perf_counter()
    ok = True
    for model in ALL_MODELS:
        for _ in range(1000):
            f = random_vector(model, rng)
            a = random_element(model, rng)
            n0 = f.luxemburg_norm(phi)
            n1 = f.translate(a).luxemburg_norm(phi)
            ok &= abs(n0 - n1) <= 1e-10 * (1.0 + n0)
    _verdict(2, "translation invariance of the norm", ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_operator_identities():
    rng = np.random.default_rng(103)
    ops = [
        WeightedTranslation(ZLINE, ZLINE.element([1]), STEP),
        WeightedTranslation(HEIS, HEIS.element([1, 0, 2]), HSTEP),
    ]
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        op = ops[i % 2]
        f = random_vector(op.model, rng)
        n = int(rng.integers(1, 5))
        for g in (op.apply(op.apply_inv(f, n), n), op.apply_inv(op.apply(f, n), n)):
            ok &= set(g.support) == set(f.support)
            ok &= all(abs(g.value(x) - v) <= 1e-12 * abs(v) for x, v in f.items())
    _verdict(3, "T S = id and S T = id", ok, time.perf_counter() - t0, 2.0)


def test_criterion_04_young_inequality_grid():
    t0 = time.perf_counter()
    ok = True
    xs = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    for phi in [PowerYoung(2.0), PowerYoung(3.0)]:
        psi = np.array([phi.conjugate(float(y)) for y in xs])
        phix = phi.values(xs)
        gap = phix[:, None] + psi[None, :] + 1e-6 - np.outer(xs, xs)
        ok &= bool(np.all(gap >= 0.0))
    _verdict(4, "numeric Young inequality on the grid", ok, time.perf_counter() - t0, 5.0)


def heisenberg_scenario():
    return Scenario(
        model=HEIS,
        phi=PowerYoung(2.0),
        a=HEIS.element([1, 0, 2]),
        weights=(HSTEP, HSTEP),
        powers=(1, 2),
        K=CompactSet.box(HEIS, [-3, -3, -3], [3, 3, 3]),
        epsilon=1e-3,
        n_max=64,
    )


def direct_product_traces(scenario):
    """Independent oracle: linear-space cumulative products of directly
    evaluated weights along explicitly multiplied orbits."""
    pts = list(scenario.K)
    r = scenario.powers
    depth = r[-1] * scenario.n_max
    a = scenario.a
    fwd_orbit, bwd_orbit = [], []
    cur_f = [p for p in pts]
    cur_b = [p for p in pts]
    for j in range(depth):
        cur_f = [x * a for x in cur_f]
        fwd_orbit.append(cur_f)
        bwd_orbit.append(cur_b)
        cur_b = [x * a.inverse() for x in cur_b]
    cums = []
    for w in scenario.weights:
        wf = np.array([[w(x) for x in col] for col in fwd_orbit])  # (depth, N)
        wb = np.array([[w(x) for x in col] for col in bwd_orbit])
        ones = np.ones((1, len(pts)))
        cums.append(
            (
                np.vstack([ones, np.cumprod(wf, axis=0)]),
                np.vstack([ones, np.cumprod(wb, axis=0)]),
            )
        )
    rows = {}
    for n in range(1, scenario.n_max + 1):
        row = {}
        for l in range(scenario.L):
            pf, pb = cums[l]
            row[f"fwd_{l + 1}"] = pf[r[l] * n].max()
            row[f"bwd_{l + 1}"] = (1.0 / pb[r[l] * n]).max()
        for s in range(scenario.L):
            for l in range(s + 1, scenario.L):
                ps, pl = cums[s][1], cums[l][1]
                gap = (r[l] - r[s]) * n
                row[f"cross_bwd_s{s + 1}_l{l + 1}"] = (
                    (1.0 / ps[gap]) * (1.0 / pl[r[l] * n]) * ps[r[l] * n]
                ).max()
                row[f"cross_fwd_s{s + 1}_l{l + 1}"] = (
                    cums[l][0][gap] * (1.0 / ps[r[s] * n]) * pl[r[s] * n]
                ).max()
        rows[n] = row
    return rows


def test_criterion_05_heisenberg_example_reproduction():
    t0 = time.perf_counter()
    s = heisenberg_scenario()
    rep = check_disjoint_transitive(s)
    ok = rep.verified and rep.n_star is not None and rep.n_star <= 64
    oracle = direct_product_traces(s)
    for n, values, _ in rep.rows:
        for col, expect in oracle[n].items():
            got = values[rep.columns.index(col)]
            ok &= abs(got - expect) <= 1e-10 * max(abs(expect), 1e-300)
    _verdict(5, "Heisenberg scenario reproduction", ok, time.perf_counter() - t0, 10.0)


def test_criterion_06_constructive_witness():
    t0 = time.perf_counter()
    K0 = CompactSet.from_elements(ZLINE, [ZLINE.element([0])])
    s = Scenario(
        model=ZLINE,
        phi=PowerYoung(1.0),
        a=ZLINE.element([1]),
        weights=(STEP, STEP),
        powers=(1, 2),
        K=K0,
        epsilon=1e-2,
        n_max=64,
    )
    f = OrliczVector.indicator(K0)
    v4 = build_witness(s, f, [f, f], 4, K0)
    rho0, _ = verify_witness(s, v4, f, [f, f], 4)
    ok = abs(rho0 - 0.1328125) <= 1e-12
    v16 = build_witness(s, f, [f, f], 16, K0)
    r0, rs = verify_witness(s, v16, f, [f, f], 16)
    ok &= r0 < 1e-3 and all(r < 1e-3 for r in rs)
    _verdict(6, "constructive witness residuals", ok, time.perf_counter() - t0, 1.0)


def test_criterion_07_chaos_sums():
    t0 = time.perf_counter()
    # direct-summation oracle at the point x = 0, n = 10, t_max = 50
    total = 0.0
    for t in range(1, 51):
        m = 10 * t
        total += math.prod(STEP(ZLINE.element([j])) for j in range(1, m + 1))
        total += 1.0 / math.prod(STEP(ZLINE.element([-j])) for j in range(m))
    closed = 3.0 * 2.0**-10 / (1.0 - 2.0**-10)
    ok = abs(total - closed) <= 1e-9
    s = Scenario(
        model=ZLINE,
        phi=PowerYoung(2.0),
        a=ZLINE.element([1]),
        weights=(STEP,),
        powers=(1,),
        K=CompactSet.box(ZLINE, [-3], [3]),
        epsilon=0.01,
        n_max=16,
        t_max=50,
    )
    rep = check_chaotic(s, op_index=0)
    ok &= rep.verified and rep.n_star <= 16
    _verdict(7, "chaos series", ok, time.perf_counter() - t0, 2.0)


def test_criterion_08_periodic_point():
    t0 = time.perf_counter()
    op = WeightedTranslation(ZLINE, ZLINE.element([1]), STEP)
    phi = PowerYoung(2.0)
    K = CompactSet.box(ZLINE, [-3], [3])
    res = build_periodic_point(op, phi, OrliczVector.indicator(K), K, 10, 20, epsilon=0.5)
    residual = (op.apply(res.point, 10) - res.point).luxemburg_norm(phi)
    ok = residual <= min(res.tail_bound, 1e-6)
    _verdict(8, "periodic point residual", ok, time.perf_counter() - t0, 1.0)


def test_criterion_09_negative_controls():
    t0 = time.perf_counter()
    K = CompactSet.box(ZLINE, [-3], [3])

    def scen(weights, a=1):
        return Scenario(
            model=ZLINE,
            phi=PowerYoung(2.0),
            a=ZLINE.element([a]),
            weights=weights,
            powers=(1, 2),
            K=K,
            epsilon=1e-2,
            n_max=32,
        )

    flat = check_disjoint_transitive(scen((ConstantWeight(1.0), ConstantWeight(1.0))))
    ok = flat.verdict == VERDICT_REFUSED and "<= 1" in flat.reason
    ident = check_disjoint_transitive(scen((STEP, STEP), a=0))
    ok &= ident.verdict == VERDICT_REFUSED and "periodic" in ident.reason
    const2 = check_same_weight(scen((ConstantWeight(2.0), ConstantWeight(2.0))))
    ok &= const2.verdict == VERDICT_NOT_VERIFIED
    _verdict(9, "negative controls", ok, time.perf_counter() - t0, 1.0)


def random_same_weight_scenario(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        w = ConstantWeight(float(rng.uniform(1.5, 3.0)))
    elif kind == 3:
        table = {}
        for j in range(1, 97):
            table[(j,)] = 0.5 if (j - 1) % 16 < 8 else 2.0
        w = TableWeight(table, default=float(rng.uniform(1.5, 2.5)))
    else:
        w = ClampExpWeight(
            base=float(rng.uniform(1.4, 3.0)),
            coord=0,
            lo=-float(rng.uniform(0.5, 2.0)),
            hi=float(rng.uniform(0.5, 2.0)),
        )
    radius = int(rng.integers(0, 4))
    r1 = int(rng.integers(1, 3))
    r2 = r1 + int(rng.integers(1, 3))
    return Scenario(
        model=ZLINE,
        phi=PowerYoung(2.0),
        a=ZLINE.element([1]),
        weights=(w, w),
        powers=(r1, r2),
        K=CompactSet.box(ZLINE, [-radius], [radius]),
        epsilon=float(rng.choice([0.05, 0.01])),
        n_max=48,
    )


def test_criterion_10_checker_equivalence():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    ok = True
    verified_count = 0
    for _ in range(20):
        s = random_same_weight_scenario(rng)
        reduced = check_same_weight(s)
        general = check_disjoint_transitive(s)
        ok &= (reduced.verdict, reduced.n_star) == (general.verdict, general.n_star)
        mixing = check_disjoint_mixing(s)
        if mixing.verified:
            ok &= general.verified and general.n_star <= mixing.n_star
        if general.verified:
            verified_count += 1
    ok &= verified_count >= 5  # the family must actually exercise the verified path
    _verdict(10, "checker equivalence", ok, time.perf_counter() - t0, 30.0)
