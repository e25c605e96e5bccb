"""Acceptance gate: the eight numerical guarantees the package ships with.

Every test prints one summary line (collected again at the end of the run)
and pins its tolerance explicitly.  The two reference groups are
m = (2, 3, 2, 3) with 36 points and the dyadic group m = (2,)*6 with 64.
"""

import math

import numpy as np

from vilenkin import (
    Element,
    GridFunction,
    WeightSequence,
    abel_weight_residual,
    character_row,
    classify,
    dirichlet,
    domination_constant,
    fejer,
    forward,
    identity_residual,
    l1_profile,
    lebesgue_modulus,
    make_group,
    norlund_kernel,
    norm,
    partial_sum,
    passes_gate,
    t_kernel,
    t_mean,
    w_modulus,
)
from vilenkin.cli import main

G1 = make_group((2, 3, 2, 3))
G2 = make_group((2,), levels=6)
GROUPS = (G1, G2)

FAMILIES = (
    WeightSequence("constant"),
    WeightSequence("inverse-cesaro", 0.5),
    WeightSequence("power", 0.5),
    WeightSequence("riesz-log"),
    WeightSequence("log-power", 0.5),
)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_1_orthonormality_and_parseval(criterion_log):
    worst = 0.0
    for spec in GROUPS:
        size = spec.size
        psi = np.vstack([character_row(spec, n) for n in range(size)])
        gram = psi @ psi.conj().T / size
        worst = max(worst, float(np.abs(gram - np.eye(size)).max()))
        for seed in range(5):
            f = GridFunction.random(spec, seed)
            energy = float(np.sum(np.abs(forward(f)) ** 2))
            worst = max(worst, abs(energy - norm(f, 2) ** 2))
    ok = worst <= 1e-10
    criterion_log(1, "orthonormality and Parseval", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_2_fast_transform_matches_naive(criterion_log, tmp_path):
    worst = 0.0
    for spec in GROUPS:
        for seed in range(50):
            f = GridFunction.random(spec, seed)
            diff = forward(f, method="fast") - forward(f, method="naive")
            worst = max(worst, float(np.abs(diff).max()))
    out = tmp_path / "bench.csv"
    code = main(["bench-transform", "--group", "2,3", "--levels", "10", "--out", str(out)])
    rows = {r["method"]: r for r in read_rows(out)}
    t_naive = float(rows["naive"]["seconds"])
    t_fast = float(rows["fast"]["seconds"])
    ok = worst <= 1e-10 and code == 0 and t_fast < t_naive
    criterion_log(
        2,
        "fast transform matches naive",
        ok,
        f"max diff {worst:.2e}; at 7776 points naive {t_naive:.3f}s, fast {t_fast:.4f}s",
    )
    assert ok


def test_criterion_3_identity_suite(criterion_log):
    worst = 0.0
    for spec in GROUPS:
        for rank in range(spec.levels + 1):
            for j in range(spec.M[rank]):
                r = identity_residual("reflection", spec, rank=rank, j=j)
                worst = max(worst, r)
        probe = GridFunction.random(spec, 11)
        for w in FAMILIES:
            for n in (5, 12, 36):
                worst = max(worst, abel_weight_residual(w, n))
                if n <= spec.size:
                    worst = max(worst, identity_residual("abel-kernel", spec, n=n, weights=w))
                    gap = t_mean(probe, w, n, "direct") - t_mean(probe, w, n, "abel")
                    worst = max(worst, float(np.abs(gap.values).max()))
            for rank in range(spec.levels + 1):
                if w.Q(spec.M[rank]) > 0:
                    worst = max(worst, identity_residual("block", spec, rank=rank, weights=w))
    ok = worst <= 1e-12
    criterion_log(3, "kernel and mean identities", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_4_kernel_integrals(criterion_log):
    worst = 0.0
    extra = (WeightSequence("cesaro", 0.5), WeightSequence("norlund-log"))
    for spec in GROUPS:
        for n in range(1, spec.size + 1):
            worst = max(worst, abs(dirichlet(n, spec).integral - 1))
            worst = max(worst, abs(fejer(n, spec).integral - 1))
        for w in FAMILIES + extra:
            for rank in range(spec.levels + 1):
                block = spec.M[rank]
                if w.Q(block) > 0:
                    worst = max(worst, abs(norlund_kernel(w, block, spec).integral - 1))
            for n in range(w.n0, spec.size + 1):
                expected = (w.Q(n) - w.q(0)) / w.Q(n)
                worst = max(worst, abs(t_kernel(w, n, spec).integral - expected))
    k4_gap = abs(norm(fejer(4, G2), 1) - 1.0)
    ok = worst <= 1e-12 and k4_gap <= 1e-12
    criterion_log(
        4,
        "kernel integrals",
        ok,
        f"max deviation {max(worst, k4_gap):.2e}; ||K_4||_1 on the dyadic group = 1",
    )
    assert ok


def test_criterion_5_t_kernel_l1_bounds(criterion_log):
    riesz = WeightSequence("riesz-log")
    logpow = WeightSequence("log-power", 0.5)
    sups = {}
    for w in (riesz, logpow):
        sup = 0.0
        for spec in GROUPS:
            rows = l1_profile("t", range(w.n0, spec.size + 1), spec, weights=w, tail_rank=2)
            sup = max(sup, max(r.l1 for r in rows))
        sups[w.label()] = sup
    blocks = [G2.M[rank] for rank in range(1, G2.levels + 1)]
    tails = {
        w.label(): [r.tail for r in l1_profile("t", blocks, G2, weights=w, tail_rank=2)]
        for w in (riesz, logpow)
    }
    riesz_tails = tails["riesz"]
    logpow_tail = tails["logpow:0.5"][-1]
    ok = (
        all(math.isfinite(s) for s in sups.values())
        and logpow_tail < 0.05
        and all(a > b for a, b in zip(riesz_tails, riesz_tails[1:]))
    )
    criterion_log(
        5,
        "forward-frame kernel L1 bounds",
        ok,
        f"sup L1 riesz {sups['riesz']:.4f}, logpow:0.5 {sups['logpow:0.5']:.4f}; "
        f"rank-2 tail at n=64: logpow {logpow_tail:.4f} < 0.05, "
        f"riesz {riesz_tails[-1]:.4f} strictly decreasing",
    )
    assert ok


def test_criterion_6_fejer_domination(criterion_log):
    c1 = domination_constant(range(1, G1.size + 1), G1)
    c2 = domination_constant(range(1, G2.size + 1), G2)
    spot = domination_constant([3], G2)
    ok = math.isfinite(c1) and math.isfinite(c2) and abs(spot - 1.5) <= 1e-12
    criterion_log(
        6,
        "Fejer kernel domination",
        ok,
        f"c = {c1:.4f} on (2,3,2,3), {c2:.4f} on dyadic; spot n=3 -> {spot:.12f}",
    )
    assert ok


def test_criterion_7_convergence_for_step_functions(criterion_log):
    spec = G2
    low, high = spec.M[2], spec.M[6]
    gated = [w for w in FAMILIES if passes_gate(classify(w))]
    assert len(gated) == len(FAMILIES)
    pointwise_ok = True
    l1_ok = True
    worst_excess = 0.0
    for seed in range(20):
        f = GridFunction.random(spec, seed, rank=2)
        moduli = [
            lebesgue_modulus(f, Element.from_index(spec, i), 2) for i in range(spec.size)
        ]
        assert max(moduli) == 0.0
        worst_s = max(norm(partial_sum(f, k) - f, 1) for k in range(low))
        for w in gated:
            err_high = np.abs((t_mean(f, w, high) - f).values)
            err_low = np.abs((t_mean(f, w, low) - f).values)
            pointwise_ok = pointwise_ok and bool(np.all(err_high <= err_low))
            bound = (w.Q(low) / w.Q(high)) * worst_s + 1e-10
            l1_err = norm(t_mean(f, w, high) - f, 1)
            l1_ok = l1_ok and l1_err <= bound
            worst_excess = max(worst_excess, l1_err - bound)
    spot = w_modulus(GridFunction.character(spec, 1), Element.zero(spec), 2)
    ok = pointwise_ok and l1_ok and spot == 0.5
    criterion_log(
        7,
        "mean convergence on step functions",
        ok,
        f"20 seeds x {len(gated)} families, pointwise and L1 bounds hold; "
        f"W_2 spot value {spot}",
    )
    assert ok


def test_criterion_8_weight_classification(criterion_log):
    cons = classify(WeightSequence("constant"))
    riesz = classify(WeightSequence("riesz-log"))
    logpow = classify(WeightSequence("log-power", 0.5))
    checks = [
        cons.monotonicity == "both" and cons.gate == "a+b",
        riesz.monotonicity == "non-increasing"
        and math.isfinite(riesz.fn011_sup)
        and riesz.gate == "a",
        logpow.monotonicity == "non-decreasing"
        and math.isfinite(logpow.fn01_sup)
        and logpow.gate == "b",
    ]
    w = WeightSequence("log-power", 0.5)
    ns = np.arange(4, 10_001)
    Q = w.Q_array(10_000)[ns]
    lower = ns / 2 * np.log(ns / 2) ** 0.5
    upper = ns * np.log(ns) ** 0.5
    checks.append(bool(np.all((lower <= Q) & (Q <= upper))))
    ok = all(checks)
    criterion_log(
        8,
        "weight family classification",
        ok,
        f"gates {cons.gate}/{riesz.gate}/{logpow.gate}; "
        f"log-power cumulative bound holds for 4 <= n <= 10^4",
    )
    assert ok
