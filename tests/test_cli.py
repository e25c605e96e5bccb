"""End-to-end runs of the command-line drivers."""

import errno
import gc
import json
import os
import subprocess
import sys
import types
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from conftest import TracedPeak, child_env
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin
import vilenkin.cli
import vilenkin.kernels
import vilenkin.oracles
import vilenkin.transform
from vilenkin.cli import FAST_REPEATS, ExperimentConfig, load_config, main, run
from vilenkin.group import make_group
from vilenkin.weights import Classification, parse_weights


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_identity_check_clean_run(tmp_path, capsys):
    out = tmp_path / "idents.csv"
    code = main(
        [
            "identity-check",
            "--group",
            "2,2,2",
            "--weights",
            "riesz",
            "--function",
            "random:5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["check", "n", "j", "residual"]
    assert {r["check"] for r in rows} == {
        "reflection",
        "weight-sum",
        "abel-kernel",
        "abel-mean",
        "block",
    }
    assert all(float(r["residual"]) <= 1e-12 for r in rows)
    text = capsys.readouterr().out
    assert text.count("-> ok") == 5


def test_identity_check_passes_correct_identities_on_large_blocks(tmp_path, capsys):
    # The block kernels at M_9 = 3888 reach sup |D_{M_r}| = M_r, and a
    # correct identity left a 1.5e-12 block residual that an absolute 1e-12
    # tolerance turned into exit 1.
    args = ["--group", "2,3", "--levels", "9", "--weights", "riesz", "--n-max", "20"]
    assert main(["identity-check", *args, "--out", str(tmp_path / "i.csv")]) == 0
    assert capsys.readouterr().out.count("-> ok") == 5


@pytest.mark.parametrize(
    "name, check, factor, status",
    [
        ("reflection_residuals", "reflection", 0.9, 0),
        ("reflection_residuals", "reflection", 1.1, 1),
        ("identity_residual", "block", 0.9, 0),
        ("identity_residual", "block", 1.1, 1),
        ("abel_weight_residual", "weight-sum", 0.9, 0),
        ("abel_weight_residual", "weight-sum", 2.0, 1),
    ],
)
def test_identity_check_tolerance_scales_with_block_size_only_for_block_kernels(
    tmp_path, capsys, monkeypatch, name, check, factor, status
):
    # Reflection and block are held to 1e-12 * M_r, weight-sum to
    # 1e-12 * max(1, Q_n) and abel-kernel to 1e-12 * max(1, n).  A weight-sum
    # residual of 2e-12 is below 1e-12 * M_r for every rank r >= 1, and it
    # still fails because riesz weights keep Q_n below 2 at the first orders
    # (Q_2 = 1, Q_3 = 1.5).
    if name == "reflection_residuals":
        fake = lambda spec: ((r, 0, factor * 1e-12 * spec.M[r]) for r in range(4))
    elif name == "identity_residual":
        fake = lambda kind, spec, weights, rank: factor * 1e-12 * spec.M[rank]
    else:
        fake = lambda w, n: factor * 1e-12
    monkeypatch.setattr(vilenkin.oracles, name, fake)
    args = ["--group", "2,3", "--levels", "3", "--weights", "riesz"]
    assert main(["identity-check", *args, "--out", str(tmp_path / "i.csv")]) == status
    lines = capsys.readouterr().out.splitlines()
    verdict = "FAIL" if status else "ok"
    assert [line for line in lines if f" {check}:" in line][0].endswith(verdict)
    assert sum(line.endswith("FAIL") for line in lines) == status


def test_identity_check_tolerance_follows_the_size_of_each_sum(tmp_path, capsys, monkeypatch):
    # Q_n reaches about 1.2e3 at n = 511 here, and the correct weight-sum
    # identity leaves residuals above an absolute 1e-12 (1.1e-12 at n = 504);
    # its tolerance is 1e-12 * Q_n and the abel-kernel's 1e-12 * n.
    args = ["identity-check", "--group", "2", "--levels", "9", "--weights", "logpow:0.5"]
    out = tmp_path / "i.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("-> ok") == 5
    _, rows = read_csv(out)
    assert max(float(r["residual"]) for r in rows if r["check"] == "weight-sum") > 1e-12

    # A t kernel off by 1e-9 fails even at the largest order, where the
    # abel-kernel tolerance 1e-12 * 511 is loosest.
    multipliers = vilenkin.kernels._multipliers

    def perturbed(family, ns, spec, weights=None):
        out = multipliers(family, ns, spec, weights)
        if family == "t":
            out[np.asarray(ns) == 511, 0] += 1e-9  # + 1e-9 * psi_0, a constant
        return out

    monkeypatch.setattr(vilenkin.kernels, "_multipliers", perturbed)
    assert main([*args, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith("FAIL")] == [
        line for line in lines if " abel-kernel:" in line
    ]
    _, rows = read_csv(out)
    worst = max(rows, key=lambda r: float(r["residual"]) if r["check"] == "abel-kernel" else 0)
    assert worst["n"] == "511"
    assert float(worst["residual"]) == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("family", ["riesz", "constant"])
def test_identity_check_cost_is_linear_in_blocks_and_orders(
    tmp_path, monkeypatch, butterflies, family
):
    # Counts, not timings.  With M = (M_0, ..., M_N), orders n0..n_max and
    # B = #{r : Q(M_r) > 0} block ranks, one identity-check run makes
    #   rows synthesized: sum_r M_r    reflection: D_1..D_{M_r} once per rank
    #                     + orders     abel-kernel: one t kernel per order
    #                     + n_max - 1  abel-kernel: K_1..K_{n_max-1} once each
    #                     + 3 B        block: t, Dirichlet and Norlund kernels
    #   character rows:   N            reflection: psi_{M_r - 1} once per rank r >= 1
    #                     + B          block: psi_{M_r - 1}
    #                     + n_max - 1  abel-mean: psi_k for k <= n_max - 2, shared
    #                                  by the direct and abel running sums
    #   forward:          1            abel-mean
    # The abel-mean oracle builds its character rows a chunk at a time, at
    # most max(1, 2^12 // M_N) M_N-cell rows per _phase_rows batch.
    # On 2,3 x 3 (M = 1, 2, 6, 12, n_max = 12) riesz gives 52 / 17 / 1 and
    # constant (n0 = 1, B = 4) gives 56 / 18 / 1.  A row runs on the band of
    # its last nonzero coefficient: D_n and K_n have n of them, the order-n
    # t kernel n - 1 (its multiplier vanishes at j = n - 1), and the Norlund
    # kernel n - 1 when q_0 = 0, else n.  Each sweep hands its rows over in
    # ascending order and 12 cells fit one 2^12-cell chunk, so the
    # butterflies are at most one per band and sweep:
    #   reflection, rank r: D_{M_r}, then D_j and D_{M_r - j}   1 + 2 (r + 1)
    #   abel-kernel: t kernels, then K_i                        2 (N + 1)
    #   block: one per kernel                                   3 B
    calls = {"character rows": 0, "oracle batches": 0, "forward": 0}
    phase_rows = vilenkin.transform._phase_rows
    oracle_characters = vilenkin.oracles._characters
    forward = vilenkin.oracles.forward

    def rows_built(spec, ns, *args):
        # every character row, by whichever route, is built from its phases here
        calls["character rows"] += len(ns)
        return phase_rows(spec, ns, *args)

    def oracle_batch(spec, ns, cells=None):
        # the abel-mean's batches are M_N-cell rows; the identities' single rows take cells
        calls["oracle batches"] += cells is None
        return oracle_characters(spec, ns, cells)

    def counted_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    monkeypatch.setattr(vilenkin.transform, "_phase_rows", rows_built)
    monkeypatch.setattr(vilenkin.oracles, "_characters", oracle_batch)
    monkeypatch.setattr(vilenkin.oracles, "forward", counted_forward)
    args = ["--group", "2,3", "--levels", "3", "--weights", family]
    assert main(["identity-check", *args, "--out", str(tmp_path / "i.csv")]) == 0
    spec, w = make_group([2, 3], 3), parse_weights(family)
    n_max = spec.size
    orders = range(w.n0, n_max + 1)
    blocks = [b for b in spec.M if w.Q(b) > 0]
    assert calls["character rows"] == spec.levels + len(blocks) + (n_max - 1)
    assert calls["forward"] == 1
    per_batch = max(1, 2**12 // spec.size)
    assert 1 <= calls["oracle batches"] <= -(-(n_max - 1) // per_batch)

    def band(count):
        return spec.M[bisect_left(spec.M, count)]

    want = Counter(band(n) for b in spec.M for n in range(1, b + 1))
    want += Counter(band(n - 1) for n in orders)
    want += Counter(band(i) for i in range(1, n_max))
    for b in blocks:
        want += Counter([band(b - 1), band(b), band(b - (w.q(0) == 0))])
    rows = [band for inverse, count, band in butterflies if inverse for _ in range(count)]
    assert len(rows) == sum(spec.M) + len(orders) + (n_max - 1) + 3 * len(blocks)
    assert Counter(rows) == want
    synthesis_calls = sum(1 for inverse, _, _ in butterflies if inverse)
    ranks = range(spec.levels + 1)
    assert synthesis_calls <= sum(1 + 2 * (r + 1) for r in ranks) + 2 * len(ranks) + 3 * len(blocks)


def test_closed_stdout_keeps_csv_and_exit_status(tmp_path):
    # exit 1 is reserved for a failed check, so a reader that goes away early
    # (`vilenkin identity-check ... | head -1`) must cost neither the CSV nor
    # the status, and must print no traceback.  The child starts on a pipe
    # whose read end is already closed, so its very first summary line
    # breaks the pipe; its default constant weights (n0 = 1) also run the
    # Abel oracles' order 1.
    out, err = tmp_path / "piped.csv", tmp_path / "stderr.txt"
    args = ["identity-check", "--group", "2,3", "--levels", "3", "--out"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open(err, "wb") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "vilenkin", *args, str(out)],
                stdout=write_end,
                stderr=err_fh,
                env=child_env(),
            )
    finally:
        os.close(write_end)
    code = proc.wait(timeout=120)
    assert err.read_text() == ""
    assert code == 0
    assert main([*args, str(tmp_path / "direct.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    # a frozen heap would keep a library caller's later garbage from the
    # collector; only the process entry freezes, once main has returned
    before = gc.get_freeze_count()
    argv = ["converge", "--group", "2,3", "--levels", "3", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert main([*argv, "--p", "nan"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("tail, status", [([], 0), (["--p", "nan"], 2)])
def test_entry_returns_the_status_of_main_and_freezes_the_heap(tmp_path, tail, status):
    # importing the package and both entry modules freezes nothing; the
    # entry freezes after main, and its status is main's
    script = (
        "import gc, sys\n"
        "import vilenkin, vilenkin.__main__, vilenkin.cli\n"
        "frozen = gc.get_freeze_count()\n"
        "status = vilenkin.cli.entry(sys.argv[1:])\n"
        "print(frozen, gc.get_freeze_count() > 0, status)\n"
    )
    argv = ["converge", "--group", "2,3", "--levels", "3", "--out", str(tmp_path / "c.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, *tail],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == f"0 True {status}"


# Modules a converge job does without: the oracle routes, and what only
# frozen dataclasses and a --config file need.
LAZY_MODULES = ("dataclasses", "json", "vilenkin.oracles")
SWEEP_ARGV = "converge --group 2,3 --levels 7 --weights riesz --form t --p 1 --function random:5"


def lazy_modules_after(code, argv=()):
    """The LAZY_MODULES that a fresh interpreter holds once it has run code."""
    script = f"{code}\nimport sys\nprint('loaded:', *[m for m in {LAZY_MODULES!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def test_import_loads_no_oracle_dataclasses_or_json():
    assert lazy_modules_after("import vilenkin") == set()
    # the package is asked for a submodule's name before it is imported
    assert lazy_modules_after("import vilenkin\nassert not hasattr(vilenkin, 'cli')") == set()
    assert lazy_modules_after("from vilenkin import cli") == set()
    # a missing name is refused without loading the oracles
    assert lazy_modules_after("import vilenkin\nassert not hasattr(vilenkin, 'mystery')") == set()
    # the oracle names are read from vilenkin.oracles, and only an import of it loads it
    code = (
        f"import vilenkin\nassert not any(hasattr(vilenkin, n) for n in {ORACLE_NAMES!r})\n"
        "from vilenkin.oracles import forward_naive, t_mean_oracles\n"
        f"assert not any(hasattr(vilenkin, n) for n in {ORACLE_NAMES!r})\n"
    )
    assert lazy_modules_after(code) == {"vilenkin.oracles"}


# The package's public names other than its modules: one name per operation.
PUBLIC_NAMES = [
    "Classification", "ConvergenceRow", "Element", "GridFunction", "GroupSpec",
    "KernelProfileRow", "WeightSequence", "binomial_sequence",
    "character_row", "classify", "convergence_profile", "convolve", "dirichlet",
    "domination_constant", "fejer", "forward", "generator", "interval_members",
    "l1_profile", "lebesgue_modulus", "make_group", "multiplier",
    "norlund_kernel", "norlund_mean", "norm", "parse_weights", "partial_sum",
    "passes_gate", "synthesize", "t_kernel", "t_mean", "w_modulus",
]
# Deleted duplicates, with the route that replaces each: psi_n(x) is
# character_row(spec, n)[x.index], r_k is character_row(spec, M_k), add and
# subtract are x + y and x - y, weights() is WeightSequence() (the name
# `weights` now reads the module vilenkin.weights), a named mean is t_mean
# or norlund_mean with the family the weights module lists, inverse(fhat)
# is synthesize(f.spec, fhat), and a Spectrum is forward(f),
# the coefficient vector itself.  maximal_profile and weak_norm measured a
# weak-type statistic that read 1.000 for every weight family: pointwise
# convergence is convergence_profile(point=...), and why it converges is
# ROADMAP item 12's certificates.
DELETED_NAMES = [
    "Spectrum", "add", "inverse", "maximal_profile", "named_mean", "psi", "rademacher",
    "subtract", "weak_norm",
]
# The public names of vilenkin.oracles, which the package does not export.
ORACLE_NAMES = [
    "abel_kernel_residuals", "abel_weight_residual", "forward_naive", "identity_residual",
    "reflection_residuals", "t_mean_oracles",
]


def test_public_surface_is_pinned():
    public = sorted(
        name
        for name in dir(vilenkin)
        if not name.startswith("_") and not isinstance(getattr(vilenkin, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
    for name in DELETED_NAMES:
        with pytest.raises(AttributeError):
            getattr(vilenkin, name)
    assert isinstance(vilenkin.weights, types.ModuleType)
    assert sorted(vilenkin.oracles.__all__) == ORACLE_NAMES
    for name in ORACLE_NAMES:
        with pytest.raises(AttributeError):
            getattr(vilenkin, name)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (SWEEP_ARGV, set()),
        ("identity-check --group 2,3 --levels 3 --weights riesz", {"vilenkin.oracles"}),
        ("bench-transform --group 2,3 --levels 3", {"vilenkin.oracles"}),
        (SWEEP_ARGV.replace("7", "3") + " --config CONFIG", {"json"}),
    ],
    ids=["sweep", "identity-check", "bench-transform", "config"],
)
def test_cli_jobs_load_oracles_and_json_only_when_they_use_them(tmp_path, argv, loaded):
    config = tmp_path / "cfg.json"
    config.write_text('{"weights": "riesz"}')
    argv = argv.replace("CONFIG", str(config)).split() + ["--out", str(tmp_path / "x.csv")]
    code = "import sys, vilenkin.cli\nassert vilenkin.cli.entry(sys.argv[1:]) == 0"
    assert lazy_modules_after(code, argv) == loaded


@pytest.mark.parametrize("module", ["vilenkin", "vilenkin.cli"])
def test_module_entries_exit_2_on_bad_config_without_traceback(tmp_path, module):
    out = tmp_path / "c.csv"
    argv = ["converge", "--group", "2,3", "--levels", "3", "--p", "nan", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: p must be >= 1, got nan\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_converge_character_function(tmp_path):
    # S_n psi_5 is 0 for n <= 5 and psi_5 itself from n = 6 on, so the L1
    # error is |psi_5| = 1, then zero up to rounding
    out = tmp_path / "character.csv"
    args = ["converge", "--group", "2,3", "--levels", "4", "--form", "partial"]
    assert main([*args, "--function", "character:5", "--p", "1", "--out", str(out)]) == 0
    errs = {int(r["n"]): float(r["err"]) for r in read_csv(out)[1]}
    assert list(errs) == list(range(1, 37))
    assert all(errs[n] == pytest.approx(1, abs=1e-12) for n in range(1, 6))
    assert all(errs[n] < 1e-12 for n in range(6, 37))


def test_kernel_profile_fejer_hand_row(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(
        [
            "kernel-profile",
            "--group",
            "2",
            "--levels",
            "3",
            "--family",
            "fejer",
            "--n-max",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "l1", "integral_re", "integral_im", "tail"]
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
    last = rows[-1]
    assert float(last["l1"]) == pytest.approx(1.0, abs=1e-13)
    assert float(last["integral_re"]) == pytest.approx(1.0, abs=1e-13)
    assert float(last["tail"]) == pytest.approx(0.125, abs=1e-13)


def test_kernel_profile_block_mode(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(
        [
            "kernel-profile",
            "--group",
            "2",
            "--levels",
            "6",
            "--family",
            "t",
            "--weights",
            "logpow:0.5",
            "--tail-rank",
            "2",
            "--block",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r["n"] for r in rows] == ["2", "4", "8", "16", "32", "64"]
    tails = [float(r["tail"]) for r in rows]
    assert tails[-1] < 0.05
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_converge_constant_function_norlund_errors_vanish(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "converge",
            "--group",
            "2,3,2",
            "--weights",
            "nlog",
            "--form",
            "norlund",
            "--function",
            "constant",
            "--p",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 11  # n = 2..12
    assert all(float(r["err"]) < 1e-13 for r in rows)
    assert rows[0]["mean_id"] == "nlog|norlund"


def test_converge_pointwise_block(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "converge",
            "--group",
            "2",
            "--levels",
            "3",
            "--weights",
            "constant",
            "--form",
            "norlund",
            "--function",
            "indicator:1,0",
            "--point",
            "0,0,0",
            "--block",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r["n"] for r in rows] == ["1", "2", "4", "8"]
    assert all(r["mode"] == "block" for r in rows)
    # the n = 8 Fejer error at 0 is exactly 1/16
    assert float(rows[-1]["err"]) == pytest.approx(1 / 16, abs=1e-14)


def test_classify_weights_row(tmp_path):
    out = tmp_path / "cls.csv"
    code = main(
        ["classify-weights", "--weights", "logpow:0.5", "--n-max", "2000", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "logpow:0.5"
    assert row["monotonicity"] == "non-decreasing"
    assert row["gate"] == "b"
    assert np.isfinite(float(row["fn01_sup"]))
    # the header is the Classification record's fields, its label as family
    assert list(row) == ["family", *Classification._fields[1:]]


def test_bench_transform_agrees(tmp_path):
    out = tmp_path / "bench.csv"
    argv = ["bench-transform", "--group", "2,3", "--levels", "4", "--function", "random:3"]
    code = main([*argv, "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert [r["method"] for r in rows] == ["naive", "fast"]
    assert all(float(r["max_abs_diff"]) <= 1e-10 for r in rows)


def test_bench_transform_warms_up_and_repeats_fast_route(tmp_path, monkeypatch):
    # the first call fills the root and stage-matrix caches, so the timed
    # runs measure the transform alone; the fast time is a median
    methods = []

    def counted(method, real):
        def route(f):
            methods.append(method)
            return real(f)

        return route

    monkeypatch.setattr(vilenkin.cli, "forward", counted("fast", vilenkin.cli.forward))
    monkeypatch.setattr(
        vilenkin.oracles, "forward_naive", counted("naive", vilenkin.oracles.forward_naive)
    )
    out = tmp_path / "bench.csv"
    assert main(["bench-transform", "--group", "2,3", "--levels", "3", "--out", str(out)]) == 0
    assert methods == ["fast", "naive"] + ["fast"] * FAST_REPEATS


def test_bench_transform_refuses_hour_long_naive_runs(tmp_path, monkeypatch, capsys):
    # the naive route computes M_N rows of M_N cells, priced against the one
    # work budget: refused with exit 2 before any transform runs, from
    # M_N^2 > 10^9 on (2^15 points, about 37 s of naive work, is refused)
    def refused(*args, **kwargs):
        raise AssertionError("no transform may run on a refused grid")

    monkeypatch.setattr(vilenkin.oracles, "forward_naive", refused)
    monkeypatch.setattr(vilenkin.cli, "forward", refused)
    out = tmp_path / "bench.csv"
    for levels, cells in (("16", "4.29e+09"), ("15", "1.07e+09")):
        args = ["bench-transform", "--group", "2", "--levels", levels, "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == (
            f"config error: bench-transform: the run needs about {cells} cells of work; "
            "the limit is 1e+09, about a minute\n"
        )
        assert not out.exists()


def test_json_config_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"group": "2", "levels": 3, "weights": "riesz", "n_max": 4})
    )
    out = tmp_path / "prof.csv"
    code = main(
        [
            "kernel-profile",
            "--config",
            str(cfg_path),
            "--family",
            "fejer",
            "--weights",
            "constant",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    # n_max from the file, weights overridden by the flag
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]


def test_load_config_precedence_and_validation(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"weights": "riesz", "p": 2.0}))
    cfg = load_config(cfg_path, {"weights": "constant", "p": None})
    assert cfg.weights == "constant"
    assert cfg.p == 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    from vilenkin.cli import ConfigError

    with pytest.raises(ConfigError):
        load_config(bad, {})
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json", {})


def test_config_errors_exit_2(tmp_path, capsys):
    cases = [
        ["kernel-profile", "--group", "2,1"],
        ["kernel-profile", "--group", "2", "--levels", "40"],  # resolution overflow
        ["kernel-profile", "--group", "2,3,2", "--weights", "mystery"],
        ["kernel-profile", "--group", "2,3,2", "--n-max", "99"],
        ["kernel-profile", "--group", "2,3,2", "--family", "box"],
        ["converge", "--group", "2,3,2", "--function", "mystery"],
        ["converge", "--group", "2,3,2", "--point", "9,9,9"],
        ["converge", "--group", "2,3,2", "--form", "mystery"],
        ["identity-check", "--group", "2,3,2", "--function", "indicator:9,0"],
    ]
    for argv in cases:
        out = tmp_path / "x.csv"
        code = main(argv + ["--out", str(out)])
        assert code == 2, argv
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--weights", "riesz"], "no orders in [2, 1]"),
        (["converge", "--weights", "riesz", "--block"], "no block sizes M_r in [2, 1]"),
        (["kernel-profile", "--weights", "riesz", "--family", "t"], "no orders in [2, 1]"),
        (
            ["kernel-profile", "--weights", "riesz", "--family", "t", "--block"],
            "no block sizes M_r in [2, 1]",
        ),
        (["identity-check", "--weights", "riesz"], "no orders in [2, 1]"),
    ],
)
def test_empty_order_range_exits_2_and_names_it(tmp_path, capsys, argv, message):
    # riesz weights start at n0 = 2, so --n-max 1 leaves no order to run
    out = tmp_path / "x.csv"
    code = main([*argv, "--group", "2,3", "--levels", "4", "--n-max", "1", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tail_rank", ["-1", "7"])
def test_tail_rank_outside_the_levels_exits_2_and_names_it(tmp_path, capsys, tail_rank):
    out = tmp_path / "x.csv"
    argv = ["kernel-profile", "--group", "2", "--levels", "6", "--tail-rank", tail_rank]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: tail-rank {tail_rank} outside [0, 6]\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("converge --p nan", "p must be >= 1, got nan"),
        ("converge --form bogus", "unknown mean form 'bogus'"),
        ("converge --point 9", "digit 9 at position 0 outside [0, 2)"),
        ("kernel-profile --family bogus", "unknown kernel family 'bogus'"),
        ("kernel-profile --family t --tail-rank 99", "tail-rank 99 outside [0, 4]"),
    ],
    ids=["p-nan", "form", "point", "family", "tail-rank"],
)
def test_bad_arguments_exit_2_before_the_orders_or_the_function_are_built(
    tmp_path, capsys, monkeypatch, argv, message
):
    # these were checked only after the order list (and for converge f) was
    # built: on a 2^22 grid that took 0.3-0.5 s and 190-260 MiB peak RSS
    def refused(*args):
        raise AssertionError("built before the arguments were checked")

    monkeypatch.setattr(vilenkin.cli, "_orders", refused)
    monkeypatch.setattr(vilenkin.cli, "_parse_function", refused)
    out = tmp_path / "x.csv"
    grid = ["--group", "2", "--levels", "4", "--weights", "riesz", "--out", str(out)]
    assert main([*argv.split(), *grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "identity-check"])
def test_bad_function_exits_2_before_the_orders_are_listed(tmp_path, capsys, command):
    # the 4M orders of a 2^22 grid were listed before the function spec was
    # parsed: 0.3 s and 189.5 MiB peak RSS to refuse it
    out = tmp_path / "x.csv"
    grid = ["--group", "2", "--levels", "22", "--weights", "riesz", "--out", str(out)]
    with TracedPeak() as traced:
        code = main([command, "--function", "mystery", *grid])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: unknown function spec 'mystery'; expected constant, "
        "character:K, indicator:RANK,CELL or random:SEED[,RANK]\n"
    )
    assert captured.out == ""
    assert not out.exists()
    assert traced.peak < 8 * 2**20


@pytest.mark.parametrize(
    "argv, cells",
    [
        ("converge", "1.76e+13"),
        ("converge --point 1", "1.17e+13"),
        ("kernel-profile --family t", "1.17e+13"),
        ("identity-check", "8.5e+13"),
    ],
    ids=["converge-p", "converge-point", "kernel-profile", "identity-check"],
)
def test_run_over_the_work_budget_exits_2_before_f_or_any_transform(
    tmp_path, capsys, butterflies, monkeypatch, argv, cells
):
    # each ran until a timeout killed it: a converge over the 4M orders of
    # a 2^22 grid would take days
    monkeypatch.setattr(vilenkin.cli, "forward", None)  # any transform would raise
    monkeypatch.setattr(vilenkin.cli.GridFunction, "random", None)  # and so would a draw
    out = tmp_path / "x.csv"
    grid = ["--group", "2", "--levels", "22", "--weights", "riesz", "--out", str(out)]
    with TracedPeak() as traced:
        code = main([*argv.split(), *grid])
    assert code == 2
    command = argv.split()[0]
    assert capsys.readouterr().err == (
        f"config error: {command}: the run needs about {cells} cells of work; "
        "the limit is 1e+09, about a minute\n"
    )
    assert butterflies == []
    assert not out.exists()
    assert traced.peak < 2**20


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    levels=st.integers(1, 7),
    data=st.data(),
)
def test_sweep_price_counts_each_order_on_its_band(pattern, levels, data):
    # the price of a sweep follows the sweep's own rule, order by order:
    # each row on the band _band() gives it, reduced on at least reduced cells
    spec = make_group(pattern, levels)
    start = data.draw(st.integers(1, spec.size))
    stop = data.draw(st.integers(start, spec.size))
    reduced = data.draw(st.sampled_from([0, *spec.M]))
    for ns in (range(start, stop + 1), [b for b in spec.M if start <= b <= stop]):
        want = sum(max(vilenkin.transform._band(spec, n), reduced) for n in ns)
        assert vilenkin.kernels._order_cells(spec, ns, reduced) == want


COMMANDS = ["identity-check", "converge", "kernel-profile", "classify-weights", "bench-transform"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2_before_any_transform(
    tmp_path, capsys, butterflies, monkeypatch, command, where
):
    # such a path used to cost the whole run, then exit 1 with a
    # FileNotFoundError or IsADirectoryError traceback
    monkeypatch.setattr(vilenkin.cli, "forward", None)  # any transform would raise
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    argv = [command, "--group", "2,3", "--levels", "3", "--weights", "riesz", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err if where == "missing-dir" else "is a directory" in err
    assert "Traceback" not in err
    assert butterflies == []
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", COMMANDS)
def test_csv_refused_after_the_run_exits_2(capsys, command):
    # /dev/full opens but takes no data, so the write fails only after the
    # work; it used to end in an OSError traceback and exit 1, the code of
    # a failed numeric check.  The summary follows the write, so stdout
    # reports nothing: identity-check used to print five "-> ok" lines first
    argv = [command, "--group", "2,3", "--levels", "3", "--weights", "riesz"]
    assert main([*argv, "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_nul_in_output_path_exits_2_before_any_transform(
    tmp_path, capsys, butterflies, monkeypatch, command
):
    # is_dir() takes a NUL for a missing file, so the whole job ran and then
    # open() raised "embedded null byte": a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "nul.json"
    cfg_path.write_text(json.dumps({"out": "x\u0000y"}))
    argv = [command, "--config", str(cfg_path), "--group", "2,3", "--levels", "3"]
    assert main([*argv, "--weights", "riesz"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: output path 'x\\x00y' holds a NUL character\n"
    assert captured.out == ""
    assert butterflies == []
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize(
    "raw, reason",
    [
        (b'\xff\xfe{"p": 2}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["non-utf8", "deeply-nested"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, raw, reason):
    # read_text() raised UnicodeDecodeError, and json.loads() RecursionError,
    # past the JSON error handler: a traceback and exit 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(raw)
    out = tmp_path / "x.csv"
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {cfg_path}: {reason}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("p", ["1000", "1e308"])
def test_large_p_errors_are_finite(tmp_path, capsys, p):
    # --p 1000 wrote inf at n = 2 and --p 1e308 a 0 or inf, each with an
    # overflow warning; a sum of |g - f|^p that overflows is rescaled by the
    # row's largest |g - f|, so 1e308 gives the L_inf errors
    argv = ["converge", "--group", "2,3", "--levels", "3", "--weights", "riesz"]
    assert main([*argv, "--p", p, "--out", str(tmp_path / "p.csv")]) == 0
    assert main([*argv, "--p", "inf", "--out", str(tmp_path / "inf.csv")]) == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "p.csv")
    _, inf_rows = read_csv(tmp_path / "inf.csv")
    assert all(np.isfinite(float(r["err"])) for r in rows)
    assert all(float(r["err"]) <= float(i["err"]) for r, i in zip(rows, inf_rows))
    if p == "1e308":
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "inf.csv").read_bytes()


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "bench-transform"])
@pytest.mark.parametrize("spelling", ["cesaro", "icesaro"])
def test_tiny_cesaro_order_exits_2(tmp_path, capsys, command, spelling):
    # at alpha <= 2^-54, alpha - 1 rounds to -1 and every weight to 0: three
    # commands ended in a "Q(2) not positive" traceback and exit 1, and
    # classify-weights called the family identically zero
    out = tmp_path / "x.csv"
    argv = [command, "--group", "2,3", "--levels", "3", "--weights", f"{spelling}:1e-17"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ")
    assert "alpha - 1 rounds to -1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "kernel-profile"])
def test_unknown_config_mode_exits_2(tmp_path, capsys, command):
    # converge used to exit 1 with a ValueError and kernel-profile to run it as "all"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "xx"}))
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(cfg_path), "--group", "2,3", "--levels", "3"]
    assert main([*argv, "--weights", "riesz", "--out", str(out)]) == 2
    assert "unknown mode 'xx'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["identity-check", "classify-weights", "bench-transform"])
def test_block_mode_is_refused_where_it_has_no_effect(tmp_path, capsys, butterflies, command):
    # these used to run every order, exit 0 and write a CSV with no mode column
    out = tmp_path / "x.csv"
    argv = [command, "--group", "2,3", "--levels", "3", "--weights", "riesz", "--block"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"--block applies only to converge and kernel-profile, not to {command}" in (
        capsys.readouterr().err
    )
    assert butterflies == []
    assert not out.exists()


@pytest.mark.parametrize("radix", [vilenkin.cli.MAX_CLI_RADIX + 1, 65536, 10**6])
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "classify-weights"])
def test_huge_radix_exits_2_before_its_stage_matrix_is_built(
    tmp_path, monkeypatch, capsys, command, radix
):
    # M_N = radix is under MAX_CLI_SIZE, but the radix x radix stage matrix
    # took 196 MiB at 2048, and at 65536 np.outer's 32 GiB index table ended
    # in an _ArrayMemoryError traceback and exit 1
    def refused(*args):
        raise AssertionError("a stage matrix was built for a refused radix")

    monkeypatch.setattr(vilenkin.transform, "_dft_matrix", refused)
    out = tmp_path / "x.csv"
    argv = [command, "--group", str(radix), "--levels", "1", "--n-max", "3", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    cap = vilenkin.cli.MAX_CLI_RADIX
    assert captured.err == f"config error: radix {radix} exceeds the CLI cap {cap}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("n_max", [vilenkin.cli.MAX_CLASSIFY_N + 1, 10**12])
def test_classify_weights_refuses_huge_scans(tmp_path, capsys, n_max):
    # 10^12 used to exit 1 with ArrayMemoryError, 10^8 to exhaust memory
    out = tmp_path / "x.csv"
    argv = ["classify-weights", "--weights", "riesz", "--n-max", str(n_max), "--out", str(out)]
    assert main(argv) == 2
    assert f"exceeds the limit {vilenkin.cli.MAX_CLASSIFY_N}" in capsys.readouterr().err
    assert not out.exists()


def test_nan_p_exits_2_from_flag_and_config(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["converge", "--group", "2,3", "--levels", "3", "--out", str(out)]
    assert main([*argv, "--p", "nan"]) == 2
    assert "p must be >= 1, got nan" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": float("nan")}))  # written as NaN
    assert main([*argv, "--config", str(cfg_path)]) == 2
    assert "p must be >= 1, got nan" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--p", "inf"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw",
    [
        {"levels": "3"},
        {"levels": 3.0},
        {"n_max": True},
        {"p": "1"},
        {"tail_rank": "1"},
        {"weights": None},
    ],
)
def test_mistyped_config_values_exit_2(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "x.csv"
    code = main(["converge", "--group", "2,3", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_accepts_int_p_and_null_optionals(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": 2, "levels": None, "point": None, "n_max": 4}))
    out = tmp_path / "x.csv"
    assert main(["converge", "--group", "2,3", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()


def test_config_int_p_beyond_float_range_exits_2(tmp_path, capsys):
    # JSON keeps an integer p exact; 10^400 ended in an OverflowError traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": 10**400}))
    out = tmp_path / "x.csv"
    assert main(["converge", "--group", "2,3", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: p must be within float range\n"
    assert not out.exists()


def test_unknown_command_and_flags_exit_2(capsys):
    assert main(["mystery-command"]) == 2
    assert main(["kernel-profile", "--mystery"]) == 2
    capsys.readouterr()


def test_seed_is_no_flag_or_config_key(tmp_path, capsys):
    # the seed of a random function is written in its spec, random:SEED; a
    # bare random draws seed 0
    argv = ["converge", "--group", "2,3", "--levels", "3", "--weights", "riesz"]
    out = tmp_path / "x.csv"
    assert main([*argv, "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: vilenkin ")
    assert err[-1] == "vilenkin: error: unrecognized arguments: --seed 3"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3}))
    assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys ['seed']\n"
    assert not out.exists()
    bare, zero = tmp_path / "bare.csv", tmp_path / "zero.csv"
    assert main([*argv, "--function", "random", "--out", str(bare)]) == 0
    assert main([*argv, "--function", "random:0", "--out", str(zero)]) == 0
    capsys.readouterr()
    assert bare.read_bytes() == zero.read_bytes()


def test_csv_artifacts_are_deterministic(tmp_path):
    argv = [
        "converge",
        "--group",
        "2,3,2",
        "--weights",
        "riesz",
        "--function",
        "random:7",
        "--p",
        "1",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["classify-weights", "--weights", "riesz", "--n-max", "100"])
    assert code == 0
    assert (tmp_path / "classify_weights.csv").exists()


def test_run_rejects_unknown_command():
    from vilenkin.cli import ConfigError

    with pytest.raises(ConfigError):
        run("mystery", ExperimentConfig())


def test_config_error_naming_a_two_line_path_is_one_line(tmp_path, capsys):
    # the path was printed as is, so a newline in it split the error in two
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out": str(tmp_path / "x\ny" / "z.csv")}))
    assert main(["classify-weights", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output directory {tmp_path}/x\\ny does not exist\n"
