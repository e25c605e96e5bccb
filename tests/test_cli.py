"""End-to-end runs of the command-line drivers."""

import json
import os
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import vilenkin
import vilenkin.cli
import vilenkin.kernels
import vilenkin.means
import vilenkin.transform
from vilenkin.cli import FAST_REPEATS, ExperimentConfig, load_config, main, run
from vilenkin.group import make_group
from vilenkin.means import parse_weights


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
    # Reflection and block are held to 1e-12 * M_r, every other check to an
    # absolute 1e-12: a weight-sum residual of 2e-12 fails although it is
    # below 1e-12 * M_r for every rank r >= 1.
    if name == "reflection_residuals":
        fake = lambda spec: ((r, 0, factor * 1e-12 * spec.M[r]) for r in range(4))
    elif name == "identity_residual":
        fake = lambda kind, spec, weights, rank: factor * 1e-12 * spec.M[rank]
    else:
        fake = lambda w, n: factor * 1e-12
    monkeypatch.setattr(vilenkin.cli, name, fake)
    args = ["--group", "2,3", "--levels", "3", "--weights", "riesz"]
    assert main(["identity-check", *args, "--out", str(tmp_path / "i.csv")]) == status
    lines = capsys.readouterr().out.splitlines()
    verdict = "FAIL" if status else "ok"
    assert [line for line in lines if f" {check}:" in line][0].endswith(verdict)
    assert sum(line.endswith("FAIL") for line in lines) == status


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
    oracle_characters = vilenkin.means._characters
    forward = vilenkin.means.forward

    def rows_built(spec, ns, *args):
        # every character row, by whichever route, is built from its phases here
        calls["character rows"] += len(ns)
        return phase_rows(spec, ns, *args)

    def oracle_batch(*args):
        calls["oracle batches"] += 1
        return oracle_characters(*args)

    def counted_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    monkeypatch.setattr(vilenkin.transform, "_phase_rows", rows_built)
    monkeypatch.setattr(vilenkin.means, "_characters", oracle_batch)
    monkeypatch.setattr(vilenkin.means, "forward", counted_forward)
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
    # the status, and must print no traceback
    out, err = tmp_path / "piped.csv", tmp_path / "stderr.txt"
    path = [str(Path(vilenkin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    args = ["identity-check", "--group", "2,3", "--levels", "3", "--out"]
    with open(err, "wb") as err_fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "vilenkin", *args, str(out)],
            stdout=subprocess.PIPE,
            stderr=err_fh,
            env=env,
        )
        proc.stdout.close()  # before the child has written its first line
        code = proc.wait(timeout=120)
    assert err.read_text() == ""
    assert code == 0
    assert main([*args, str(tmp_path / "direct.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()


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


def test_bench_transform_agrees(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench-transform", "--group", "2,3", "--levels", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r["method"] for r in rows] == ["naive", "fast"]
    assert all(float(r["max_abs_diff"]) <= 1e-10 for r in rows)


def test_bench_transform_warms_up_and_repeats_fast_route(tmp_path, monkeypatch):
    # the first call fills the root and stage-matrix caches, so the timed
    # runs measure the transform alone; the fast time is a median
    methods = []
    real = vilenkin.cli.forward

    def counted(f, method="fast"):
        methods.append(method)
        return real(f, method)

    monkeypatch.setattr(vilenkin.cli, "forward", counted)
    out = tmp_path / "bench.csv"
    assert main(["bench-transform", "--group", "2,3", "--levels", "3", "--out", str(out)]) == 0
    assert methods == ["fast", "naive"] + ["fast"] * FAST_REPEATS


def test_bench_transform_refuses_hour_long_naive_runs(tmp_path, monkeypatch, capsys):
    # the naive route is O(M_N^2): refused with exit 2 before any transform
    # runs, with the grid size and the cell-product estimate in the message
    def refused(*args, **kwargs):
        raise AssertionError("no transform may run on a refused grid")

    monkeypatch.setattr(vilenkin.transform, "_forward_naive", refused)
    monkeypatch.setattr(vilenkin.cli, "forward", refused)
    out = tmp_path / "bench.csv"
    args = ["bench-transform", "--group", "2", "--levels", "16", "--out", str(out)]
    assert vilenkin.cli.MAX_NAIVE_SIZE < 2**16
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "M_N = 65536" in err and "4.29e+09" in err
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
        {"seed": True},
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


def test_unknown_command_and_flags_exit_2(capsys):
    assert main(["mystery-command"]) == 2
    assert main(["kernel-profile", "--mystery"]) == 2
    capsys.readouterr()


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
