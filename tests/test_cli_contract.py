"""The command line's exit-code contract as a property of its whole input surface.

Every subcommand's argv is built from the parser's own flags, each value
drawn from tokens the flag accepts and from boundary tokens (0, -1,
subnormal, huge, NaN, infinite, 20-digit, truncated, empty and two-line),
with an optional --config file that may be malformed.  Run in process on
grids of at most 2^6 cells with warnings as errors, every run must end with
status 0 (ok), 1 (a numeric check failed) or 2 (bad configuration) and no
exception.  At status 2 stderr is one ``config error:`` line, or argparse's
usage block ending in one error line; at status 0 or 1 every number in the
CSV is finite.
"""

import contextlib
import csv
import io
import json
import math
import os
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin.cli
from vilenkin.cli import main

BOUNDARY = ["0", "-1", "1e-320", "1e308", "nan", "inf", "12345678901234567890", "2,", "", "x\ny"]

# (group, levels) pairs of at most 2^6 cells
GRIDS = [("2", "6"), ("2,3", "3"), ("3", "3"), ("2,3", "4"), ("5,3", "2"), ("4,2", "4"), ("2", "1")]

VALID = {
    "--weights": [
        "constant", "riesz", "nlog", "cesaro:0.5", "icesaro:0.3", "power:0.5", "logpow:0.5",
        "cesaro:1e-17", "logpow:1e-320", "cesaro:", "riesz:0.5",
    ],
    "--family": ["dirichlet", "fejer", "t", "norlund"],
    "--n-max": ["1", "2", "3", "5", "12", "36", "64"],
    "--tail-rank": ["0", "1", "2", "6"],
    "--function": [
        "random", "random:3", "random:1,2", "constant", "character:3", "character:63",
        "indicator:1,0", "indicator:2", "character:12345678901234567890", "random:-1",
    ],
    "--point": ["0", "1,0", "0,1,0", "1,2,1", "1,1,1,1", "0,0,0,0,0,0"],
    "--p": ["1", "1.5", "2", "2.5", "60", "200", "1000", "1e19", "1e308", "inf"],
    "--form": ["t", "norlund", "partial"],
}

# name -> file contents; None names a missing file
CONFIGS = {
    "list": b"[1, 2]",
    "string-int": json.dumps({"levels": "3"}).encode(),
    "non-utf8": b'\xff\xfe{"p": 2}',
    "nul-out": json.dumps({"out": "x\u0000y"}).encode(),
    "newline-out": json.dumps({"out": "x\ny/z.csv"}).encode(),
    "valid": json.dumps({"weights": "riesz", "p": 2, "n_max": 5}).encode(),
    "nan-p": b'{"p": NaN}',
    "huge-n-max": json.dumps({"n_max": 10**20}).encode(),
    "block": json.dumps({"mode": "block"}).encode(),
    "truncated": b'{"p": ',
    "deeply-nested": b"[" * 100_000 + b"]" * 100_000,
    "missing": None,
}


def _parser_flags():
    """Each subcommand's options as (flag, takes a value), read from the parser."""
    parser = vilenkin.cli._build_parser()
    (sub,) = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
    drawn_apart = ("--help", "--config", "--group", "--levels", "--out")
    return {
        name: [
            (a.option_strings[-1], a.const is None)
            for a in sp._actions
            if a.option_strings and a.option_strings[-1] not in drawn_apart
        ]
        for name, sp in sub.choices.items()
    }


FLAGS = _parser_flags()


def _value(valid):
    """A valid token three times in four, else a boundary one."""
    if not valid:
        return st.sampled_from(BOUNDARY)
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(BOUNDARY))


@st.composite
def invocations(draw):
    """(argv without --config/--out, config name or None, whether to pass --out)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    group, levels = draw(st.sampled_from(GRIDS))
    if draw(st.booleans()):  # else a valid pair, so a run has at most 2^6 cells
        group, levels = draw(_value([group])), draw(_value([levels]))
    argv = [command, f"--group={group}", f"--levels={levels}"]
    flags = st.lists(st.sampled_from(FLAGS[command]), max_size=4, unique=True)
    for flag, takes_value in draw(flags):
        argv.append(f"{flag}={draw(_value(VALID.get(flag, [])))}" if takes_value else flag)
    config = draw(st.none() | st.sampled_from(sorted(CONFIGS)))
    return argv, config, draw(st.booleans())


def _is_usage_error(err: str) -> bool:
    lines = err.splitlines()
    return (
        lines[0].startswith("usage: vilenkin")
        and lines[-1].startswith("vilenkin ")
        and ": error: " in lines[-1]
        and sum(": error: " in line for line in lines) == 1
    )


@settings(max_examples=400, deadline=None)
@given(invocations())
def test_every_argv_keeps_the_exit_code_contract(tmp_path_factory, case):
    argv, config, pass_out = case
    work = tmp_path_factory.mktemp("contract")
    if config is not None:
        path = work / f"{config}.json"
        if CONFIGS[config] is not None:
            path.write_bytes(CONFIGS[config])
        argv = [*argv, f"--config={path}"]
    if pass_out:
        argv = [*argv, f"--out={work / 'out.csv'}"]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)  # a run without --out writes <command>.csv here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status = main(argv)
    finally:
        os.chdir(here)
    err = err.getvalue()
    assert status in (0, 1, 2), argv
    if status == 2:
        one_line = err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert one_line or _is_usage_error(err), (argv, err)
        return
    assert err == "", (argv, err)
    written = sorted(work.glob("*.csv"))
    assert len(written) == 1, argv
    with open(written[0], newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (argv, row)
