"""Shared fixtures and helpers.

A recorder that prints one line per acceptance criterion, a recorder of
butterfly calls, a tracer of a block's peak traced memory, the repository
root and the environment of a child interpreter.  Test modules import the
helpers as ``from conftest import ...``.
"""

import os
import tracemalloc
from pathlib import Path

import pytest

import vilenkin

ROOT = Path(__file__).resolve().parents[1]


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child interpreter that imports this vilenkin, plus extra.

    A RuntimeWarning (numpy's overflow or invalid value) is an error in the
    child too, as the filter in pyproject.toml makes it one in process.
    """
    path = [str(Path(vilenkin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, path)),
        PYTHONWARNINGS="error::RuntimeWarning",
        **extra,
    )


class TracedPeak:
    """tracemalloc over a with block: .peak holds the block's peak traced bytes once it ends."""

    def __enter__(self) -> "TracedPeak":
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    """Record and print 'criterion N name: PASS/FAIL (detail)' lines."""

    def log(number, name, ok, detail=""):
        line = f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        _LINES.append(line)
        print(line)

    return log


def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def butterflies(monkeypatch):
    """Record (inverse, rows, M_s) of every butterfly call; a vector is one row."""
    import vilenkin.transform

    calls = []
    stages = vilenkin.transform._apply_stages

    def recorded(spec, data, inverse):
        calls.append((inverse, data.size // data.shape[-1], data.shape[-1]))
        return stages(spec, data, inverse)

    monkeypatch.setattr(vilenkin.transform, "_apply_stages", recorded)
    return calls
