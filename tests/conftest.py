"""Shared fixtures: a recorder that prints one line per acceptance criterion."""

import pytest

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
