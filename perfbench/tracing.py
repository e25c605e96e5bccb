"""Run one vilenkin CLI job with its public functions wrapped in span recorders.

Usage: python perfbench/tracing.py SPANS_JSON JOB_ID CLI_ARG...

Every public function defined in a ``vilenkin.<layer>`` module is wrapped, and
the wrapper is bound wherever a ``vilenkin.*`` module binds that function, so
``from .group import digit_table`` in ``transform`` is caught as well.  Spans
(name, start and end in perf_counter nanoseconds, parent, M_N, N) stay in
memory and are written as JSON, tagged with the job id, when the job ends;
``summarize`` turns them into per-function calls, self time, cells and
computed bytes.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("group", "transform", "kernels", "means", "points", "cli")

# Functions whose calls also record the grid they ran on.
SIZED = ("transform.forward", "transform.inverse", "transform.character_row")

# Computed (not measured) bytes: each of the N butterfly stages of a forward
# or inverse transform reads and writes the M_N complex128 vector, and a
# character row writes one M_N complex128 vector.
COMPLEX_BYTES = 16


def _grid_of(args: tuple) -> tuple[int, int]:
    """(M_N, N) of the first argument that is a GroupSpec or carries one."""
    for arg in args:
        spec = getattr(arg, "spec", arg)
        size = getattr(spec, "size", None)
        levels = getattr(spec, "levels", None)
        if isinstance(size, int) and isinstance(levels, int):
            return size, levels
    return 0, 0


class Recorder:
    """In-memory span list shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # A span's slot is taken on entry and filled on exit, so a parent
        # always precedes its children and every slot is filled once the
        # outermost call has returned.
        self.spans: list[tuple | None] = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size, levels = _grid_of(args) if sized else (0, 0)
                spans[idx] = (name_id, start, end, parent, size, levels)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every public vilenkin function; returns the wrapped names."""
        import vilenkin.cli  # noqa: F401  loads every layer module

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name.startswith("vilenkin.") and name != "vilenkin.__main__"
        }
        binders = [sys.modules["vilenkin"], *modules.values()]
        wrapped = []
        for modname, mod in sorted(modules.items()):
            layer = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != modname
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for binder in binders:
                    for bound_as, value in list(vars(binder).items()):
                        if value is obj:
                            setattr(binder, bound_as, wrapper)
                wrapped.append(f"{layer}.{attr}")
        return wrapped

    def dump(self, path: str, job_id: str, wrapped: list[str]) -> None:
        record = {"job": job_id, "names": self.names, "wrapped": wrapped, "spans": self.spans}
        with open(path, "w") as fh:
            fh.write(json.dumps(record))  # dumps has a C encoder; dump does not


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per-function calls, self time, cells and computed bytes from one dump.

    A span's self time is its duration minus the durations of its direct
    children, so time in numpy or in private helpers counts towards the
    innermost public function that called it.
    """
    spans = dump["spans"]
    child_time = [0] * len(spans)
    for name_id, start, end, parent, size, levels in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name_id, start, end, parent, size, levels) in enumerate(spans):
        row = out.setdefault(
            dump["names"][name_id], {"calls": 0, "self_s": 0.0, "cells": 0, "bytes": 0}
        )
        row["calls"] += 1
        row["self_s"] += ((end - start) - child_time[i]) * 1e-9
        row["cells"] += size
        if dump["names"][name_id] == "transform.character_row":
            row["bytes"] += COMPLEX_BYTES * size
        else:
            row["bytes"] += 2 * COMPLEX_BYTES * size * levels
    return out


def main(argv: list[str]) -> int:
    spans_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    wrapped = recorder.install()
    import vilenkin.cli

    try:
        return vilenkin.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, job_id, wrapped)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
