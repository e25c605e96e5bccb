"""Every pytest selection that the CI workflow names exists.

The workflow's check steps call tests by node id, so a renamed test or
``RUNS`` key would otherwise fail only in CI.  One ``--collect-only`` child
collects every selection: an unknown node id makes it exit 4, and each
selection must collect at least one test.
"""

import re
import subprocess
import sys

from conftest import ROOT, child_env

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def selections() -> list[str]:
    """Every tests/ path or node id on the workflow's lines, its comments left out."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    code = [line for line in lines if not line.lstrip().startswith("#")]
    return re.findall(r"tests/[^\s\"']+", "\n".join(code))


def test_workflow_names_only_tests_that_exist():
    named = selections()
    assert named, f"{WORKFLOW} names no pytest selection"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    for selection in named:
        assert any(
            test == selection or test.startswith((f"{selection}::", f"{selection}["))
            for test in collected
        ), f"{selection} collects no test"
