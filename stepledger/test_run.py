"""The runner's workload table against ``BENCHMARK.json``.

Run from the root of a source checkout::

    python3 -m pytest stepledger -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_runner_runs_exactly_the_listed_workloads():
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in listed] == list(run.WORKLOADS)

