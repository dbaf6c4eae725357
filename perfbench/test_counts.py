"""Exact-count test of the benchmark's traced run.

Two traced runs of one workload on one seed must report the same counts:
every ``.calls``, the computed bytes and GFLOP, ``numerics.kernel_dim_excess``,
``cli.report_bytes`` and the ratios built from counts.  Times are excluded.

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = [
    w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
]


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload, 7), traced_metrics(workload, 7)
    counts = {
        name for name, metric in first.items()
        if metric["unit"] != "s" and name != "trace.coverage"
    }
    assert {"verification.superop_bytes", "numpy.linalg.gflop_computed",
            "numerics.kernel_dim_excess", "cli.report_bytes"} <= counts
    for name in sorted(counts):
        assert first[name]["value"] == second[name]["value"], name
