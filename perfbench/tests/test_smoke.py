"""Smoke-size runs of every workload, untraced and traced.

Each run must exit 0, end with a correct result line, print every
metric ``BENCHMARK.json`` names, with its declared unit and a name that
matches ``[A-Za-z0-9_.-]+``, and leave no process of its own behind.
Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int,
         cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, int]:
    """Run one smoke-size workload in a session of its own.

    Returns the finished run and its process group id.
    """
    args = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    with subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as popen:
        stdout, stderr = popen.communicate(timeout=170)
    return (subprocess.CompletedProcess(args, popen.returncode, stdout, stderr),
            popen.pid)


def _group_left(pgid: int) -> bool:
    """Whether any process (a zombie too) is left in process group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    proc, pgid = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not _group_left(pgid), "the run left a process behind"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["machine"]["cpu_count"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_spec_maps_every_per_layer_metric() -> None:
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        mapping = spec["per_layer"][metric["name"]]
        assert set(mapping["on"]) <= set(WORKLOADS)
        assert mapping["moves"] in end_to_end | {"none", "serving.query_ms_tail"} or \
            mapping["moves"].startswith("none:")


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc, _ = _run("fit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
