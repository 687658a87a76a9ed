"""The benchmark's inputs stay valid: each workload of
``perfbench/workloads.py`` sets up, and the command-line workload's config
runs through ``possfit.cli.main`` with outputs its own check accepts.

A config reader that turned stricter and rejected a key the benchmark
writes would otherwise show only in a benchmark run, as failed operations.
The benchmark's files are read here, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from possfit import cli

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_sets_up(name):
    assert workloads.WORKLOADS[name](7).name == name


def test_cli_workload_config_runs(tmp_path):
    workload = workloads.BinomialHypothesisCli(7, reps=2)
    cfg = workload.config(0, tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["--config", str(path), "--threads", "1"]) == 0
    assert workloads._cli_outputs_ok(cfg, 2)
