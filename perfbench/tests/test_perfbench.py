"""Tests of the benchmark itself (not of possfit).

    python3 -m pytest -q perfbench/tests

The traced-count tests run real workload operations at reduced batch sizes
and take about a minute on two cores.
"""

import json
import random
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quantiles import median, quartiles, relative_spread  # noqa: E402

COUNTED = ("sim_datasets", "cens_datasets", "contour_points", "sa_iterations", "cal_reps")


def test_quartiles_match_the_standard_library():
    rng = random.Random(5)
    for n in range(2, 40):
        xs = [rng.uniform(-3.0, 10.0) for _ in range(n)]
        assert quartiles(xs) == pytest.approx(statistics.quantiles(xs, n=4), abs=1e-12)
        assert median(xs) == pytest.approx(statistics.median(xs), abs=1e-12)


def test_quantile_helpers_on_small_samples():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    # exclusive method on 1..4: positions 1.25, 2.5, 3.75
    assert quartiles([4, 2, 3, 1]) == pytest.approx((1.25, 2.5, 3.75))
    assert relative_spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx((3.75 - 1.25) / 2.5)
    with pytest.raises(ValueError):
        median([])


def test_op_ref_is_the_operation_time_over_the_reference_time():
    class Steady:
        work, primary = 1, "t"

        def op(self, k):
            return workloads.OpResult(work=1, figures={"t": 0.5 + k})

    results, windows, refs = run.measure(Steady(), seconds=0.0, max_ops=3)
    assert len(refs) == 3 * run.REF_PASSES and min(refs) > 0.0
    summary = run.summarize(Steady(), results, windows, refs)
    assert summary["op_s"] == 1.5
    assert summary["op_ref"] == pytest.approx(1.5 / median(refs))


def _inputs(name: str, seed: int):
    w = workloads.WORKLOADS[name](seed)
    if name == "bvn-fit-vs-grid":
        return w.dataset(0).responses
    if name == "binomial-hypothesis-cli":
        return w.first_config["seed"]
    return w.first_scenario.seed


def test_run_offers_every_workload():
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert np.array_equal(_inputs(name, 3), _inputs(name, 3))
    assert not np.array_equal(_inputs(name, 3), _inputs(name, 4))


def _traced_counts(name: str, seed: int, **kwargs) -> dict:
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        workload = workloads.WORKLOADS[name](seed, **kwargs)
        if hasattr(workload, "spans_sink"):
            workload.spans_sink = tracer
        results, windows, _ = run.measure(workload, seconds=0.0, max_ops=1)
    finally:
        restore()
    assert all(r is not None and r.failed == 0 for r in results)
    layers = spans.layer_metrics(tracer, windows, ops=1)
    assert layers["trace.coverage"][1] >= 0.9
    return {key: tracer.counts[key] for key in COUNTED}


def test_bvn_counts_repeat_for_the_same_seed():
    first = _traced_counts("bvn-fit-vs-grid", 11)
    # every evaluation but the 100 closed-form grid nodes simulates m = 500
    assert first["sim_datasets"] == 500 * (first["contour_points"] - 100)
    assert first == _traced_counts("bvn-fit-vs-grid", 11)


@pytest.mark.parametrize("name", ["lasso-vector-study", "censored-validity"])
def test_study_counts_repeat_and_ignore_threads(name):
    one = _traced_counts(name, 7, threads=1, reps=2)
    assert one["cal_reps"] == 2 and one["sim_datasets"] + one["cens_datasets"] > 0
    assert one == _traced_counts(name, 7, threads=1, reps=2)
    assert one == _traced_counts(name, 7, threads=2, reps=2)


def test_cli_counts_repeat_for_the_same_seed():
    first = _traced_counts("binomial-hypothesis-cli", 2, reps=2)
    assert first["cal_reps"] == 2 and first["sa_iterations"] >= 10
    assert first == _traced_counts("binomial-hypothesis-cli", 2, reps=2)


def test_tracing_is_removed_again():
    import possfit.sa

    original = possfit.sa.fit_scalar
    restore = spans.install(spans.Tracer())
    assert possfit.sa.fit_scalar is not original
    restore()
    assert possfit.sa.fit_scalar is original


def test_cli_output_check_rejects_a_decreasing_curve(tmp_path):
    w = workloads.BinomialHypothesisCli(1, reps=2)
    cfg = w.config(0, tmp_path)
    curves = [[0.0, 0.5, 1.0]] * 3
    doc = {"curves": curves, "values": [[0.2, 0.7]] * 3, "failures": []}
    rows = ["# possfit calibrate", "alpha,cdf_1,cdf_2,cdf_3"]
    rows += [f"{a},{c},{c},{c}" for a, c in zip((0.1, 0.5, 0.9), curves[0])]

    def write(doc, rows):
        Path(cfg["output"]["json"]).write_text(json.dumps(doc))
        Path(cfg["output"]["csv"]).write_text("\n".join(rows) + "\n")

    write(doc, rows)
    assert workloads._cli_outputs_ok(cfg, reps=2)
    bad = dict(doc, curves=[[0.0, 0.6, 0.5]] * 3)
    bad_rows = rows[:2] + [f"{a},{c},{c},{c}" for a, c in zip((0.1, 0.5, 0.9), (0.0, 0.6, 0.5))]
    write(bad, bad_rows)
    assert not workloads._cli_outputs_ok(cfg, reps=2)
