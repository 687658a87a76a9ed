"""The benchmark's four workloads.

Constructing a workload is its set-up: it builds the model and generates
the inputs from the seed.  ``op(k)`` then runs operation ``k`` (the k-th
dataset, study batch or CLI run), checks the program's outputs and returns
an :class:`OpResult`.  Inputs depend only on the seed and ``k``; the
program sees only those inputs (data, scenarios, a config file), never the
benchmark's seed itself.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from possfit import calibration, cli, contours, families, models, sa

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

# stated tolerance on the L1 distance between the fitted and the naive grid
# (Riemann sum over the axis); seeded runs at the parent commit gave 0.008-0.016
BVN_L1_TOL = 0.03


@dataclass
class OpResult:
    work: int  # units of work attempted: datasets, replications or CLI runs
    failed: int = 0  # of those, failed by an error or a failed output check
    figures: dict = field(default_factory=dict)  # seconds, by figure name


def derived_seed(seed: int, *key: int) -> int:
    """A 63-bit integer seed for the program, derived from the bench seed."""
    state = np.random.SeedSequence([int(seed), *key]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def in_unit_interval(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v) & (v >= 0.0) & (v <= 1.0)))


class BvnFitVsGrid:
    """Naive 100-node Monte-Carlo grid against a stock scalar fit plus its
    closed-form grid, on one bvn-correlation dataset per operation.

    A stock fit stops after 5 to 10 or more SA iterations, at random, so its
    wall time swings by a factor of two between datasets.  The gated figure
    is therefore per Monte-Carlo contour evaluation (m = 500), the unit both
    methods are made of (``s_per_eval``).  The fit's and the grid's own wall
    times are printed alongside.
    """

    name = "bvn-fit-vs-grid"
    primary = "s_per_eval"
    work = 1
    RHO, N, M, SETUP_DATASETS = 0.5, 100, 500, 8
    TAG = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.model = models.bvn_correlation()
        self.axes = (contours.AxisSpec(-0.99, 0.99, 100, name="rho"),)
        self.datasets = [self._generate(k) for k in range(self.SETUP_DATASETS)]

    def dataset(self, k: int) -> models.Dataset:
        return self.datasets[k] if k < len(self.datasets) else self._generate(k)

    def _generate(self, k: int) -> models.Dataset:
        rng = np.random.default_rng([self.seed, self.TAG, k])
        z = rng.standard_normal((self.N, 2))
        x2 = self.RHO * z[:, 0] + np.sqrt(1.0 - self.RHO ** 2) * z[:, 1]
        return models.Dataset(responses=np.column_stack([z[:, 0], x2]))

    def op(self, k: int) -> OpResult:
        data = self.dataset(k)
        child = derived_seed(self.seed, self.TAG, k)
        t0 = perf_counter()
        naive = contours.grid_eval(
            contours.make_mc_contour(self.model, data, self.M, seed=child), self.axes
        )
        t1 = perf_counter()
        config = sa.SAConfig(seed=child)
        family, trace = sa.fit_scalar(self.model, data, config)
        fitted = contours.grid_eval(families.gaussian_contour_object(family), self.axes)
        t2 = perf_counter()
        evals = naive.values.size + len(trace.ts) * config.k_outer
        width = self.axes[0].hi - self.axes[0].lo
        l1 = float(np.mean(np.abs(fitted.values - naive.values)) * width)
        ok = in_unit_interval(naive.values) and in_unit_interval(fitted.values) and l1 <= BVN_L1_TOL
        return OpResult(work=self.work, failed=int(not ok), figures={
            "grid_s": t1 - t0, "fit_s": t2 - t1, "l1": l1, "s_per_eval": (t2 - t0) / evals,
        })


class _Study:
    """One ``validity_study`` batch of ``reps`` replications per operation."""

    primary = "s_per_rep"
    THREADS = 2

    def __init__(self, seed: int, threads: int = THREADS, reps: int = 0):
        self.seed, self.threads = int(seed), int(threads)
        self.reps = self.work = int(reps or self.REPS)
        self.first_scenario = self.scenario(0)

    def scenario(self, k: int) -> calibration.Scenario:
        raise NotImplementedError

    def extra_check(self, report) -> bool:
        return True

    def op(self, k: int) -> OpResult:
        scenario = self.scenario(k)
        start = perf_counter()
        try:
            report = calibration.validity_study(scenario, threads=self.threads)
        except calibration.StudyError as exc:
            # more than 5% of the batch failed, so the study reports nothing
            sys.stderr.write(f"{self.name}: {exc}\n")
            return OpResult(work=self.work, failed=self.work,
                            figures={"s_per_rep": (perf_counter() - start) / self.reps})
        wall = perf_counter() - start
        failed = len(report.failures)
        complete = len(report.values) + failed == self.reps
        if not (complete and in_unit_interval(report.values) and self.extra_check(report)):
            failed = self.work
        return OpResult(work=self.work, failed=failed, figures={"s_per_rep": wall / self.reps})


class LassoVectorStudy(_Study):
    """Sparse normal means under the lasso, per-direction (vector) fits."""

    name = "lasso-vector-study"
    REPS, N = 4, 50
    TRUTH = (5.0,) * 5 + (0.0,) * (N - 5)
    TAG = 2

    def scenario(self, k: int) -> calibration.Scenario:
        return calibration.Scenario(
            model_id="normal-means-lasso", truth=self.TRUTH, n=self.N, reps=self.reps,
            method="variational-vector", seed=derived_seed(self.seed, self.TAG, k),
            sa=sa.SAConfig(seed=0, alpha=0.1),
        )

    def op(self, k: int) -> OpResult:
        # the study returns only contour values, so the fitted spreads are
        # taken from the fit calls themselves, for this operation only
        fit = calibration.fit_vector
        self.spreads = []  # (mean signal xi, mean noise xi) per fit of this batch
        calibration.fit_vector = functools.partial(_observed_fit, fit, self.spreads)
        try:
            return super().op(k)
        finally:
            calibration.fit_vector = fit

    def extra_check(self, report) -> bool:
        # the sparse-means acceptance rule: signal spreads exceed noise spreads
        if not self.spreads:
            return False
        signal, noise = np.mean(self.spreads, axis=0)
        return bool(signal > noise)


def _observed_fit(fit, sink: list, model, data, config, *args, **kwargs):
    """``fit`` that also records (mean signal xi, mean noise xi) of its family."""
    family, trace = fit(model, data, config, *args, **kwargs)
    coord = np.argmax(np.abs(family.eigvecs), axis=0)
    xi = np.empty(family.dim)
    xi[coord] = family.xi
    sink.append((float(xi[:5].mean()), float(xi[5:].mean())))
    return family, trace


class CensoredValidity(_Study):
    """Left-censored log-normal with the product-limit censoring plug-in."""

    name = "censored-validity"
    REPS = 16
    TAG = 3

    def scenario(self, k: int) -> calibration.Scenario:
        return calibration.Scenario(
            model_id="lognormal-censored", truth=(0.3, 0.49), n=60, reps=self.reps,
            method="censored", seed=derived_seed(self.seed, self.TAG, k), m=2000,
            model_kwargs={"limits": [0.8]},
        )


class BinomialHypothesisCli:
    """``possfit --config cfg --threads 1``: a hypothesis-calibration run on
    the binomial with three true hypotheses.

    Each operation is one ``possfit.cli.main`` call in the benchmark's own
    process.  The interpreter start and the import, which a user pays on
    every command-line run, are measured as set-up (``setup_s``) in fresh
    interpreters; together the two make a whole run from process start.
    """

    name = "binomial-hypothesis-cli"
    primary = "cli_run_s"
    work = 1
    THREADS, REPS = 1, 12
    TAG = 4

    def __init__(self, seed: int, reps: int = REPS):
        self.seed, self.reps = int(seed), int(reps)
        self.spans_sink = None  # a Tracer that counts the bytes written
        self.first_config = self.config(0, Path("out"))

    def config(self, k: int, outdir: Path) -> dict:
        return {
            "command": "calibrate",
            "model": "binomial",
            "truth": [0.4],
            "n": 30,
            "reps": self.reps,
            "method": "variational-scalar",
            "seed": derived_seed(self.seed, self.TAG, k),
            "sa": {},
            "hypotheses": [
                {"kind": "half-space", "a": [1.0], "b": 0.3},
                {"kind": "box", "bounds": [[0.3, 0.6]]},
                {"kind": "box-complement", "bounds": [[0.5, 0.9]]},
            ],
            "output": {"csv": str(outdir / "cal.csv"), "json": str(outdir / "cal.json")},
        }

    def op(self, k: int) -> OpResult:
        outdir = SCRATCH / f"cli-{os.getpid()}-{k}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        try:
            cfg = self.config(k, outdir)
            cfg_path = outdir / "config.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            start = perf_counter()
            try:
                code = cli.main(["--config", str(cfg_path), "--threads", str(self.THREADS)])
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            wall = perf_counter() - start
            ok = code == 0 and _cli_outputs_ok(cfg, self.reps)
            if self.spans_sink is not None and ok:
                self.spans_sink.add(cli_bytes=sum(
                    Path(p).stat().st_size for p in cfg["output"].values()))
            return OpResult(work=self.work, failed=int(not ok), figures={"cli_run_s": wall})
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


def _cli_outputs_ok(cfg: dict, reps: int) -> bool:
    """Both artifacts parse, agree, hold monotone CDF curves in [0, 1], and
    record no failed replication."""
    try:
        doc = json.loads(Path(cfg["output"]["json"]).read_text(encoding="utf-8"))
        with open(cfg["output"]["csv"], encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except (OSError, ValueError):
        return False
    k = len(cfg["hypotheses"])
    try:
        header = rows[0]
        table = np.array(rows[1:], dtype=float)
        curves = np.asarray(doc["curves"], dtype=float)
        values = np.asarray(doc["values"], dtype=float)
    except (IndexError, KeyError, ValueError):
        return False
    return bool(
        header == ["alpha"] + [f"cdf_{j + 1}" for j in range(k)]
        and table.shape == (curves.shape[1], k + 1)
        and curves.shape[0] == k
        and np.array_equal(table[:, 1:].T, curves)
        and in_unit_interval(curves)
        and np.all(np.diff(curves, axis=1) >= 0.0)
        and values.shape == (k, reps)
        and in_unit_interval(values)
        and not doc.get("failures")
    )


WORKLOADS = {
    w.name: w for w in (BvnFitVsGrid, LassoVectorStudy, CensoredValidity, BinomialHypothesisCli)
}
