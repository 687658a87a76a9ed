"""possfit benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up several times in fresh interpreters (``setup_s``), sets up
once more in this process, then runs the workload's operations until the
time is spent, checking every output.  Human-readable figures go to stdout
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import os

# the workloads' own threads are the parallelism (at most 2, the core
# count); BLAS threads on top of them would oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from quantiles import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# the keys of workloads.WORKLOADS, listed here because importing that module
# imports possfit, which the run must time itself
WORKLOAD_NAMES = ("bvn-fit-vs-grid", "lasso-vector-study", "censored-validity",
                  "binomial-hypothesis-cli")
SETUP_SAMPLES = 3
# one reference pass takes about 35 ms on a 2.1 GHz Xeon core
REF_GRAMS, REF_PASSES = 12, 3
SETUP_TIMEOUT_S = 60


def setup_probe(workload: str, seed: int) -> tuple[float, list]:
    """Wall time of one set-up in a fresh interpreter, and its import interval."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed)],
        capture_output=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    wall = perf_counter() - start
    return wall, json.loads(proc.stdout.decode().splitlines()[-1])["import"]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference() -> float:
    """Wall time of one pass of a fixed numpy computation that runs no possfit
    code: Gram matrices of seeded normal draws and their eigenvalues.

    This host's speed drifts by a third and more over minutes.  Operations
    and reference passes slow down together, so an operation's time over
    the reference time (``op_ref``) is steady where seconds are not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    start = perf_counter()
    for _ in range(REF_GRAMS):
        draws = rng.standard_normal((2000, 60))
        np.linalg.eigvalsh(draws.T @ draws)
    return perf_counter() - start


def measure(workload, seconds: float, max_ops=None):
    """Run operations until ``seconds`` are spent (or ``max_ops`` ran).

    After each operation, untimed by it, :func:`reference` runs
    ``REF_PASSES`` times.  A further operation starts only if, at the
    median durations so far, it would end less than half an operation past
    the deadline.  An operation that raises counts all its work as failed; the
    run goes on.  Returns the results, the operations' (start, end) windows
    and the reference times.
    """
    results, windows, durations, refs = [], [], [], []
    begin = perf_counter()
    k = 0
    while True:
        start = perf_counter()
        try:
            result = workload.op(k)
        except Exception:
            traceback.print_exc()
            result = None
        end = perf_counter()
        results.append(result)
        windows.append((start, end))
        refs += [reference() for _ in range(REF_PASSES)]
        durations.append(perf_counter() - start)
        k += 1
        if max_ops is not None:
            if k >= max_ops:
                break
        elif perf_counter() - begin + 0.5 * median(durations) >= seconds:
            break
    return results, windows, refs


def summarize(workload, results, windows, refs) -> dict:
    """The run's figures: end-to-end metrics plus the issue-level figures."""
    attempted = sum(r.work if r else workload.work for r in results)
    failed = sum(r.failed if r else workload.work for r in results)
    ok = [r for r in results if r]
    figures = {}
    for r in ok:
        for key, value in r.figures.items():
            figures.setdefault(key, []).append(value)
    wall = sum(b - a for a, b in windows)
    # with no operation completed, the time spent per attempt stands in
    op_s = median(figures[workload.primary] if ok else [b - a for a, b in windows])
    return {
        "attempted": attempted,
        "failed": failed,
        "figures": figures,
        "op_s": op_s,
        "ref_s": median(refs),
        "op_ref": op_s / median(refs),
        "work_per_s": sum(r.work for r in ok) / wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "possfit" / "__init__.py").is_file():
        print(f"perfbench: no possfit package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]

    start = perf_counter()
    import possfit.cli  # noqa: F401
    imported = perf_counter()
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        for _, (a, b) in probes:
            tracer.record("cli.import", a, b)
        tracer.record("cli.import", start, imported)
        spans.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None and hasattr(workload, "spans_sink"):
        workload.spans_sink = tracer

    results, windows, refs = measure(workload, args.seconds)
    summary = summarize(workload, results, windows, refs)

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    setup = [wall for wall, _ in probes]
    print(f"setup_s      median {median(setup):.4f} s  (n={len(setup)})")
    for key, values in sorted(summary["figures"].items()):
        unit = "" if key == "l1" else "s"
        print(f"{key:<12} median {median(values):.6g} {unit}  (n={len(values)})")
    fig = summary["figures"]
    if "fit_s" in fig:
        print(f"fit_s/grid_s {median(fig['fit_s']) / median(fig['grid_s']):.2f}  "
              f"(ratio of medians; base grid_s = {median(fig['grid_s']):.4f} s)")
    if workload.primary == "s_per_rep":
        print(f"reps_per_s   {summary['work_per_s']:.4f} 1/s  (reps completed / study wall)")
    print(f"op_s         {summary['op_s']:.6g} s  (median of the figure above)")
    print(f"ref_s        median {summary['ref_s']:.6g} s  (n={len(refs)})")
    print(f"op_ref       {summary['op_ref']:.6g}  (op_s / ref_s)")
    print(f"failed_frac  {summary['failed'] / summary['attempted']:.4f}  "
          f"({summary['failed']} of {summary['attempted']})")

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        layers = spans.layer_metrics(tracer, windows, summary["attempted"])
        # op_s under tracing: minus an untraced run's op_s, the tracing overhead
        layers["trace.op_s"] = ("s", summary["op_s"])
        metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "op_ref": {"value": summary["op_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
