"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 [--seconds S] [--trace 0|1]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median over the runs and the spread (Q3 - Q1) / median, the
figure BENCHMARK.json's bounds are set against.  Each run's result line,
with the ``op_s`` and ``ref_s`` seconds printed above it, is appended to
``.perfbench_out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from quantiles import median, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def first_number(words):
    for word in words:
        try:
            return float(word)
        except ValueError:
            pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    log = ROOT / ".perfbench_out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workload:
        values, failed = {}, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            failed += result["failed"]
            # the seconds behind op_ref, as printed above the result line
            seconds_of = {line.split()[0]: first_number(line.split()[1:])
                          for line in lines if line.startswith(("op_s ", "ref_s "))}
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **seconds_of,
                                     **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, {failed} failures")
        for name, vals in values.items():
            spread = relative_spread(vals) if len(vals) > 1 and median(vals) else 0.0
            print(f"  {name:<28} median {median(vals):<12.5g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
