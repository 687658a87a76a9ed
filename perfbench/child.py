"""One set-up sample of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed>

Imports possfit and its command line, builds the workload's model and
inputs, prints the import interval as JSON and exits.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    start = perf_counter()
    import possfit.cli  # noqa: F401

    imported = perf_counter()
    import workloads

    workloads.WORKLOADS[argv[0]](int(argv[1]))
    print(json.dumps({"import": [start, imported]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
