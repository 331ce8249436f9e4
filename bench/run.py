#!/usr/bin/env python3
"""Benchmark of parafermi-jc's frequency scans: end-to-end metrics, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload staircase --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

The package is imported from ``src/`` of the checkout this file sits in; the
run refuses to start (exit 2, no result line) when that source is missing.
Numpy's thread pools are pinned to one thread and ``PARAFERMI_JC_THREADS``
is left at its default, so the loop is single-process and single-threaded.
See ``bench/README.md`` for workloads and metrics.
"""

import os
import sys
from pathlib import Path

# before numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PARAFERMI_JC_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "parafermi_jc" / "__init__.py"


def main() -> int:
    if not SOURCE.is_file():
        print(f"error: package source {SOURCE.relative_to(ROOT)} not found; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
