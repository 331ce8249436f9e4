"""Set-up probe: one fresh process times import + one warm-up request.

Usage: python3 bench/probe.py <workload> <seed> <out_path>

Prints the seconds from just before ``import parafermi_jc`` to the end of the
workload's warm-up request (index 0).  Exits 1 if the request raises or the
CLI returns a nonzero code.  Numpy is first imported by the package, so its
import counts too.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import execute, make_request  # noqa: E402  (standard library only)


def main(argv: list[str]) -> int:
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    request = make_request(workload, seed, 0)
    start = time.perf_counter()
    import parafermi_jc  # noqa: F401  (the import is what this probe times)

    result = execute(request, out_path)
    elapsed = time.perf_counter() - start
    if request.argv is not None and result != 0:
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
