"""Closed-loop measurement, oracle gate, traced run and report (entry: ``bench/run.py``).

One client sends one request at a time and waits for it (closed loop, one
process, one thread).  Only the request itself is timed; the LAPACK oracle
gate runs between requests.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human report and the run record.  The exit code is 0 when every
request passed the gate and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import parafermi_jc
import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 60
#: Cycles per pass of a traced run; each pass runs untraced, then traced.
TRACE_PASS_CYCLES = {"staircase": 2, "big_block": 1, "free_energy": 2}
TAIL_BEYOND = 10

#: End-to-end metrics in the result line; each is steady under host contention.
END_TO_END_UNITS = {"setup_s": "s", "lapack_x": "ratio", "peak_rss_mb": "MB"}
#: Printed in the report only: they follow the host's contention phases (README).
REPORT_ONLY_UNITS = {"pts_per_s": "1/s", "req_s_p50": "s", "req_s_tail": "s"}
PER_LAYER_UNITS = {
    "eigensolver.vec.calls": "count", "eigensolver.vec.busy_s": "s",
    "eigensolver.vec.dim3": "count", "eigensolver.vec.eigh_ratio": "ratio",
    "eigensolver.val.calls": "count", "eigensolver.val.busy_s": "s",
    "eigensolver.val.dim3": "count", "eigensolver.val.eigh_ratio": "ratio",
    "blocks.build.calls": "count", "blocks.build.busy_s": "s", "blocks.build.elems": "count",
    "algebra.enumerate.calls": "count", "algebra.enumerate.busy_s": "s",
    "thermo.reduce.calls": "count", "thermo.reduce.self_s": "s", "thermo.scan.self_s": "s",
    "exact.semiclassical.calls": "count", "exact.semiclassical.busy_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_s": "s", "trace.coverage": "share",
}
#: Per-layer metrics taken from the first pass (counts repeat exactly, and only the
#: first pass keeps matrices for the eigh comparison); the rest are medians over passes.
_FIRST_PASS = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "B", "ratio")}


@dataclass
class Tally:
    """Requests attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {'; '.join(problems)}")


def timed(request: workloads.Request, out_path: str):
    """(wall seconds, result, problems): an exception is a failed request, not a crash."""
    start = time.perf_counter()
    try:
        result = workloads.execute(request, out_path)
    except (Exception, SystemExit) as exc:  # argparse raises SystemExit on a bad argv
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, result, []


def gate(request: workloads.Request, result, out_path: str) -> oracle.Verdict:
    try:
        return oracle.check(request, result, out_path)
    except Exception as exc:
        return oracle.Verdict([f"oracle could not read the output: {type(exc).__name__}: {exc}"])


def serve(request: workloads.Request, out_path: str) -> tuple[float, oracle.Verdict]:
    """Time one request, then gate it outside the timed region."""
    wall, result, problems = timed(request, out_path)
    return wall, oracle.Verdict(problems) if problems else gate(request, result, out_path)


def fingerprint(request: workloads.Request, result, out_path: str) -> bytes:
    """Bytes that a traced run must reproduce exactly: the CSV, or the observables' repr."""
    if request.workload == "big_block":
        return repr(result[1]).encode() if result is not None else b""
    try:
        return Path(out_path).read_bytes()
    except OSError:
        return b""


def setup_times(workload: str, seed: int, tmp: Path, tally: Tally) -> list[float]:
    """Import + warm-up request, each in a fresh process; a failed probe is a failed request."""
    times = []
    for i in range(SETUP_RUNS):
        label = f"setup probe {i}"
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(tmp / f"probe-{i}.csv")],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            tally.record(label, [f"timed out after {PROBE_TIMEOUT_S} s"])
            continue
        if proc.returncode != 0:
            tally.record(label, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            continue
        times.append(float(proc.stdout.split()[-1]))
    return times


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum, reported as percentile 100.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, tmp: Path,
            tally: Tally) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced closed-loop run."""
    probes = setup_times(workload, seed, tmp, tally)
    out = str(tmp / "request.csv")

    warmup = workloads.make_request(workload, seed, 0)
    tally.record("warm-up request 0", serve(warmup, out)[1].problems)

    walls: list[float] = []
    solved, solved_s, lapack_s = 0, 0.0, 0.0  # over passed requests
    index = 1
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for _ in range(workloads.CYCLE[workload]):
            request = workloads.make_request(workload, seed, index)
            index += 1
            wall, verdict = serve(request, out)
            tally.record(f"request {request.index}", verdict.problems)
            walls.append(wall)
            if not verdict.problems:
                solved += request.points
                solved_s += wall
                lapack_s += verdict.lapack_s
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(probes) if probes else 0.0,
        "lapack_x": solved_s / lapack_s if lapack_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pts_per_s": solved / sum(walls),
        "req_s_p50": statistics.median(walls),
        "req_s_tail": tail_s,
    }
    notes = [
        f"setup_s: median of {len(probes)} fresh processes",
        f"lapack_x: {solved_s:.4f} s of passed requests / {lapack_s:.4f} s of LAPACK "
        "on the same blocks",
        f"pts_per_s: {solved} points solved in {sum(walls):.4f} s of request time",
        f"req_s_tail: p{tail_pct:.1f} of {len(walls)} timed requests"
        + (" (fewer than 11 samples: maximum)" if len(walls) <= TAIL_BEYOND else ""),
    ]
    return metrics, notes


def _run_pass(requests, tmp: Path, tag: str, tracer: tracing.Tracer | None = None):
    """(wall, result, problems, output path) of each request, run back to back."""
    outs = []
    for i, request in enumerate(requests):
        out = str(tmp / f"{tag}-{i}.csv")
        if tracer is not None:
            tracer.request = request.index
        outs.append((*timed(request, out), out))
    return outs


def measure_traced(workload: str, seed: int, seconds: float, tmp: Path,
                   tally: Tally) -> tuple[dict, list[str]]:
    """Per-layer metrics: passes of fixed requests, each run untraced and then traced.

    Counts come from the first pass (they repeat exactly for a given request
    shape); times are medians over passes.  A traced output that differs by
    one byte from its untraced run is a failed request.
    """
    per_pass = TRACE_PASS_CYCLES[workload] * workloads.CYCLE[workload]
    warmup = workloads.make_request(workload, seed, 0)
    tally.record("warm-up request 0", serve(warmup, str(tmp / "warmup.csv"))[1].problems)

    passes: list[dict] = []
    share_runs: list[dict] = []
    index = 1
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        requests = [workloads.make_request(workload, seed, index + j) for j in range(per_pass)]
        index += per_pass
        plain = _run_pass(requests, tmp, "plain")
        with tracing.Tracer(keep_matrices=not passes) as tracer:
            traced = _run_pass(requests, tmp, "traced", tracer)
        bytes_out = 0
        for request, (_, p_result, p_problems, p_out), (_, t_result, t_problems, t_out) in zip(
                requests, plain, traced):
            tally.record(f"request {request.index}",
                         p_problems or gate(request, p_result, p_out).problems)
            expected = fingerprint(request, p_result, p_out)
            got = fingerprint(request, t_result, t_out)
            if request.argv is not None:
                bytes_out += len(got)
            tally.record(f"traced request {request.index}",
                         t_problems or ([] if got == expected else ["traced output differs from untraced"]))
        plain_wall = sum(r[0] for r in plain)
        traced_wall = sum(r[0] for r in traced)
        metrics, shares = tracing.layer_metrics(tracer, traced_wall)
        metrics["cli.bytes_out"] = bytes_out
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        passes.append(metrics)
        share_runs.append(shares)

    result = {name: passes[0][name] if name in _FIRST_PASS
              else statistics.median(p[name] for p in passes) for name in PER_LAYER_UNITS}
    layers = sorted({layer for shares in share_runs for layer in shares})
    share = {layer: statistics.median(s.get(layer, 0.0) for s in share_runs) for layer in layers}
    notes = [f"{len(passes)} passes of {per_pass} requests, each untraced then traced; "
             "times are medians over passes, counts are per pass",
             "self-time share of traced wall: " + ", ".join(
                 f"{layer} {value:.1%}" for layer, value in sorted(share.items(), key=lambda kv: -kv[1]))]
    return result, notes


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without starting git; 'unknown' outside git."""
    head = _read_text(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read_text(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in _read_text(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_record(workload: str, args, requests: int) -> dict:
    cpu = "unknown"
    for line in _read_text(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read_text(index / "size")
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests": requests, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "PARAFERMI_JC_THREADS")},
        "package": str(Path(parafermi_jc.__file__).resolve().parent.relative_to(ROOT)),
    }


def run_one(args) -> int:
    tally = Tally()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="run-") as tmp:
        if args.trace:
            metrics, notes = measure_traced(args.workload, args.seed, args.seconds, Path(tmp), tally)
            units = PER_LAYER_UNITS
        else:
            metrics, notes = measure(args.workload, args.seed, args.seconds, Path(tmp), tally)
            units = END_TO_END_UNITS
    print(f"# parafermi-jc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# record " + json.dumps(run_record(args.workload, args, tally.attempted), sort_keys=True))
    for name, unit in (units | ({} if args.trace else REPORT_ONLY_UNITS)).items():
        print(f"{name:28s} {metrics[name]!r:>24} {unit}")
    print(f"{'fail_frac':28s} {tally.failed / tally.attempted!r:>24} share "
          f"({tally.failed} of {tally.attempted} requests)")
    for note in notes:
        print(f"# {note}")
    for message in tally.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="closed-loop time; whole request cycles are finished")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: traced per-layer run instead of the end-to-end run")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)
