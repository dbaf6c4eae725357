"""lindrec benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in a worker process against the lindrec
sources of this checkout.  It prints the drawn inputs, the environment, any
failed job with its reasons and each metric with its unit, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer ones with ``--trace 1``, in the units declared there.  The full
result is also written to ``perfbench/out/``.

Set-up time is measured here: from starting a worker until it reports that
lindrec is imported and the inputs exist, over several workers, as the
median.  Exits non-zero, without a result line, when the sources are missing,
a worker fails or the run would use more BLAS threads than CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
# probes before and again after the worker, so the set-up median spans the run
SETUP_PROBES = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def start_worker(args, probe: bool, env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and the set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def probe_setup(args, env: dict) -> float:
    probe, setup = start_worker(args, True, env)
    probe.communicate()
    return setup


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="lindrec benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (HERE.parent / "src" / "lindrec" / "__init__.py").is_file():
        print("lindrec sources not found next to the benchmark", file=sys.stderr)
        return 2

    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(nproc))
    started = time.perf_counter()
    try:
        setups = [probe_setup(args, env) for _ in range(SETUP_PROBES)]
        worker, setup = start_worker(args, False, env)
        setups.append(setup)
        try:
            output, _ = worker.communicate(timeout=DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            raise RuntimeError("worker ran past the deadline")
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with code {worker.returncode}")
        result = json.loads(output.strip().splitlines()[-1])
        setups += [probe_setup(args, env) for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result.update(workload=args.workload, seed=args.seed, trace=args.trace, setups=setups)
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(result["walls"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs {json.dumps(result['inputs'])}")
    print(f"environment {json.dumps(result['environment'])}")
    print(f"passes {len(result['walls'])} untraced"
          + (f", {len(result['traced_walls'])} traced" if args.trace else "")
          + f", {len(result['jobs'])} jobs each, one in flight")
    for failure in result["failures"]:
        print(f"FAILED pass {failure['pass']} job {failure['job']}: "
              + "; ".join(failure["reasons"]))
    print(f"failed_frac {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    if args.trace:
        print(f"largest self times, first traced pass {result['top_self_s'][0]}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
