"""Benchmark of cvteleport: seeded closed-loop workloads, one process each.

    python3 perfbench/run.py --workload noise-scan --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/cvteleport``.  Each
workload runs in its own child process with ``OPENBLAS_NUM_THREADS=1``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The line before the last is the full record
(environment, failures, tail percentile, verify statuses); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("noise-scan", "survival-thresholds", "oracle-crosscheck", "export-roundtrip")
SETUP_PROBES = 2  # extra fresh processes that only set up; setup_s is the median with the run's own
RUN_LIMIT_S = 170.0  # every child is killed past this, so one run ends within 180 s


def _worker(args, env, deadline):
    """Run worker.py to completion and return its JSON line; kill it if it
    outlives the run's deadline."""
    proc = subprocess.run(
        [sys.executable, WORKER, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env(single_thread):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    else:
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
    return env


def _failures(result):
    phases = [result["phase"]] + ([result["untraced"]] if "untraced" in result else [])
    attempted = 1 + sum(p["tasks"] for p in phases)
    failed = (result["warm_up_failure"] is not None) + sum(p["failed"] for p in phases)
    return attempted, failed


def run_workload(name, seed, seconds, trace):
    """One workload: returns (record, last line)."""
    deadline = monotonic() + RUN_LIMIT_S
    env = _env(single_thread=True)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _worker(["setup", name, seed, ROOT], env, deadline)
            setups.append(probe["setup_s"])
    result = _worker(["run", name, seed, ROOT, seconds, int(trace)], env, deadline)
    attempted, failed = _failures(result)
    phase = result["phase"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": result["environment"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": ([result["warm_up_failure"]] if result["warm_up_failure"] else []) + phase["failures"],
        "timed_tasks": phase["tasks"],
        "elapsed_s": phase["elapsed_s"],
        "task_tail": {
            "percentile": phase["tail_percentile"],
            "tasks_beyond": phase["tail_tasks_beyond"],
            "tasks": phase["tasks"],
        },
    }
    if not trace:
        setups.append(result["setup_s"])
        record["setup_s_samples"] = setups
        metrics = {
            "tasks_per_s": (phase["tasks_per_s"], "1/s"),
            "task_p50_ms": (phase["task_p50_ms"], "ms"),
            "task_tail_ms": (phase["task_tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        blas = _worker(["blas", ROOT], _env(single_thread=False), deadline)
        record["blas_default"] = blas
        record["verify"] = {f"criterion_{v['criterion']}": v["status"] for v in result["verify"]}
        record["spans_file"] = result["spans_file"]
        untraced, traced = result["untraced"]["tasks_per_s"], phase["tasks_per_s"]
        metrics = {name: tuple(value) for name, value in result["layers"].items()}
        metrics.update(
            {
                f"verify.criterion_{v['criterion']}_s": (v["seconds"], "s")
                for v in result["verify"]
            }
        )
        metrics["teleport.teleport_state.blas_default_128.p50_ms"] = (blas["p50_ms_128"], "ms")
        metrics["teleport.teleport_state.blas_default_256.p50_ms"] = (blas["p50_ms_256"], "ms")
        metrics["trace.untraced.tasks_per_s"] = (untraced, "1/s")
        metrics["trace.traced.tasks_per_s"] = (traced, "1/s")
        metrics["trace.overhead.tasks_per_s"] = (traced - untraced, "1/s")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    last = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return record, last


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cvteleport", "__init__.py")):
        sys.stderr.write(f"perfbench: no cvteleport sources under {ROOT}/src\n")
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lasts = {}
    for name in names:
        record, last = run_workload(name, args.seed, args.seconds, bool(args.trace))
        sys.stdout.write(json.dumps(record) + "\n")
        lasts[name] = last
    if len(names) == 1:
        summary = lasts[names[0]]
    else:
        summary = {
            "correct": all(l["correct"] for l in lasts.values()),
            "attempted": sum(l["attempted"] for l in lasts.values()),
            "failed": sum(l["failed"] for l in lasts.values()),
            "metrics": {f"{n}.{k}": v for n, l in lasts.items() for k, v in l["metrics"].items()},
        }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
