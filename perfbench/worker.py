"""One workload process of the cvteleport benchmark.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``OPENBLAS_NUM_THREADS=1``; it prints one JSON line.  Modes:

    worker.py setup NAME SEED ROOT          time set-up only
    worker.py run NAME SEED ROOT SECONDS 0  set up, then a timed closed loop
    worker.py run NAME SEED ROOT SECONDS 1  untraced and traced halves, then verify
    worker.py blas ROOT                     teleport_state at default BLAS threading

Nothing heavy is imported at module level, so set-up time starts before
``cvteleport`` is imported.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter


def closed_loop(workload, seconds, tracer=None):
    """Run whole rounds of ``workload``, at least one, until ``seconds``
    have passed.

    One caller, so a task starts only when the previous one has finished.
    A task that raises counts as failed and ends its round.
    """
    times, failures = [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        tasks = workload.round()
        t0 = perf_counter()
        while True:
            if tracer is not None:
                tracer.task = len(times)
            try:
                outcome = next(tasks)
            except StopIteration:
                break
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            times.append(t1 - t0)
            t0 = t1
            if outcome is not None:
                failures.append(outcome)
    return summarize(times, failures, perf_counter() - start)


def summarize(times, failures, elapsed):
    """Throughput, median and tail of one timed phase.

    The tail is the highest percentile with at least ten tasks beyond it:
    with n tasks sorted, the (n - 10)-th.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "tasks": n,
        "failed": len(failures),
        "failures": failures[:5],
        "elapsed_s": elapsed,
        "tasks_per_s": n / elapsed,
        "task_p50_ms": statistics.median(ordered) * 1e3,
        "task_tail_ms": ordered[n - 1 - beyond] * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_tasks_beyond": beyond,
    }


def set_up(name, seed, root):
    """Import the package, build the inputs, run one untimed warm-up task."""
    t0 = perf_counter()
    import workloads

    if name == "export-roundtrip":
        outdir = tempfile.mkdtemp(prefix="export-", dir=os.path.join(root, ".bench_out"))
        workload = workloads.ExportRoundtrip(seed, outdir)
    else:
        workload = workloads.WORKLOADS[name](seed)
    tasks = workload.round()
    try:
        warm_up = next(tasks)
    except Exception as exc:
        warm_up = f"{type(exc).__name__}: {exc}"
    tasks.close()
    return workload, warm_up, perf_counter() - t0


def blas_info():
    """Name, version and thread count of the BLAS loaded in this process."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {
        "library": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": None,
    }
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, seed):
    """Versions, BLAS threading and CPU count the record was taken with."""
    from importlib import metadata

    import cvteleport
    import numpy as np

    src = os.path.join(root, "src", "cvteleport")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cvteleport_version": cvteleport.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, root, seconds, traced):
    if not traced:
        workload, warm_up, setup_s = set_up(name, seed, root)
        try:
            phase = closed_loop(workload, seconds)
        finally:
            _clean(workload)
        return {
            "setup_s": setup_s,
            "warm_up_failure": warm_up,
            "phase": phase,
            "peak_rss_mb": peak_rss_mb(),
            "environment": environment(root, seed),
        }

    import cvteleport.cli  # the tracer patches loaded modules, so load them first
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload, warm_up, _ = set_up(name, seed, root)
    finally:
        tracer.remove()
    try:
        untraced = closed_loop(workload, seconds / 2.0)
        tracer.install()
        try:
            traced_phase = closed_loop(workload, seconds / 2.0, tracer)
        finally:
            tracer.remove()
    finally:
        _clean(workload)
    spans_path = os.path.join(root, ".bench_out", f"spans-{name}-{seed}.json")
    tracer.dump(spans_path)
    criteria = cvteleport.verify.run_all(level="full")
    return {
        "warm_up_failure": warm_up,
        "untraced": untraced,
        "phase": traced_phase,
        "layers": tracer.layer_metrics(),
        "verify": [
            {"criterion": r.criterion, "status": r.status, "seconds": r.seconds, "detail": r.detail}
            for r in criteria
        ],
        "spans_file": os.path.relpath(spans_path, root),
        "environment": environment(root, seed),
    }


def _clean(workload):
    outdir = getattr(workload, "outdir", None)
    if outdir is not None:
        shutil.rmtree(outdir, ignore_errors=True)


def blas_probe():
    """Median teleport_state time at 128 and 256 points with the default
    BLAS threading, so a host whose threaded matmul stalls shows it."""
    from cvteleport import states, teleport

    out = {}
    for res in (128, 256):
        grid = states.fock_wigner(1, 6.0, res)
        teleport.teleport_state(grid, 0.5)
        times = []
        deadline = perf_counter() + 1.0
        while len(times) < 20 or (perf_counter() < deadline and len(times) < 200):
            t0 = perf_counter()
            teleport.teleport_state(grid, 0.5)
            times.append(perf_counter() - t0)
        out[f"p50_ms_{res}"] = statistics.median(times) * 1e3
    out["blas"] = blas_info()
    return out


def main(argv):
    mode = argv[0]
    if mode == "setup":
        name, seed, root = argv[1], int(argv[2]), argv[3]
        workload, warm_up, setup_s = set_up(name, seed, root)
        _clean(workload)
        result = {"setup_s": setup_s, "warm_up_failure": warm_up}
    elif mode == "run":
        name, seed, root, seconds, traced = argv[1], int(argv[2]), argv[3], float(argv[4]), argv[5] == "1"
        result = run(name, seed, root, seconds, traced)
    elif mode == "blas":
        result = blas_probe()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
