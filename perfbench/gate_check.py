"""Check that the benchmark's correctness gate catches corrupted smoothing.

    python3 perfbench/gate_check.py

In this process only, ``teleport.teleport_state`` is replaced by one that
smooths with n_tau * 1.01.  One round of ``noise-scan`` and of
``oracle-crosscheck`` must then report failed tasks, and the same rounds
with the real smoothing must report none.  Exits 0 when both hold.
"""

from __future__ import annotations

import contextlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is loaded
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from cvteleport import teleport  # noqa: E402
from worker import closed_loop  # noqa: E402

SEED = 7


@contextlib.contextmanager
def corrupted_smoothing(factor=1.01):
    real = teleport.teleport_state

    def corrupted(w_o, n_tau):
        return real(w_o, float(n_tau) * factor)

    teleport.teleport_state = corrupted
    try:
        yield
    finally:
        teleport.teleport_state = real


def one_round(name):
    # a zero-second loop still runs one whole round
    return closed_loop(workloads.WORKLOADS[name](SEED), 0.0)


def main():
    ok = True
    for name in ("noise-scan", "oracle-crosscheck"):
        clean = one_round(name)
        with corrupted_smoothing():
            bad = one_round(name)
        print(f"{name}: clean {clean['failed']}/{clean['tasks']} failed, "
              f"corrupted {bad['failed']}/{bad['tasks']} failed")
        if clean["failed"] != 0 or bad["failed"] == 0:
            ok = False
            print(f"{name}: gate check FAILED; clean failures: {clean['failures']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
