"""Time one workload's set-up in a fresh interpreter.

Usage::

    python perfbench/setup_probe.py WORKLOAD SEED

Measures from this interpreter's first ``import repro`` to the first
operation issued, including opening the system (and, on tcp, spawning
the server, reading its ``LISTENING`` line and the handshake), then
times the host gauge's reference workload a few times, prints
``{"setup_s": ..., "reference_s": [...]}`` and tears the deployment
down.  The gauge is imported only after the measurement, so its
standard-library imports do not shorten the set-up.
"""

from __future__ import annotations

import json
import sys
import time

#: Reference samples taken right after the set-up.
REFERENCE_SAMPLES = 3


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    from benchlib.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, 1.0)
    started = time.perf_counter()  # repro is not imported yet
    try:
        workload.open()
        workload.first_op()
        elapsed = time.perf_counter() - started
        from benchlib.host import HostGauge

        gauge = HostGauge()
        reference = [gauge.sample() for _ in range(REFERENCE_SAMPLES)]
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed, "reference_s": reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
