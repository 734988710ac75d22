"""The FAUST service benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

``--trace 0`` sets the workload up several times in fresh interpreters
(``setup_s``), runs it once untraced, checks its outputs and prints the
end-to-end metrics.  Their times are scaled to a reference host speed
measured alongside (``benchlib.host.HostGauge``).  ``--trace 1`` runs
half as much work untraced and then the same half again with every
layer wrapped, checks both, and prints the per-layer metrics and the
tracing overhead; spans are written to ``.bench_out/``.

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose checks fail
reports no numbers and exits with 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-interpreter set-ups per run, half before the measured phase and
#: half after it, so they sample more than one moment of the host;
#: ``setup_s`` is their median.
SETUP_REPEATS = 10

#: End-to-end metrics (every workload): name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "storage_amp": "B/B",
}


def _measure_setup(name: str, seed: int, repeats: range) -> list[tuple[float, float]]:
    """Set-up times of ``repeats`` fresh interpreters (seeds derived from
    ``seed`` and the repeat index), each as measured and as scaled to the
    reference host speed by the reference samples its interpreter took
    right after it."""
    from benchlib.host import REFERENCE_S
    from benchlib.workloads import child_environment

    times = []
    for repeat in repeats:
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed * 100 + repeat)],
            cwd=ROOT,
            env=child_environment(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stdout}{probe.stderr}")
        report = json.loads(probe.stdout.strip().splitlines()[-1])
        slowdown = statistics.harmonic_mean(report["reference_s"]) / REFERENCE_S
        times.append((report["setup_s"], report["setup_s"] / slowdown))
    return times


def _storage_bytes(outcome, tracer) -> int:
    if outcome.server:
        return outcome.server["counters"].get("store.bytes", 0)
    return tracer.recorder.counters.get("store.bytes", 0)


def _print_checks(label: str, outcome) -> None:
    for check, ok in outcome.checks.items():
        print(f"  check [{label}] {check}: {'ok' if ok else 'FAILED'}")


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, object]:
    from benchlib.workloads import measure

    half = SETUP_REPEATS // 2
    setups = _measure_setup(name, seed, range(half))
    outcome, tracer = measure(name, seed, seconds, traced=False)
    setups += _measure_setup(name, seed, range(half, SETUP_REPEATS))
    measured, setups = zip(*setups)
    print(f"  set-up (s): n={len(setups)} median={statistics.median(measured):.6g}; "
          f"at reference speed median={statistics.median(setups):.6g} "
          f"min={min(setups):.6g} max={max(setups):.6g}")
    print(f"  host gauge in the run: {outcome.gauge.summary()}")
    _print_checks("untraced", outcome)
    print(f"  wall latency (ms): {outcome.lat_ms.summary()}")
    if len(outcome.lat_vt):
        print(f"  virtual-time latency (vt): {outcome.lat_vt.summary()}")
    if len(outcome.stable_lag_vt):
        print(f"  stable lag (vt): {outcome.stable_lag_vt.summary()}")
    if not outcome.correct:
        return {}, outcome
    blocks, gauge = outcome.blocks, outcome.gauge
    rate, p50, latencies, kept = blocks.quiet(outcome.lat_ms)
    print(f"  whole run: {outcome.ops_per_s:.6g} ops/s over {outcome.wall_s:.4g} s; "
          f"{kept} of {len(blocks.blocks)} blocks kept: {rate:.6g} ops/s, "
          f"block-averaged p50 {p50:.6g} ms, wall latency (ms) {latencies.summary()}")
    # The same blocks, each scaled by the host's speed while it ran.
    slowdowns = [
        gauge.slowdown_over(end - block[2], end)
        for block, end in zip(blocks.blocks, blocks.ends)
    ]
    rate, p50, latencies, kept = blocks.quiet(outcome.lat_ms, slowdowns)
    print(f"  at reference speed: {rate:.6g} ops/s, block-averaged p50 {p50:.6g} ms, "
          f"latency (ms) {latencies.summary()}")
    values = {
        "ops_per_s": rate,
        "op_p50_ms": p50,
        "op_p99_ms": latencies.percentile(99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "storage_amp": _storage_bytes(outcome, tracer) / outcome.user_bytes,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, outcome


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, object]:
    from benchlib.layers import PER_LAYER, layer_metrics
    from benchlib.workloads import OUT_DIR, measure

    # Half the schedule each, so a traced run measures ``seconds`` in all.
    plain, _ = measure(name, seed, seconds / 2, traced=False)
    outcome, tracer = measure(name, seed, seconds / 2, traced=True)
    if name.endswith("-sim"):
        # Wrapping changes timing only: the same seed must replay exactly.
        outcome.checks["replays the untraced run"] = (
            outcome.signature == plain.signature
            and outcome.lat_vt.values == plain.lat_vt.values
        )
    _print_checks("untraced", plain)
    _print_checks("traced", outcome)
    if not (plain.correct and outcome.correct):
        return {}, outcome
    tracer.recorder.dump_jsonl(os.path.join(OUT_DIR, f"spans-{name}.jsonl.gz"))
    values = layer_metrics(tracer.recorder, outcome)
    has_vt = len(outcome.lat_vt) > 0
    has_lag = len(outcome.stable_lag_vt) > 0
    values.update(
        {
            "sim.op_p50_vt": outcome.lat_vt.percentile(50) if has_vt else 0.0,
            "sim.op_p99_vt": outcome.lat_vt.percentile(99) if has_vt else 0.0,
            "faust.stable_lag_p50_vt": (
                outcome.stable_lag_vt.percentile(50) if has_lag else 0.0
            ),
            "faust.stable_lag_p99_vt": (
                outcome.stable_lag_vt.percentile(99) if has_lag else 0.0
            ),
            "faust.resident_growth": outcome.resident_growth,
            "trace.overhead": plain.ops_per_s / outcome.ops_per_s,
        }
    )
    outcome.attempted += plain.attempted
    outcome.completed += plain.completed
    outcome.failed += plain.failed
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="FAUST service benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the server process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # The build: compile the program's bytecode once, so that set-up time
    # measures imports the way a deployed service does them, also where
    # the interpreter may not write bytecode caches (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    sys.path[:0] = [SRC, HERE]
    from benchlib.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    from benchlib.stats import TooFewSamples

    phase = per_layer if args.trace else end_to_end
    try:
        metrics, outcome = phase(args.workload, args.seed, args.seconds)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}; run longer (--seconds)", file=sys.stderr)
        return 2
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  ops attempted={outcome.attempted} completed={outcome.completed} "
          f"failed={outcome.failed} (failed share {share:.4f})")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    correct = bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
