"""Start ``repro serve`` with the benchmark's wrappers installed.

Usage::

    python perfbench/launcher.py --mode {count,trace} --report PATH [--spans PATH] -- serve ARGS...

Installs the same wrappers as the client side of the benchmark
(``count``: storage byte counters only; ``trace``: every layer's spans),
then runs the ``repro`` command-line entry point with ``ARGS``.  SIGTERM
stops the server the way Ctrl-C does, after which the launcher writes
its counters, span self times and the CPU it had used when it began
listening to the report (and, in trace mode, the spans as JSONL to
``--spans``) and exits with the server's code.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _raise_interrupt() -> None:
    raise KeyboardInterrupt


def _interrupt(signum, frame) -> None:
    """SIGTERM: stop ``serve_forever`` the way Ctrl-C does.

    The interrupt is raised from a loop callback rather than from the
    handler itself: a handler that raises while the interpreter runs a
    finalizer has its exception swallowed, and the server keeps serving.
    """
    try:
        loop = asyncio.get_event_loop_policy().get_event_loop()
    except RuntimeError:
        loop = None
    if loop is None or loop.is_closed() or not loop.is_running():
        raise KeyboardInterrupt
    loop.call_soon_threadsafe(_raise_interrupt)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("count", "trace"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", help="JSONL(.gz) span dump (trace mode)")
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve[1:] if args.serve[:1] == ["--"] else args.serve

    from benchlib.layers import STORAGE_TARGETS, TARGETS
    from benchlib.tracer import Tracer

    import repro.cli
    import repro.net.server

    tracer = Tracer(TARGETS if args.mode == "trace" else STORAGE_TARGETS,
                    spans=args.mode == "trace")
    ready_cpu_s = [0.0]
    serve_forever = repro.net.server.serve_forever

    def serve_and_mark_ready(*a, announce=print, **k):
        # CPU spent before LISTENING (imports, recovery) is set-up, not
        # serving; the report carries it so it can be subtracted.
        def announce_and_mark(line: str) -> None:
            if line.startswith("LISTENING"):
                ready_cpu_s[0] = _cpu_s()
            announce(line)

        return serve_forever(*a, announce=announce_and_mark, **k)

    signal.signal(signal.SIGTERM, _interrupt)
    repro.net.server.serve_forever = serve_and_mark_ready
    tracer.install()
    try:
        code = repro.cli.main(serve_args)
    finally:
        tracer.uninstall()
        repro.net.server.serve_forever = serve_forever
    recorder = tracer.recorder
    report = {
        "counters": dict(recorder.counters),
        "times": recorder.self_times(),
        "ready_cpu_s": ready_cpu_s[0],
    }
    if args.spans:
        recorder.dump_jsonl(args.spans)
    with open(args.report, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
