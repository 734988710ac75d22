"""The benchmark's three workloads.

Each workload is generated from the seed alone and driven through the
public ``repro.api`` surface (and ``repro.net`` for the tcp one):

* ``faust-readmostly-sim`` — the paper's FAUST service with everything
  fail-aware on, open-loop Poisson arrivals in virtual time;
* ``ustor-batched-writes-sim`` — bare USTOR through the batching
  pipeline, closed loop, large writes;
* ``ustor-tcp-loopback`` — bare USTOR over real sockets against a
  separate server process, closed loop, wall-clock latency.

A workload object goes through :meth:`open` (the deployment — what
``setup_s`` times), :meth:`run` (generate the inputs and drive them),
:meth:`check` (the output checks) and :meth:`close`; :meth:`first_op`
is used only by the set-up probe.  Each workload runs a fixed amount of
work sized from ``seconds`` (calibrated so one run measures about that
long on a 2-core x86 host), so on the simulator every count and
virtual-time figure repeats exactly for a given ``(seed, seconds)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field

from benchlib.host import BlockLog, HostGauge
from benchlib.stats import Samples

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Scratch space inside the checkout (server directories, span dumps).
OUT_DIR = os.path.join(ROOT, ".bench_out")
LAUNCHER = os.path.join(ROOT, "perfbench", "launcher.py")


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    workload: str
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: Wall seconds of the measured phase, less the host gauge's samples.
    wall_s: float = 0.0
    #: The host's speed during the measured phase; its clock times it.
    gauge: HostGauge = field(default_factory=HostGauge)
    lat_ms: Samples = field(default_factory=Samples)
    #: ``lat_ms`` in blocks of about 50 ms, with the host's steal in each.
    blocks: BlockLog = field(default_factory=BlockLog)
    lat_vt: Samples = field(default_factory=Samples)
    stable_lag_vt: Samples = field(default_factory=Samples)
    #: Bytes of user values in completed writes.
    user_bytes: int = 0
    resident_growth: float = 0.0
    #: Output checks, name -> passed.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Digest over every settled op and the clients' final versions.
    signature: str = ""
    #: Public counters read off the system (scheduler events, ...).
    counts: dict[str, float] = field(default_factory=dict)
    #: Counters and span self times reported by the tcp server process.
    server: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


class _Signature:
    """Running digest of settled operations (order-sensitive)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def op(self, client: int, kind, register: int, result) -> None:
        self._hash.update(
            f"{client}|{kind.name}|{register}|{result.timestamp}|".encode()
        )
        value = result.value
        if isinstance(value, bytes):
            self._hash.update(value)

    def versions(self, clients) -> str:
        for client in clients:
            version = client.version
            self._hash.update(repr(version.vector).encode())
            for digest in version.digests:
                self._hash.update(digest or b"-")
        return self._hash.hexdigest()


def _replay_checks(history) -> dict[str, bool]:
    """Run both incremental checkers over a finished history."""
    from repro.consistency.incremental import (
        IncrementalCausalChecker,
        IncrementalLinearizabilityChecker,
        replay_history,
    )

    return {
        "linearizable": replay_history(IncrementalLinearizabilityChecker(), history).ok,
        "causal": replay_history(IncrementalCausalChecker(), history).ok,
    }


def _settle_handles(out: Outcome, handles: list) -> _Signature:
    """Count the completed ops of a closed-loop run, in submission order.

    ``handles`` holds ``(client, handle, is_write, register, value)``.
    Results are read after the run: a handle cannot be waited on from
    inside the callback that settles it on a real transport.
    """
    from repro.api import OperationFailed, OperationTimeout

    signature = _Signature()
    for client, handle, is_write, register, value in handles:
        if not handle.done():
            continue
        try:
            result = handle.result()
        except (OperationFailed, OperationTimeout):
            continue
        out.completed += 1
        if is_write:
            out.user_bytes += len(value)
        signature.op(client, handle.kind, register, result)
    return signature


def _reset_process_caches() -> None:
    """Start every run from cold process-wide memos (a fresh deployment)."""
    from repro.common.encoding import reset_encoding_caches
    from repro.ustor.digests import reset_chain_cache

    reset_encoding_caches()
    reset_chain_cache()


# ---------------------------------------------------------------------- #
# faust-readmostly-sim
# ---------------------------------------------------------------------- #


class FaustReadMostly:
    """FAUST, 8 clients, open-loop Poisson reads-mostly, checkpoints on."""

    name = "faust-readmostly-sim"
    clients = 8
    rate = 0.25  # ops per virtual time unit, per client
    read_share = 0.8
    zipf = 1.0
    value_size = 64
    checkpoint_interval = 256
    #: Schedule horizon per requested second of measurement.
    vt_per_second = 750.0
    #: Resident-state sampling cadence (virtual time), as repro scale.
    sample_every = 25.0
    #: Budget to settle in-flight ops, then to see every op stable.
    drain_vt = 5_000.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.horizon = self.vt_per_second * seconds
        self.gauge = HostGauge()

    def open(self) -> None:
        from repro.api import (
            CheckpointPolicy,
            FailureNotification,
            FaustBackend,
            StabilityNotification,
            SystemConfig,
        )
        from repro.consistency.incremental import attach_incremental_checkers
        from repro.sim.network import FixedLatency

        self.system = FaustBackend().open_system(
            SystemConfig(
                num_clients=self.clients,
                seed=self.seed,
                latency=FixedLatency(1.0),
                storage="log",
                checkpoint=CheckpointPolicy(interval=self.checkpoint_interval),
            )
        )
        self.checkers = attach_incremental_checkers(self.system.raw.recorder)
        self.sessions = self.system.sessions()
        self.failures = self.system.notifications.subscribe(kinds=FailureNotification)
        self.system.notifications.subscribe(
            self._on_stable, kinds=StabilityNotification
        )
        #: Per client: completed ops not yet stable, ``(timestamp, response vt)``.
        self._unstable = [deque() for _ in range(self.clients)]
        self._cut_min = [0] * self.clients
        self.outcome = Outcome(self.name, gauge=self.gauge)

    def first_op(self) -> None:
        self.sessions[0].write(b"set-up probe")

    def _on_stable(self, event) -> None:
        floor = min(event.cut)
        self._cut_min[event.client] = floor
        waiting = self._unstable[event.client]
        lag = self.outcome.stable_lag_vt
        while waiting and waiting[0][0] <= floor:
            lag.add(event.time - waiting.popleft()[1])

    def run(self) -> Outcome:
        from repro.api import OperationFailed, OperationTimeout
        from repro.common.types import OpKind
        from repro.workloads.generator import OpenLoopConfig, generate_open_loop
        from repro.workloads.scale import _growth_ratio, _take_sample

        schedules = generate_open_loop(
            self.clients,
            OpenLoopConfig(
                rate=self.rate,
                duration=self.horizon,
                read_fraction=self.read_share,
                zipf_exponent=self.zipf,
                value_size=self.value_size,
            ),
            random.Random(self.seed),
        )
        out = self.outcome
        out.attempted = sum(len(ops) for ops in schedules.values())
        system, raw = self.system, self.system.raw
        scheduler = raw.scheduler
        signature = _Signature()
        gauge = self.gauge
        settled = [0]

        def issue(client: int, index: int) -> None:
            ops = schedules[client]
            if index + 1 < len(ops):
                scheduler.schedule_at(ops[index + 1].at, issue, client, index + 1)
            op = ops[index]
            session = self.sessions[client]
            started = gauge.now()
            if op.kind is OpKind.WRITE:
                handle = session.write(op.value)
            else:
                handle = session.read(op.register)

            def done(h) -> None:
                settled[0] += 1
                try:
                    result = h.result()  # settled: returns without running
                except (OperationFailed, OperationTimeout):
                    return
                out.completed += 1
                now = gauge.now()
                out.lat_ms.add((now - started) * 1e3)
                out.blocks.settled(now)
                out.lat_vt.add(scheduler.now - op.at)
                if op.kind is OpKind.WRITE:
                    out.user_bytes += len(op.value)
                signature.op(client, op.kind, op.register, result)
                if result.timestamp <= self._cut_min[client]:
                    out.stable_lag_vt.add(0.0)
                else:
                    self._unstable[client].append((result.timestamp, scheduler.now))

            handle.add_done_callback(done)

        for client, ops in schedules.items():
            if ops:
                scheduler.schedule_at(ops[0].at, issue, client, 0)

        _reset_process_caches()
        samples = []
        start = gauge.now()
        out.blocks.begin(start)
        while raw.now < self.horizon:
            gauge.poll()
            system.run(until=min(raw.now + self.sample_every, self.horizon))
            with gauge.stopped():
                samples.append(_take_sample(raw, self.checkers))
        system.run_until(
            lambda: gauge.poll() or settled[0] == out.attempted, timeout=self.drain_vt
        )
        out.wall_s = gauge.now() - start
        out.blocks.end(start + out.wall_s)
        samples.append(_take_sample(raw, self.checkers))

        out.failed = out.attempted - out.completed
        out.resident_growth = _growth_ratio(samples, 0.25)
        out.signature = signature.versions(raw.clients)
        out.counts = {
            "sim.events": scheduler.events_processed,
            "sim.coalesced": raw.network.messages_coalesced,
            "faust.dummy_reads": sum(c.dummy_reads_issued for c in raw.clients),
            "faust.checkpoints_installed": min(
                c.checkpoint_manager.installed.seq for c in raw.clients
            ),
        }
        return out

    def check(self, out: Outcome) -> None:
        """Fill ``out.checks``; first runs on until every op is stable."""
        self.system.run_until(lambda: not any(self._unstable), timeout=self.drain_vt)
        out.checks = {
            **{name: c.result().ok for name, c in self.checkers.items()},
            "no failure notifications": not self.failures.events,
            "checkpoint installed": out.counts["faust.checkpoints_installed"] >= 1,
            "every completed op stable": not any(self._unstable),
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# closed loops (batched-writes and tcp)
# ---------------------------------------------------------------------- #


def _closed_loop_scripts(
    seed: int, clients: int, per_client: int, write_share: float, value_size: int
) -> list[list[tuple[bool, int, bytes | None]]]:
    """Per client: ``(is_write, register, value)`` in submission order.

    Writes go to the client's own register with random (hence unique)
    values; reads pick a register uniformly.
    """
    rng = random.Random(seed)
    scripts = []
    for client in range(clients):
        ops = []
        for _ in range(per_client):
            if rng.random() < write_share:
                ops.append((True, client, rng.randbytes(value_size)))
            else:
                ops.append((False, rng.randrange(clients), None))
        scripts.append(ops)
    return scripts


class _ClosedLoop:
    """Keeps ``outstanding`` ops in flight per session until every script
    is done; the next op is submitted from the settling one's callback.

    With a ``scheduler`` (the simulator) it also records each op's
    latency in virtual time.  Wall time is read off ``out.gauge``.
    """

    def __init__(self, sessions, scripts, outstanding: int, out: Outcome, scheduler=None):
        self.sessions = sessions
        self.scripts = scripts
        self.outstanding = outstanding
        self.out = out
        self.scheduler = scheduler
        #: ``(client, handle, is_write, register, value)`` in submission order.
        self.handles: list = []
        self.settled = 0
        self.start = self.last_settle = 0.0
        self._cursor = [0] * len(scripts)
        out.attempted = sum(len(ops) for ops in scripts)

    def begin(self) -> None:
        self.start = self.last_settle = self.out.gauge.now()
        self.out.blocks.begin(self.start)
        for client in range(len(self.scripts)):
            for _ in range(self.outstanding):
                self._submit(client)

    def finished(self) -> bool:
        """Every op settled; samples the host gauge when one is due."""
        return self.out.gauge.poll() or self.settled == self.out.attempted

    def end(self) -> float:
        """Close the measured phase; returns its wall seconds."""
        self.out.blocks.end(self.last_settle)
        return self.last_settle - self.start

    def _submit(self, client: int) -> None:
        index = self._cursor[client]
        if index >= len(self.scripts[client]):
            return
        self._cursor[client] = index + 1
        is_write, register, value = self.scripts[client][index]
        session = self.sessions[client]
        handle = session.write(value) if is_write else session.read(register)
        self.handles.append((client, handle, is_write, register, value))
        out, scheduler = self.out, self.scheduler
        started = out.gauge.now()
        issued_at = scheduler.now if scheduler is not None else 0.0

        def done(h) -> None:
            self.settled += 1
            now = self.last_settle = out.gauge.now()
            out.lat_ms.add((now - started) * 1e3)
            out.blocks.settled(now)
            if scheduler is not None:
                out.lat_vt.add(scheduler.now - issued_at)
            self._submit(client)

        handle.add_done_callback(done)


# ---------------------------------------------------------------------- #
# ustor-batched-writes-sim
# ---------------------------------------------------------------------- #


class UstorBatchedWrites:
    """USTOR + batching pipeline, 4 sessions x 8 outstanding, 90% 4 KiB writes."""

    name = "ustor-batched-writes-sim"
    clients = 4
    outstanding = 8
    write_share = 0.9
    value_size = 4096
    max_batch = 8
    #: Operations per requested second of measurement.
    ops_per_second = 2700

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.per_client = int(self.ops_per_second * seconds) // self.clients
        self.gauge = HostGauge()

    def open(self) -> None:
        from repro.api import BatchingPolicy, SystemConfig, UstorBackend
        from repro.sim.network import FixedLatency

        self.system = UstorBackend().open_system(
            SystemConfig(
                num_clients=self.clients,
                seed=self.seed,
                latency=FixedLatency(1.0),
                storage="log",
                batching=BatchingPolicy(max_batch=self.max_batch),
            )
        )
        self.sessions = self.system.sessions()

    def first_op(self) -> None:
        self.sessions[0].write(b"set-up probe")
        self.sessions[0].flush()

    def inputs(self) -> list[list[tuple[bool, int, bytes | None]]]:
        """Per client: ``(is_write, register, value)`` in submission order."""
        return _closed_loop_scripts(
            self.seed, self.clients, self.per_client, self.write_share, self.value_size
        )

    def run(self) -> Outcome:
        out = Outcome(self.name, gauge=self.gauge)
        system, raw = self.system, self.system.raw
        scheduler = raw.scheduler
        loop = _ClosedLoop(
            self.sessions, self.inputs(), self.outstanding, out, scheduler
        )
        _reset_process_caches()
        loop.begin()
        system.run_until(loop.finished)
        out.wall_s = loop.end()

        signature = _settle_handles(out, loop.handles)
        out.failed = out.attempted - out.completed
        out.signature = signature.versions(raw.clients)
        out.counts = {
            "sim.events": scheduler.events_processed,
            "sim.coalesced": raw.network.messages_coalesced,
        }
        return out

    def check(self, out: Outcome) -> None:
        """Fill ``out.checks``: replay the history through both checkers."""
        out.checks = _replay_checks(self.system.raw.history())
        out.checks["no client failed"] = not any(s.failed for s in self.sessions)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# ustor-tcp-loopback
# ---------------------------------------------------------------------- #


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class UstorTcpLoopback:
    """USTOR over TCP loopback: a ``repro serve`` child, 2 closed-loop clients.

    Like the simulator workloads it runs a fixed number of operations
    sized from ``seconds``, so memory and byte counts do not depend on
    how fast the host happens to be.
    """

    name = "ustor-tcp-loopback"
    clients = 2
    write_share = 0.5
    value_size = 1024
    #: Operations per requested second of measurement.
    ops_per_second = 1500

    def __init__(
        self,
        seed: int,
        seconds: float,
        server_mode: str = "count",
        server_spans: str | None = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.per_client = int(self.ops_per_second * seconds) // self.clients
        self.server_mode = server_mode
        self.server_spans = server_spans
        self.server = None
        self.system = None
        self.store_dir = None
        #: Filled in by :meth:`close` once the server process has exited.
        self.server_exit: int | None = None
        self.server_cpu_s = 0.0
        self.server_report: dict = {}
        self.gauge = HostGauge()

    def open(self) -> None:
        from repro.api import SystemConfig, UstorBackend
        from repro.net.supervisor import ServerProcess

        os.makedirs(OUT_DIR, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="tcp-store-", dir=OUT_DIR)
        self.report_path = os.path.join(self.store_dir, "server-report.json")
        launcher_args = [LAUNCHER, "--mode", self.server_mode]
        launcher_args += ["--report", self.report_path]
        if self.server_spans is not None:
            launcher_args += ["--spans", self.server_spans]
        launcher_args.append("--")

        class Launched(ServerProcess):
            """``repro serve`` started through the benchmark's launcher."""

            def command(self) -> list[str]:
                serve = super().command()
                # [python, -m, repro, serve, ...] -> [python, launcher, ..., serve, ...]
                return [serve[0], *launcher_args, *serve[3:]]

        self._cpu_before = _children_cpu_s()
        self.server = Launched(
            self.clients, storage=f"dir:{os.path.join(self.store_dir, 'data')}"
        )
        endpoint = self.server.start()
        self.system = UstorBackend().open_system(
            SystemConfig(
                num_clients=self.clients,
                seed=self.seed,
                transport="tcp",
                endpoints=(endpoint,),
                default_timeout=30.0,
            )
        )
        self.sessions = self.system.sessions()

    def first_op(self) -> None:
        self.sessions[0].write(b"set-up probe")

    def inputs(self) -> list[list[tuple[bool, int, bytes | None]]]:
        """Per client: ``(is_write, register, value)`` in submission order."""
        return _closed_loop_scripts(
            self.seed, self.clients, self.per_client, self.write_share, self.value_size
        )

    def run(self) -> Outcome:
        out = Outcome(self.name, gauge=self.gauge)
        # A USTOR client runs one operation at a time.
        loop = _ClosedLoop(self.sessions, self.inputs(), 1, out)
        connections = self.system.raw.connections
        frames_before = sum(c.frames_sent + c.frames_received for c in connections)
        cpu_before = _self_cpu_s()
        loop.begin()
        self.system.run_until(loop.finished, timeout=10 * self.seconds + 60.0)
        out.wall_s = loop.end()
        client_cpu = _self_cpu_s() - cpu_before

        signature = _settle_handles(out, loop.handles)
        out.failed = out.attempted - out.completed
        out.signature = signature.versions(self.system.raw.clients)
        out.counts = {
            "net.frames": sum(c.frames_sent + c.frames_received for c in connections)
            - frames_before,
            "net.reconnects": sum(c.reconnects for c in connections),
            "net.client_cpu_us": client_cpu * 1e6,
            "net.client_idle_us": max(out.wall_s - client_cpu, 0.0) * 1e6,
        }
        return out

    def check(self, out: Outcome) -> None:
        """Fill ``out.checks``; stops the server and collects its report."""
        out.checks = _replay_checks(self.system.raw.history())
        out.checks["no client failed"] = not any(
            c.failed for c in self.system.raw.clients
        )
        self.close()
        out.checks["server exited cleanly"] = self.server_exit == 0
        # The server's CPU after it began listening (its set-up excluded).
        server_cpu_s = self.server_cpu_s - self.server_report.get("ready_cpu_s", 0.0)
        out.counts["net.server_cpu_us"] = server_cpu_s * 1e6
        out.server = self.server_report

    def close(self) -> None:
        """Close the clients, stop the server and remove its directory."""
        if self.system is not None:
            self.system.close()
            self.system = None
        if self.server is not None:
            self.server.stop(timeout=30.0)
            self.server.process.stdout.close()  # stop() leaves the pipe open
            self.server_exit = self.server.process.returncode
            self.server_cpu_s = _children_cpu_s() - self._cpu_before
            self.server = None
            if os.path.exists(self.report_path):
                with open(self.report_path) as handle:
                    self.server_report = json.load(handle)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


WORKLOADS = {
    cls.name: cls for cls in (FaustReadMostly, UstorBatchedWrites, UstorTcpLoopback)
}


def measure(name: str, seed: int, seconds: float, traced: bool):
    """Open, run and close one workload; returns ``(outcome, tracer)``.

    Untraced runs wrap only the storage medium (to count the bytes
    behind ``storage_amp``); traced runs wrap every layer.  Wrappers go
    in before the deployment is built and come out before the outputs
    are checked.
    """
    from benchlib.layers import STORAGE_TARGETS, TARGETS
    from benchlib.tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    cls = WORKLOADS[name]
    if cls is UstorTcpLoopback:
        spans = os.path.join(OUT_DIR, f"spans-{name}-server.jsonl.gz")
        workload = cls(
            seed,
            seconds,
            server_mode="trace" if traced else "count",
            server_spans=spans if traced else None,
        )
    else:
        workload = cls(seed, seconds)
    # Its samples would land inside traced spans.
    workload.gauge.active = not traced
    tracer = Tracer(TARGETS if traced else STORAGE_TARGETS, spans=traced)
    try:
        tracer.install()
        try:
            workload.open()
            outcome = workload.run()
        finally:
            tracer.uninstall()
        # Output checks are the benchmark's work, not the program's: they
        # run with the wrappers out.
        workload.check(outcome)
    finally:
        workload.close()
    return outcome, tracer


def child_environment() -> dict[str, str]:
    """Environment for benchmark child processes: ``src`` importable."""
    env = dict(os.environ)
    parts = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env
