"""The running deployment: one class for every backend and transport.

:class:`System` is what every backend's ``open_system`` returns: the
wired protocol clients with their recorder, trace and keystore, the
scheduler that drives them, and the backend-agnostic surface on top —
per-client :class:`~repro.api.session.Session` objects, the
:class:`~repro.api.events.NotificationHub` delivering stability cuts
and failure notifications as typed events, and the backend's declared
:class:`~repro.api.capabilities.Capabilities`.

The transport is the scheduler.  On the simulator it is the virtual-time
:class:`~repro.sim.scheduler.Scheduler`; over TCP (:mod:`repro.net`) it
is a :class:`~repro.net.realtime.RealtimeScheduler` whose ``run`` and
``run_until`` pump the asyncio loop against the wall clock, and the
deployment also holds the sockets (``runtime``, ``connections``,
loopback ``hosts``, the wire-trace writer, a ``/metrics`` endpoint) that
:meth:`System.close` releases.  On the simulator there is nothing to
release and ``close()`` does nothing.

A sharded deployment (:class:`repro.cluster.system.ClusterSystem`)
subclasses this class and overrides only what topology changes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.api.capabilities import capabilities_of
from repro.api.errors import CapabilityError
from repro.api.events import NotificationHub
from repro.api.session import Session
from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.sim.faults import ServerFaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import BatchingPolicy
    from repro.history.history import History
    from repro.workloads.runner import IncrementalAuditor


@dataclass(eq=False)
class System:
    """A running deployment of one protocol (``backend_name``)."""

    backend_name: str
    scheduler: Any
    clients: list
    recorder: Any
    trace: Any
    keystore: Any
    network: Any = None
    offline: Any = None
    #: The co-located server (the first replica); ``None`` over TCP,
    #: where the servers are separate processes.
    server: Any = None
    #: Every server of the replica group, in replica order (``[server]``
    #: when unreplicated, empty over TCP).
    replica_servers: list = field(default_factory=list)
    #: The throughput pipeline (``None`` = unbatched); sessions read
    #: their flush policy from here.
    batching: "BatchingPolicy | None" = None
    #: Time budget of blocking session calls: virtual time units on the
    #: simulator, seconds over TCP.
    default_timeout: float = 1_000.0
    #: Assign a :class:`repro.obs.tracing.SpanLog` here *before* opening
    #: sessions to collect per-operation spans (sessions capture it once).
    span_log: object | None = None
    #: TCP only: the client :class:`~repro.net.client.NetRuntime`, its
    #: connections, loopback hosts closed with the deployment, the wire
    #: trace writer, and whether :meth:`close` also closes the event loop
    #: (False when the runtime was injected by its owner).
    runtime: Any = None
    connections: list = field(default_factory=list)
    hosts: list = field(default_factory=list)
    trace_writer: Any = None
    owns_runtime: bool = False
    #: Client-side ``/metrics`` endpoint, once :meth:`start_metrics` ran.
    metrics_server: Any = None
    #: False for a cluster's shards: the cluster wires its own hub per
    #: (client, shard) it touches, so a shard must not grow a second one.
    notify: InitVar[bool] = True

    #: The session class :meth:`session` binds clients with.
    session_type = Session

    def __post_init__(self, notify: bool) -> None:
        self.capabilities = capabilities_of(self.backend_name)
        self.notifications = NotificationHub() if notify else None
        self._sessions: dict[ClientId, Session] = {}
        if notify:
            self._wire_notifications()

    def _wire_notifications(self) -> None:
        hub = self.notifications
        scheduler = self.scheduler
        for client in self.clients:
            if hasattr(client, "add_stable_listener"):
                client.add_stable_listener(
                    lambda cut, _c=client: hub.emit_stability(
                        scheduler.now, _c.client_id, cut
                    )
                )
            if hasattr(client, "add_failure_listener"):
                client.add_failure_listener(
                    lambda reason, _c=client: hub.emit_failure(
                        scheduler.now, _c.client_id, reason
                    )
                )

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def session(self, client_id: ClientId, timeout: float | None = None) -> Session:
        """The session bound to ``client_id`` (cached per client unless an
        explicit ``timeout`` asks for a dedicated one)."""
        if not 0 <= client_id < len(self.clients):
            raise ConfigurationError(
                f"client {client_id} out of range: the deployment has "
                f"{len(self.clients)} client(s)"
            )
        if timeout is not None:
            return self.session_type(self, client_id, timeout=timeout)
        if client_id not in self._sessions:
            self._sessions[client_id] = self.session_type(self, client_id)
        return self._sessions[client_id]

    def sessions(self) -> list[Session]:
        """One session per client, in client order."""
        return [self.session(i) for i in range(len(self.clients))]

    def client(self, client_id: ClientId):
        """The client with id ``client_id``."""
        return self.clients[client_id]

    def require(self, capability: str) -> None:
        """Assert the backend provides ``capability`` (an attribute of its
        :class:`Capabilities`); raises :class:`CapabilityError` if not."""
        if not getattr(self.capabilities, capability):
            raise CapabilityError(
                f"backend {self.backend_name!r} does not provide {capability}"
            )

    @property
    def raw(self) -> "System":
        """The deployment itself (kept for callers of the old wrapper)."""
        return self

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current time: virtual on the simulator, wall-clock over TCP."""
        return self.scheduler.now

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the deployment; returns the number of events fired.
        Over TCP ``until`` (a wall-clock bound) is required."""
        return self.scheduler.run(until=until, max_events=max_events)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Run until ``predicate()`` holds; returns whether it ever did."""
        return self.scheduler.run_until(predicate, timeout=timeout)

    def run_until_quiescent(
        self, check_every: float | None = None, timeout: float | None = None
    ) -> None:
        """Run until no operation is pending at any client (or timeout).

        ``check_every`` is the poll cadence: the O(clients) all-idle scan
        re-runs only once the clock has advanced by that much since the
        last scan (``run_until`` evaluates its predicate after *every*
        event, so an unthrottled scan would dominate busy runs).  The
        deployment may therefore run up to ``check_every`` past the first
        quiescent instant before this call returns.  Defaults: a 1.0 time
        unit cadence and a 10,000 unit timeout on the simulator, 0.05 s
        and 30 s over TCP.
        """
        wall_clock = self.runtime is not None
        if check_every is None:
            check_every = 0.05 if wall_clock else 1.0
        if timeout is None:
            timeout = 30.0 if wall_clock else 10_000.0
        if check_every <= 0:
            raise ConfigurationError("check_every must be positive")

        last_scan = [float("-inf")]

        def quiet() -> bool:
            now = self.scheduler.now
            if now - last_scan[0] < check_every:
                return False
            last_scan[0] = now
            return all(
                not getattr(c, "busy", False) for c in self.clients if not c.crashed
            )

        self.run_until(quiet, timeout=timeout)

    def crash_client_at(self, client_id: ClientId, time: float) -> None:
        """Schedule a crash-stop of one client at an absolute time."""
        node = self.clients[client_id]
        self.scheduler.schedule_at(
            time, lambda: (node.crash(), self.trace.note(time, node.name, "crash"))
        )

    # ------------------------------------------------------------------ #
    # Histories, audits, profiles
    # ------------------------------------------------------------------ #

    def history(self) -> History:
        """The recorded history (pending operations included)."""
        return self.recorder.history()

    def attach_audit(
        self,
        every: float | None = None,
        checks: tuple[str, ...] = ("linearizability", "causal"),
    ) -> IncrementalAuditor:
        """Start periodic O(delta) consistency audits on this deployment
        (one streaming checker set per shard on a cluster); ``every``
        defaults to 50 time units on the simulator, 1 s over TCP."""
        from repro.workloads.runner import IncrementalAuditor

        if every is None:
            every = 1.0 if self.runtime is not None else 50.0
        return IncrementalAuditor(self, every=every, checks=checks)

    def profile(self) -> dict:
        """Machine-readable performance profile of this deployment
        (:func:`repro.perf.system_profile`), tagged with the backend."""
        from repro.perf.profile import system_profile

        return system_profile(self)

    # ------------------------------------------------------------------ #
    # Server faults (the storage/recovery axis; simulator only)
    # ------------------------------------------------------------------ #

    def server_outage(self, start: float, duration: float) -> None:
        """One crash-recovery window: server down over [start, start+duration).

        On a replica group the window hits **every** replica — a
        correlated outage, matching the single-server semantics "the
        service is down".  Use :meth:`replica_outage` to crash one
        replica (the fault an honest majority masks).
        """
        for index in range(len(self.replica_servers) or 1):
            self._server_faults(index).outage(start, duration)

    def replica_outage(self, replica: int, start: float, duration: float) -> None:
        """One crash-recovery window for a single replica of the group."""
        self._server_faults(replica).outage(start, duration)

    def _server_faults(self, replica: int) -> ServerFaultInjector:
        group = self.replica_servers or [self.server]
        if not 0 <= replica < len(group):
            raise ConfigurationError(
                f"replica {replica} out of range: the group has "
                f"{len(group)} replica(s)"
            )
        return ServerFaultInjector(self.scheduler, group[replica], self.trace)

    # ------------------------------------------------------------------ #
    # Lifecycle (TCP resources)
    # ------------------------------------------------------------------ #

    def start_metrics(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_scrape: Callable[[], None] | None = None,
    ):
        """Expose the current registry on an HTTP ``/metrics`` endpoint.

        Runs on the TCP runtime's event loop; returns the started
        :class:`~repro.obs.exposition.MetricsHTTPServer` (its ``port``
        resolves the ephemeral bind).  Stopped again by :meth:`close`.
        """
        from repro.obs.exposition import MetricsHTTPServer
        from repro.obs.registry import get_registry

        server = MetricsHTTPServer(
            get_registry(), host=host, port=port, on_scrape=on_scrape
        )
        self.runtime.run_coroutine(server.start())
        self.metrics_server = server
        return server

    def close(self) -> None:
        """Tear down connections, loopback hosts, trace and loop (TCP);
        a no-op on the simulator."""
        if self.runtime is None:
            return

        async def shutdown() -> None:
            for connection in self.connections:
                await connection.aclose()
            for host in self.hosts:
                await host.stop()
            if self.metrics_server is not None:
                await self.metrics_server.stop()

        if not self.runtime.loop.is_closed():
            self.runtime.run_coroutine(shutdown())
        if self.trace_writer is not None:
            self.trace_writer.close()
        if self.owns_runtime:
            self.runtime.close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<System backend={self.backend_name} "
            f"clients={len(self.clients)} t={self.now:.1f}>"
        )
