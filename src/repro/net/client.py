"""Asyncio client runtime: real connections behind the unchanged facade.

The protocol clients (:class:`~repro.ustor.client.UstorClient`) and the
session layer above them are event-driven and never block, so moving
them onto sockets needs no changes there — only a transport whose
``send`` writes frames, and a scheduler whose ``now`` is a wall clock.
:func:`open_tcp_system` assembles both into the same
:class:`~repro.api.system.System` the simulator builds (its scheduler is
a :class:`~repro.net.realtime.RealtimeScheduler`, and it holds the
connections it closes), which is what keeps ``Session``/``OpHandle``,
the incremental auditors, the workload driver and the consistency
checkers working unchanged.

Reliability bridge
------------------

The model assumes reliable FIFO channels; TCP provides that only while
one connection lives.  Each client therefore keeps an ``unacked`` list
of every frame sent since its last received REPLY and retransmits it
after reconnecting (the server deduplicates — see
:mod:`repro.net.server`).  A REPLY empties the list *before* it is
delivered, so the COMMIT (and any next SUBMIT) the delivery triggers
starts the next unacked window.

Waiting
-------

``run_until(predicate, timeout)`` pumps the event loop until the
predicate holds or ``timeout`` wall-clock seconds pass, waking on every
received frame.  Session code maps a ``False`` return to
:class:`~repro.api.errors.OperationTimeout` — the paper's timed model
(operations complete or time out in bounded wall-clock time) lands on
exactly the same exception the simulated deadline used.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable

from repro.api.system import System
from repro.common.errors import (
    ConfigurationError,
    DecodeError,
    EncodingError,
    SimulationError,
)
from repro.crypto.keystore import KeyStore
from repro.history.recorder import HistoryRecorder
from repro.net.framing import MAX_FRAME_BYTES, encode_frame, read_frame
from repro.net.realtime import RealtimeScheduler
from repro.obs.registry import SIZE_BUCKETS, get_registry
from repro.net.wire import (
    decode_payload,
    hello_payload,
    message_to_payload,
    payload_to_message,
)
from repro.sim.trace import SimTrace
from repro.ustor.client import UstorClient
from repro.ustor.messages import ReplyMessage

__all__ = [
    "NetRuntime",
    "ClientConnection",
    "ClientTransport",
    "ReconnectBackoff",
    "open_tcp_system",
    "parse_endpoint",
]


class ReconnectBackoff:
    """Exponential reconnect backoff with deterministic full-range jitter.

    Consecutive failed attempts wait ``base * multiplier**attempt``
    capped at ``cap``, each scaled by a jitter factor drawn uniformly
    from ``[0.5, 1.0)`` — enough spread that a fleet of clients whose
    server just died does not retry in lockstep (the reconnect
    thundering herd), while keeping a floor of half the nominal delay so
    backoff still backs off.  The jitter stream is ``random.Random(seed)``,
    so a seeded deployment replays the exact same delays.

    :meth:`reset` (called after a successful handshake) starts the
    schedule over, so one long outage does not penalize the next blip.
    """

    def __init__(
        self,
        base: float = 0.05,
        *,
        multiplier: float = 2.0,
        cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if base <= 0:
            raise ConfigurationError("backoff base must be positive")
        if multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if cap < base:
            raise ConfigurationError("backoff cap must be >= base")
        self._base = base
        self._multiplier = multiplier
        self._cap = cap
        self._rng = random.Random(seed)
        self._attempt = 0

    @property
    def attempt(self) -> int:
        """Failed attempts since the last :meth:`reset`."""
        return self._attempt

    def next_delay(self) -> float:
        """The delay to sleep before the next reconnect attempt."""
        ceiling = min(self._cap, self._base * self._multiplier**self._attempt)
        self._attempt += 1
        return ceiling * (0.5 + 0.5 * self._rng.random())

    def reset(self) -> None:
        """A connection succeeded; start the schedule over."""
        self._attempt = 0


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with loud failure."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ConfigurationError(
            f"endpoints are 'host:port' strings, got {endpoint!r}"
        )
    return host, int(port)


class NetRuntime:
    """Owns the event loop and the pump that stands in for ``run_until``."""

    def __init__(self, *, seed: int = 0) -> None:
        self.loop = asyncio.new_event_loop()
        self.scheduler = RealtimeScheduler(self.loop, seed=seed)
        self.scheduler.attach_runtime(self)
        self._wake: asyncio.Event | None = None
        self._closed = False

    def wake(self) -> None:
        """Nudge a pending :meth:`pump_until` (called on frame receipt)."""
        if self._wake is not None:
            self._wake.set()

    def pump_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Drive the loop until ``predicate()`` or ``timeout`` seconds."""
        if self.loop.is_running():
            raise SimulationError(
                "re-entrant wait: run_until called from inside the event loop"
            )
        deadline = None if timeout is None else self.scheduler.now + timeout

        async def pump() -> bool:
            if self._wake is None:
                self._wake = asyncio.Event()
            while True:
                if predicate():
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - self.scheduler.now
                    if remaining <= 0:
                        return False
                self._wake.clear()
                # The wake event covers frame receipt; the short fallback
                # poll covers everything else (timers, connects, deadline).
                delay = 0.05 if remaining is None else min(0.05, remaining)
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass

        return self.loop.run_until_complete(pump())

    def run_coroutine(self, coro):
        """Run one coroutine to completion on the runtime's loop."""
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.loop.close()


class ClientConnection:
    """One client's TCP link to one server, with reconnect + retransmit."""

    def __init__(
        self,
        runtime: NetRuntime,
        client_id: int,
        num_clients: int,
        endpoint: str,
        server_name: str,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        reconnect_delay: float = 0.05,
        reconnect_seed: int | None = None,
        sim_trace: SimTrace | None = None,
        trace_writer=None,
        trace_s2c: bool = True,
    ) -> None:
        self._runtime = runtime
        self.client_id = client_id
        self._n = num_clients
        self.host, self.port = parse_endpoint(endpoint)
        self.server_name = server_name
        self._max_frame = max_frame_bytes
        self._reconnect_delay = reconnect_delay
        # Per-client jitter stream: default seed keys off the client id
        # so a fleet sharing one config still de-synchronizes.
        self._backoff = ReconnectBackoff(
            reconnect_delay,
            seed=client_id if reconnect_seed is None else reconnect_seed,
        )
        self._sim_trace = sim_trace
        self._trace_writer = trace_writer
        #: With a replica group the raw per-replica REPLY stream is not
        #: the client's logical input (the quorum winner is), so inbound
        #: recording moves to the resolution hook and this stays False.
        self._trace_s2c = trace_s2c
        self._node: UstorClient | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self.connected = False
        #: A fatal handshake mismatch (wrong server / population); set
        #: once, stops the reconnect loop for good.
        self.error: str | None = None
        #: Frames sent since the last REPLY received, for retransmission.
        self.unacked: list[bytes] = []
        self.reconnects = 0
        self.frames_sent = 0
        self.frames_received = 0
        # Registry handles captured once: aggregate transport counters
        # across every connection (no-op instruments when metrics are off).
        registry = get_registry()
        self._obs_sent = registry.counter("net.frames_sent")
        self._obs_received = registry.counter("net.frames_received")
        self._obs_reconnects = registry.counter("net.reconnects")
        self._obs_retransmissions = registry.counter("net.retransmissions")
        self._obs_frame_bytes = registry.histogram(
            "net.frame_bytes", SIZE_BUCKETS
        )

    def attach(self, node: UstorClient) -> None:
        self._node = node

    def start(self) -> None:
        self._task = self._runtime.loop.create_task(self._run())

    # -- outbound ------------------------------------------------------ #

    def send_message(self, message) -> None:
        payload = message_to_payload(message)
        self.unacked.append(payload)
        if self._trace_writer is not None:
            self._trace_writer.frame("c2s", self.client_id, payload, retx=False)
        if self._sim_trace is not None:
            now = self._runtime.scheduler.now
            self._sim_trace.record_message(
                now, now, self._node.name, self.server_name,
                getattr(message, "kind", type(message).__name__),
                len(payload),
            )
        self._write(payload)

    def _write(self, payload: bytes) -> None:
        if self._writer is None or self._writer.is_closing():
            return  # queued in unacked; the reconnect flush will carry it
        try:
            self._writer.write(encode_frame(payload, max_bytes=self._max_frame))
            self.frames_sent += 1
            self._obs_sent.inc()
            self._obs_frame_bytes.observe(len(payload))
        except (ConnectionError, OSError):  # pragma: no cover - close race
            pass

    # -- connection loop ----------------------------------------------- #

    async def _run(self) -> None:
        first_attempt = True
        while not self._closed:
            if not first_attempt:
                await asyncio.sleep(self._backoff.next_delay())
            first_attempt = False
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except (ConnectionError, OSError):
                continue
            try:
                writer.write(
                    encode_frame(hello_payload(self.client_id, self._n))
                )
                welcome = await read_frame(reader, max_bytes=self._max_frame)
                if welcome is None:
                    continue
                record = decode_payload(welcome, max_bytes=self._max_frame)
                if not (
                    record[0] == "WELCOME"
                    and len(record) == 3
                    and record[1] == self.server_name
                    and record[2] == self._n
                ):
                    # A mis-wired deployment, not a transient fault:
                    # reconnecting will not fix it, so stop for good.
                    self.error = (
                        f"endpoint {self.host}:{self.port} answered as "
                        f"{record[1:]!r}; expected server "
                        f"{self.server_name!r} with {self._n} client(s)"
                    )
                    self._closed = True
                    return
                self._writer = writer
                self.connected = True
                self._backoff.reset()
                self._runtime.wake()
                for payload in list(self.unacked):
                    # Retransmissions are flagged so the replayer knows the
                    # logical message was already recorded once.
                    if self._trace_writer is not None:
                        self._trace_writer.frame(
                            "c2s", self.client_id, payload, retx=True
                        )
                    writer.write(
                        encode_frame(payload, max_bytes=self._max_frame)
                    )
                if self.unacked:
                    self.reconnects += 1
                    self._obs_reconnects.inc()
                    self._obs_retransmissions.inc(len(self.unacked))
                await writer.drain()
                while True:
                    payload = await read_frame(reader, max_bytes=self._max_frame)
                    if payload is None:
                        break
                    self._on_payload(payload)
            except (ConnectionError, OSError):
                pass
            except (DecodeError, EncodingError):
                # Undecodable bytes from the (untrusted) server: note it,
                # drop the connection, let deadlines do their job.
                if self._sim_trace is not None and self._node is not None:
                    self._sim_trace.note(
                        self._runtime.scheduler.now,
                        self._node.name,
                        "net-malformed-frame",
                    )
            finally:
                self.connected = False
                self._writer = None
                writer.close()

    def _on_payload(self, payload: bytes) -> None:
        self.frames_received += 1
        self._obs_received.inc()
        if self._trace_writer is not None and self._trace_s2c:
            self._trace_writer.frame("s2c", self.client_id, payload, retx=False)
        message = payload_to_message(payload)
        if self._sim_trace is not None:
            now = self._runtime.scheduler.now
            self._sim_trace.record_message(
                now, now, self.server_name, self._node.name,
                getattr(message, "kind", type(message).__name__),
                len(payload),
            )
        if isinstance(message, ReplyMessage):
            # Everything up to here is answered; the COMMIT/next SUBMIT the
            # delivery below triggers opens the next unacked window.
            self.unacked.clear()
        if self._node is not None:
            self._node.deliver(self.server_name, message)
        self._runtime.wake()

    # -- teardown ------------------------------------------------------ #

    async def aclose(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class ClientTransport:
    """The :class:`~repro.net.transport.Transport` over per-client sockets.

    Routes ``send(src, dst, ...)`` to the connection registered for the
    ``(client, server)`` pair — one client may hold several connections
    on a sharded deployment.
    """

    def __init__(self, runtime: NetRuntime, trace: SimTrace | None = None) -> None:
        self._runtime = runtime
        self._trace = trace
        self._routes: dict[tuple[str, str], ClientConnection] = {}

    @property
    def trace(self) -> SimTrace | None:
        return self._trace

    def register(self, node) -> None:
        node.bind(self._runtime.scheduler, self)

    def add_route(self, client_name: str, connection: ClientConnection) -> None:
        self._routes[(client_name, connection.server_name)] = connection

    def send(self, src: str, dst: str, message) -> None:
        route = self._routes.get((src, dst))
        if route is None:
            raise ConfigurationError(
                f"no connection from {src!r} to {dst!r}"
            )
        route.send_message(message)

    def send_multi(self, src: str, dsts, message) -> None:
        """Fan one message out to several servers (replica broadcast).

        TCP gives each replica its own connection, so unlike the
        simulator's shared-sample :meth:`Network.send_multi` there is no
        latency stream to share — this is exactly N sends."""
        for dst in dsts:
            self.send(src, dst, message)


def _wait_connected(system: System, timeout: float) -> None:
    """Block until every connection of ``system`` finished its handshake."""
    connections = system.connections
    ok = system.run_until(
        lambda: any(c.error for c in connections)
        or all(c.connected for c in connections),
        timeout=timeout,
    )
    errors = sorted({c.error for c in connections if c.error})
    if errors:
        raise ConfigurationError("; ".join(errors))
    if not ok:
        missing = [f"{c.host}:{c.port}" for c in connections if not c.connected]
        raise ConfigurationError(
            f"could not connect to {sorted(set(missing))} within {timeout:g}s"
        )


def open_tcp_system(
    num_clients: int,
    endpoints: tuple[str, ...] | list[str] | str,
    *,
    seed: int = 0,
    scheme: str = "hmac",
    server_name: str = "S",
    default_timeout: float = 30.0,
    commit_piggyback: bool = False,
    trace_path: str | None = None,
    runtime: NetRuntime | None = None,
    connect_timeout: float | None = 5.0,
    trace_ids: bool = False,
    span_log=None,
    replicas: int = 1,
    quorum: int | None = None,
    counter: bool = False,
) -> System:
    """Open a single-shard deployment over real TCP.

    ``endpoints`` must name one ``host:port`` per replica — exactly one
    for the paper's single server (the sharded form lives in the cluster
    layer).  Keys are deterministic from ``(scheme, num_clients)`` — the
    same determinism that makes simulated runs reproducible makes the
    server processes and the replayer agree with these clients about
    every signature.

    With ``replicas > 1`` each client opens one connection per replica
    process (named ``S/r0`` .. ``S/r{k-1}``) and resolves replies through
    a client-side :class:`~repro.replica.coordinator.QuorumCoordinator`;
    ``counter=True`` additionally arms the
    :class:`~repro.replica.counter.CounterVerifier` against the counter
    attestations the server processes attach.  A wire trace then records
    the client's *logical* streams: outbound frames once per broadcast
    (on replica ``r0``'s connection) and inbound replies at quorum
    resolution — the winner the protocol engine consumed, not any one
    replica's raw arrivals (a round can resolve before ``r0``'s reply
    lands, and the raw stream would replay out of order).  The
    single-server replayer works unchanged on that trace.

    ``trace_ids=True`` stamps SUBMIT/COMMIT with deterministic causal
    trace ids (recorded in the wire-trace header so replay stays
    byte-identical); ``span_log`` shares one
    :class:`~repro.obs.tracing.SpanLog` across the clients and sessions.
    """
    if isinstance(endpoints, str):
        endpoints = tuple(part for part in endpoints.split(",") if part)
    if replicas == 1 and len(endpoints) != 1:
        raise ConfigurationError(
            f"a single-server system takes exactly one endpoint, "
            f"got {list(endpoints)!r}"
        )
    if len(endpoints) != replicas:
        raise ConfigurationError(
            f"a replica group needs one endpoint per replica: "
            f"replicas={replicas} but {len(endpoints)} endpoint(s) given"
        )
    replica_names = (
        [server_name]
        if replicas == 1
        else [f"{server_name}/r{k}" for k in range(replicas)]
    )
    owns_runtime = runtime is None
    runtime = runtime or NetRuntime(seed=seed)
    sim_trace = SimTrace()
    transport = ClientTransport(runtime, trace=sim_trace)
    keystore = KeyStore(num_clients, scheme=scheme)
    recorder = HistoryRecorder()
    trace_writer = None
    if trace_path is not None:
        from repro.net.trace import WireTraceWriter

        trace_writer = WireTraceWriter(
            trace_path,
            clock=lambda: runtime.scheduler.now,
            num_clients=num_clients,
            scheme=scheme,
            # The first replica's view: with replicas > 1 only its
            # connections carry the frame hook, and the replayer talks to
            # it by name.
            server_name=replica_names[0],
            endpoints=tuple(endpoints),
            commit_piggyback=commit_piggyback,
            trace_ids=trace_ids,
        )
        recorder.add_listener(trace_writer)
    replica_kwargs: dict = {}
    if replicas > 1:
        replica_kwargs = {
            "replica_servers": tuple(replica_names),
            "quorum": quorum,
            "counter": counter,
        }
    elif counter:
        replica_kwargs = {"counter": True}
    clients: list[UstorClient] = []
    connections: list[ClientConnection] = []
    for i in range(num_clients):
        client = UstorClient(
            client_id=i,
            num_clients=num_clients,
            signer=keystore.signer(i),
            server_name=replica_names[0],
            recorder=recorder,
            commit_piggyback=commit_piggyback,
            trace_ids=trace_ids,
            **replica_kwargs,
        )
        client.span_log = span_log
        if trace_writer is not None and replicas > 1:
            # The logical inbound stream: the quorum winner at resolution
            # time, recorded in place of any raw per-replica arrival.
            def record_resolved(message, _client_id=i):
                trace_writer.frame(
                    "s2c", _client_id, message_to_payload(message), retx=False
                )

            client.resolved_reply_hook = record_resolved
        transport.register(client)
        for k, (endpoint, name) in enumerate(zip(endpoints, replica_names)):
            connection = ClientConnection(
                runtime,
                i,
                num_clients,
                endpoint,
                name,
                sim_trace=sim_trace,
                # Distinct deterministic jitter stream per (client, replica)
                # link, reproducible from the system seed.
                reconnect_seed=(seed << 16) ^ (i * len(endpoints) + k),
                trace_writer=trace_writer if k == 0 else None,
                trace_s2c=replicas == 1,
            )
            connection.attach(client)
            transport.add_route(client.name, connection)
            connection.start()
            connections.append(connection)
        clients.append(client)
    system = System(
        backend_name="ustor",
        scheduler=runtime.scheduler,
        network=transport,
        clients=clients,
        recorder=recorder,
        trace=sim_trace,
        keystore=keystore,
        default_timeout=default_timeout,
        span_log=span_log,
        runtime=runtime,
        connections=connections,
        trace_writer=trace_writer,
        owns_runtime=owns_runtime,
    )
    if connect_timeout is not None:
        try:
            _wait_connected(system, connect_timeout)
        except ConfigurationError:
            system.close()
            raise
    return system
