"""One facade surface for every deployment, whatever its transport.

Every backend's ``open_system`` returns a deployment with the same
surface — sessions, capability checks, run/run_until/quiescence, the
notification hub, audits, profiles, histories — on the simulator and
over TCP, and a cluster presents it too (with one history per shard).
The parametrized surface test below covers faust/ustor/lockstep/
unchecked/cluster on the simulator plus ustor over a TCP loopback
server; the remaining tests pin the notification wiring order, the
cluster's touch-scoped shard wiring, lifecycle (``close``/``with``) and
the import footprint of :mod:`repro.api`.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.api import (
    CapabilityError,
    CheckpointPolicy,
    NotificationHub,
    SystemConfig,
    open_system,
)
from repro.baselines.lockstep import LockStepClient
from repro.baselines.unchecked import UncheckedClient
from repro.cluster.system import ClusterClient
from repro.common.errors import ConfigurationError
from repro.faust.client import FaustClient
from repro.net.client import NetRuntime
from repro.net.server import NetServerHost
from repro.ustor.client import UstorClient

SIM_BACKENDS = ("faust", "ustor", "lockstep", "unchecked", "cluster")
DEPLOYMENTS = SIM_BACKENDS + ("ustor-tcp",)

#: The protocol-client class each single-server deployment exposes.
CLIENT_TYPES = {
    "faust": FaustClient,
    "ustor": UstorClient,
    "lockstep": LockStepClient,
    "unchecked": UncheckedClient,
    "ustor-tcp": UstorClient,
}


@contextmanager
def threaded_host(num_clients: int):
    """A loopback :class:`NetServerHost` serving on its own event-loop
    thread, so the clients can be opened through the ``ustor`` backend
    (which owns its client runtime) rather than sharing one loop."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    host = NetServerHost(num_clients)
    try:
        asyncio.run_coroutine_threadsafe(host.start(), loop).result(10)
        yield host
    finally:
        asyncio.run_coroutine_threadsafe(host.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture(params=DEPLOYMENTS)
def deployment(request):
    """``(name, system)`` for one deployment with three clients."""
    name = request.param
    if name == "ustor-tcp":
        with threaded_host(3) as host:
            system = open_system(
                SystemConfig(
                    num_clients=3,
                    transport="tcp",
                    endpoints=(host.endpoint,),
                    default_timeout=10.0,
                ),
                backend="ustor",
            )
            try:
                yield name, system
            finally:
                system.close()
        return
    extra = {"shards": 3} if name == "cluster" else {}
    yield name, open_system(SystemConfig(num_clients=3, seed=5, **extra), backend=name)


def budget_of(name: str) -> float:
    """A generous time budget: wall-clock seconds over TCP, virtual
    time units on the simulator."""
    return 10.0 if name == "ustor-tcp" else 1_000.0


@pytest.mark.net
def test_facade_surface(deployment):
    name, system = deployment
    budget = budget_of(name)
    assert system.backend_name == ("ustor" if name == "ustor-tcp" else name)

    # clients: protocol clients on one server, routing proxies on a cluster
    assert len(system.clients) == 3
    expected = ClusterClient if name == "cluster" else CLIENT_TYPES[name]
    assert all(type(client) is expected for client in system.clients)

    # sessions: cached per client unless a dedicated timeout is asked for
    alice = system.session(0)
    assert system.session(0) is alice
    assert alice.timeout == budget
    dedicated = system.session(0, timeout=budget / 2)
    assert dedicated is not alice and dedicated.timeout == budget / 2
    sessions = system.sessions()
    assert [s.client_id for s in sessions] == [0, 1, 2]
    assert sessions[0] is alice

    # guarantees
    system.require("timestamps")
    if not system.capabilities.stability:
        with pytest.raises(CapabilityError, match="stability"):
            system.require("stability")

    assert isinstance(system.notifications, NotificationHub)
    subscription = system.notifications.subscribe()
    auditor = system.attach_audit(every=budget / 100)

    # running
    start = system.now
    alice.write_sync(b"surface")
    value, _t = sessions[1].read_sync(0)
    assert value == b"surface"
    assert system.now > start
    assert system.run_until(lambda: True, timeout=budget) is True
    assert system.run_until(lambda: False, timeout=budget / 100) is False
    assert isinstance(system.run(until=system.now + budget / 100), int)
    if name != "cluster":  # a cluster gains it by inheritance (below)
        system.run_until_quiescent(timeout=budget)
        assert not any(getattr(c, "busy", False) for c in system.clients)

    # histories: one per deployment, one per shard on a cluster
    if name == "cluster":
        with pytest.raises(CapabilityError, match="shard_histories"):
            system.history()
        histories = system.shard_histories()
        assert sorted(histories) == [0, 1, 2]
        assert sum(len(h) for h in histories.values()) >= 2
    else:
        assert len(system.history()) >= 2
        assert system.raw.clients[0] is system.clients[0]
        assert len(system.raw.history()) == len(system.history())

    assert auditor.final().ok
    assert not system.notifications.failure_events()
    assert subscription.events == system.notifications.history
    if name != "ustor-tcp":  # profiled over TCP below
        check_profile(name, system)


def check_profile(name, system):
    profile = system.profile()
    assert profile["kind"] == ("cluster" if name == "cluster" else "single")
    assert profile["backend"] == system.backend_name
    assert profile["clients"]["completed_operations"] >= 1
    json.dumps(profile)


@pytest.mark.net
def test_tcp_run_needs_a_wall_clock_bound():
    with threaded_host(2) as host:
        system = open_system(
            SystemConfig(
                num_clients=2,
                transport="tcp",
                endpoints=(host.endpoint,),
                default_timeout=10.0,
            ),
            backend="ustor",
        )
        try:
            with pytest.raises(ConfigurationError, match="wall-clock bound"):
                system.run()
        finally:
            system.close()


@pytest.mark.net
def test_one_class_surface_on_every_transport(deployment):
    # What the single deployment class adds everywhere: ``raw`` is the
    # deployment itself, quiescence runs on clusters too, profiles work
    # over TCP, and close() and ``with`` work on both transports.
    name, system = deployment
    assert system.raw is system
    system.session(0).write(b"pending")
    system.run_until_quiescent(timeout=budget_of(name))
    assert not any(getattr(c, "busy", False) for c in system.clients)
    check_profile(name, system)
    with system as entered:
        assert entered is system
        system.session(1).write_sync(b"inside")
    if name != "ustor-tcp":
        # On the simulator there is nothing to release: close() is a
        # no-op and the deployment keeps running.
        system.close()
        assert system.session(1).write_sync(b"after") == 2


@pytest.mark.net
def test_realtime_scheduler_run_returns_the_events_fired():
    runtime = NetRuntime()
    try:
        scheduler = runtime.scheduler
        fired = []
        scheduler.schedule(0.01, fired.append, 1)
        scheduler.schedule(0.02, fired.append, 2)
        count = scheduler.run(until=scheduler.now + 0.2)
        assert fired == [1, 2]
        assert count == 2
    finally:
        runtime.close()


def test_driver_routes_through_sessions_on_a_builder_deployment():
    # A SystemBuilder deployment is the same class as an opened one, so
    # the workload driver can feed it through its sessions.
    from repro.workloads.generator import Driver, PlannedOp
    from repro.workloads.runner import SystemBuilder
    from repro.common.types import OpKind

    system = SystemBuilder(num_clients=2, seed=1).build()
    driver = Driver(system, via_sessions=True)
    driver.attach(0, [PlannedOp(OpKind.WRITE, 0, b"a", 1.0)])
    driver.attach(1, [PlannedOp(OpKind.READ, 0, None, 5.0)])
    system.run(until=100)
    assert driver.stats.total_completed() == 2
    assert system.session(0).outstanding == 0


class TestNotificationWiring:
    def test_faust_hub_wired_at_open_after_compaction_before_sessions(self):
        system = open_system(
            SystemConfig(
                num_clients=3, seed=2, checkpoint=CheckpointPolicy(interval=4)
            ),
            backend="faust",
        )
        client = system.clients[0]
        # The compaction listener is the deployment's own checkpoint
        # listener; the hub listens for stability and failure from open.
        assert len(client._checkpoint_listeners) == 1
        assert len(client._stable_listeners) == 1
        assert len(client._faust_fail_listeners) == 1
        session = system.session(0)
        assert len(client._faust_fail_listeners) == 2
        assert client._faust_fail_listeners[1] == session._on_client_failure

    @pytest.mark.parametrize("backend", ["ustor", "lockstep"])
    def test_failure_listener_order(self, backend):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend=backend)
        client = system.clients[1]
        listeners = getattr(client, "_fail_listeners", None)
        if listeners is None:
            pytest.skip(f"{backend} clients take no failure listeners")
        assert len(listeners) == 1
        session = system.session(1)
        assert listeners[1] == session._on_client_failure

    def test_stability_seq_numbers_follow_emission(self):
        system = open_system(SystemConfig(num_clients=2, seed=8), backend="faust")
        for session in system.sessions():
            session.write_sync(b"v")
        system.run(until=system.now + 200)
        seqs = [e.seq for e in system.notifications.history]
        assert seqs == list(range(len(seqs)))
        assert system.notifications.stability_events()


class TestClusterShardWiring:
    def test_shards_carry_no_hub_and_wire_on_touch_only(self):
        system = open_system(
            SystemConfig(num_clients=4, seed=3, shards=2), backend="cluster"
        )
        for shard in system.shards:
            assert getattr(shard, "notifications", None) is None
            for instance in shard.clients:
                assert instance._stable_listeners == []
                assert instance._faust_fail_listeners == []
        session = system.session(0)
        session.write_sync(b"home")
        home = system.shard_of(0)
        assert len(system.shards[home].clients[0]._stable_listeners) == 1
        other = 1 - home
        assert system.shards[other].clients[0]._stable_listeners == []
        system.run(until=system.now + 200)
        for shard in system.shards:
            assert getattr(shard, "notifications", None) is None
        assert system.notifications.stability_events()


def test_importing_the_api_leaves_transport_cluster_baselines_and_perf_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.api\n"
        "banned = ('repro.net', 'repro.cluster', 'repro.baselines', 'repro.perf')\n"
        "print(sorted(m for m in sys.modules if m.startswith(banned)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
