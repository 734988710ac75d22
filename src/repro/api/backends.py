"""Interchangeable protocol backends behind one ``open_system`` contract.

The paper's point is a *single* storage abstraction whose guarantees vary
with the protocol underneath; the :class:`Backend` protocol makes that a
first-class axis.  Experiments and workloads pick guarantees by picking a
backend:

========== ============================ ===========================================
backend     protocol                     guarantees
========== ============================ ===========================================
faust       USTOR + fail-aware layer     linearizable w/ correct server, weakly
                                         fork-linearizable always, fail-aware
                                         (stability + failure notifications)
ustor       USTOR alone                  weakly fork-linearizable, wait-free,
                                         local ``fail_i`` detection only
lockstep    SUNDR-style lock-step        fork-linearizable but blocking (not
                                         wait-free)
unchecked   plain remote store           none — the detection-gap baseline
cluster     N sharded USTOR/FAUST        per-shard guarantees of the shard
            servers                      protocol; forking shards detected by
                                         exactly the clients that touched them
========== ============================ ===========================================

Which ``SystemConfig`` knobs each backend and transport honours, and
each backend's :class:`Capabilities`, are declared once in
:mod:`repro.api.capabilities`; every backend here checks its cell of
that table before it wires anything.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.api.capabilities import Capabilities, capabilities_of, check
from repro.api.config import SystemConfig
from repro.api.system import System
from repro.common.errors import ConfigurationError


@runtime_checkable
class Backend(Protocol):
    """A protocol stack that can open a :class:`System` from a config."""

    name: str
    capabilities: Capabilities

    def open_system(self, config: SystemConfig) -> System:
        """Build and wire a deployment described by ``config``."""
        ...


def build_deployment(config: SystemConfig, protocol: str, **overrides):
    """Wire one simulated USTOR deployment described by ``config``.

    ``protocol`` ``"faust"`` adds the fail-aware layer; ``overrides``
    replace :class:`~repro.workloads.runner.SystemBuilder` arguments (the
    cluster backend names each shard and shares one scheduler).
    """
    from repro.workloads.runner import SystemBuilder

    kwargs = {
        "num_clients": config.num_clients,
        "seed": config.seed,
        "scheme": config.scheme,
        "latency": config.latency,
        "offline_latency": config.offline_latency,
        "server_factory": config.server_factory,
        "commit_piggyback": config.commit_piggyback,
        "storage": config.storage,
        "batching": config.batching,
        "replicas": config.replicas,
        "quorum": config.quorum,
        "counter": config.counter,
        "replica_server_factories": config.replica_server_factories,
    }
    builder = SystemBuilder(**{**kwargs, **overrides})
    if protocol == "faust":
        return builder.build_faust(
            checkpoint=config.checkpoint,
            membership=config.membership,
            **config.faust.as_kwargs(),
        )
    return builder.build()


class _TableBackend:
    """The shared open path: this backend's cell of the capability table
    (:mod:`repro.api.capabilities`), then the wiring."""

    name: str
    capabilities: Capabilities

    def open_system(self, config: SystemConfig) -> System:
        """Open a deployment described by ``config``; a knob this backend
        cannot honour is refused before anything is wired."""
        check(vars(config), self.name)
        system = self._open(config)
        system.default_timeout = config.default_timeout
        return system

    def _open(self, config: SystemConfig) -> System:
        system = build_deployment(config, self.name)
        # Sorted, so that when one window ends exactly where the next
        # begins, the restart event is enqueued (and fires) before the
        # next crash — event ties at the same virtual time break by
        # scheduling order.
        for start, duration in sorted(config.server_outages):
            system.server_outage(start, duration)
        return system


class FaustBackend(_TableBackend):
    """USTOR plus the fail-aware layer (Section 6) — the paper's service."""

    name = "faust"
    capabilities = capabilities_of(name)


class UstorBackend(_TableBackend):
    """The weak fork-linearizable protocol alone (Algorithms 1-2).

    With ``transport="tcp"`` the deployment's clients speak real sockets
    to an already-running ``repro serve`` process: purely the client half
    of the system.
    """

    name = "ustor"
    capabilities = capabilities_of(name)

    def _open(self, config: SystemConfig) -> System:
        if config.transport == "sim":
            return super()._open(config)
        from repro.net.client import open_tcp_system

        return open_tcp_system(
            config.num_clients,
            config.endpoints,
            server_name=config.server_name,
            seed=config.seed,
            scheme=config.scheme,
            default_timeout=config.default_timeout,
            commit_piggyback=config.commit_piggyback,
            trace_path=config.trace_path,
            trace_ids=config.trace_ids,
            span_log=config.span_log,
            replicas=config.replicas,
            quorum=config.quorum,
            counter=config.counter is not None,
        )


class LockstepBackend(_TableBackend):
    """The SUNDR-style lock-step baseline: fork-linearizable, blocking."""

    name = "lockstep"
    capabilities = capabilities_of(name)

    def _open(self, config: SystemConfig) -> System:
        from repro.baselines.lockstep import build_lockstep_system

        return build_lockstep_system(
            config.num_clients,
            seed=config.seed,
            scheme=config.scheme,
            latency=config.latency,
            offline_latency=config.offline_latency,
            server_factory=config.server_factory,
        )


class UncheckedBackend(_TableBackend):
    """The naive baseline: trusts every byte; nothing is ever detected."""

    name = "unchecked"
    capabilities = capabilities_of(name)

    def _open(self, config: SystemConfig) -> System:
        from repro.baselines.unchecked import build_unchecked_system

        return build_unchecked_system(
            config.num_clients,
            seed=config.seed,
            latency=config.latency,
            offline_latency=config.offline_latency,
            server_factory=config.server_factory,
        )


class ClusterBackend(_TableBackend):
    """N sharded single-server deployments behind one session facade.

    Every shard runs the protocol ``config.shard_protocol`` selects
    (``faust`` by default), so the cluster's capabilities are the shard
    protocol's — declared per deployment rather than on the class, since
    ``stability`` exists only with fail-aware shards.
    """

    name = "cluster"
    #: Capabilities of the default (fail-aware) shard protocol; the opened
    #: system carries the exact capabilities of its configuration.
    capabilities = capabilities_of(name)

    def _open(self, config: SystemConfig) -> System:
        from repro.cluster.backend import open_cluster_system

        return open_cluster_system(config)


#: The built-in backends, by name.
BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (
        FaustBackend(),
        UstorBackend(),
        LockstepBackend(),
        UncheckedBackend(),
        ClusterBackend(),
    )
}


def get_backend(backend: str | Backend) -> Backend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]
        except KeyError:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
            ) from None
    return backend


def open_system(config: SystemConfig, backend: str | Backend = "faust") -> System:
    """Open a deployment described by ``config`` on the chosen backend."""
    system = get_backend(backend).open_system(config)
    if config.span_log is not None:
        # Sessions read the span log off the facade when constructed, so
        # it must be attached before the first session() call.
        system.span_log = config.span_log
    return system
