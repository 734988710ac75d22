"""Which backend and transport honour which :class:`SystemConfig` knob.

This module is the one place that decides support.  :data:`KNOBS` lists,
for every ``SystemConfig`` field, the ``(backend, transport)`` cells that
honour it and the ``repro run`` flag that sets it; :data:`CAPABILITIES`
lists each protocol's guarantees.  ``SystemConfig`` checks the transport
column when it is built, every backend checks its own cell in
``open_system``, and ``repro run`` prints the same refusals in flag
vocabulary — all three through :func:`refusals`.

A knob counts as set when it differs from its dataclass default.  A set
knob is refused loudly rather than silently ignored, before anything is
wired.  ``faust`` (:class:`~repro.api.config.FaustParams`) is the one
exception: it is documented as ignored by backends without the
fail-aware layer, so experiments can pass it everywhere.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import Mapping

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Capabilities:
    """What a backend's deployments can be asked for."""

    #: Operations return per-client timestamps with Definition 5 Integrity.
    timestamps: bool
    #: ``stable_i(W)`` notifications / ``wait_for_stability`` available.
    stability: bool
    #: Server misbehaviour produces failure notifications.
    failure_detection: bool
    #: Operations complete under a correct server despite other clients
    #: crashing.
    wait_free: bool


#: Each protocol's guarantees.  A ``cluster`` deployment has the
#: guarantees of its shard protocol (see :func:`capabilities_of`).
CAPABILITIES: dict[str, Capabilities] = {
    "faust": Capabilities(
        timestamps=True, stability=True, failure_detection=True, wait_free=True
    ),
    "ustor": Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=True
    ),
    "lockstep": Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=False
    ),
    "unchecked": Capabilities(
        timestamps=True, stability=False, failure_detection=False, wait_free=True
    ),
}


def capabilities_of(backend: str, shard_protocol: str = "faust") -> Capabilities:
    """The guarantees of ``backend`` (a cluster's are its shard protocol's)."""
    return CAPABILITIES[shard_protocol if backend == "cluster" else backend]


BACKEND_NAMES = ("faust", "ustor", "lockstep", "unchecked", "cluster")
SIM = frozenset((backend, "sim") for backend in BACKEND_NAMES)
TCP = frozenset({("ustor", "tcp")})
#: Every deployment that exists: each backend on the simulator, plus the
#: bare-USTOR client over real sockets.
CELLS = SIM | TCP


def _sim(*backends: str) -> frozenset:
    return frozenset((backend, "sim") for backend in backends)


@dataclass(frozen=True)
class Knob:
    """Where one ``SystemConfig`` field is honoured."""

    #: The ``(backend, transport)`` cells that honour the knob.
    cells: frozenset
    #: The ``repro run`` flag that sets it (``None``: not a run flag).
    flag: str | None = None
    #: What a refusing deployment has no — completes "... has no ...".
    lacks: str = ""
    #: A :class:`Capabilities` flag the deployment must also provide.
    needs: str | None = None


#: The backends whose servers run USTOR (with its engine and pipeline).
_USTOR = _sim("faust", "ustor", "cluster")
_FAIL_AWARE = _sim("faust", "cluster")
_CLUSTER = _sim("cluster")
_REPLICAS = _CLUSTER | TCP
_WIRE = "real server processes"

#: Every ``SystemConfig`` field, in declaration order.
KNOBS: dict[str, Knob] = {
    "num_clients": Knob(CELLS, "--clients"),
    "seed": Knob(CELLS, "--seed"),
    "scheme": Knob(CELLS - _sim("unchecked"), lacks="signatures"),
    "latency": Knob(SIM),
    "offline_latency": Knob(SIM),
    "server_factory": Knob(SIM, "--server"),
    "commit_piggyback": Knob(_USTOR | TCP, lacks="COMMIT messages"),
    "default_timeout": Knob(CELLS, "--timeout"),
    "storage": Knob(_USTOR, "--storage", "storage engine"),
    "server_outages": Knob(_USTOR, "--outage", "storage engine"),
    "shards": Knob(_CLUSTER, "--shards", "shards"),
    "shard_map": Knob(_CLUSTER, "--shard-map", "shards"),
    "shard_protocol": Knob(_CLUSTER, lacks="shards"),
    "shard_server_factories": Knob(_CLUSTER, "--server-shard", "shards"),
    "shard_outages": Knob(_CLUSTER, "--shard-outage", "shards"),
    "replicas": Knob(_REPLICAS, "--replicas", "replica groups"),
    "quorum": Knob(_REPLICAS, "--quorum", "replica groups"),
    "counter": Knob(_REPLICAS, "--counter", "replica groups"),
    "replica_server_factories": Knob(
        _CLUSTER, "--server-replica", "replica groups"
    ),
    "batching": Knob(_USTOR, "--batch", "throughput pipeline"),
    "checkpoint": Knob(_FAIL_AWARE, lacks="fail-aware layer", needs="stability"),
    "membership": Knob(_FAIL_AWARE, lacks="fail-aware layer", needs="stability"),
    "faust": Knob(CELLS),
    "transport": Knob(CELLS, "--transport"),
    "endpoints": Knob(TCP, "--endpoints", _WIRE),
    "server_name": Knob(TCP, "--server-name", _WIRE),
    "trace_path": Knob(TCP, "--trace-file", _WIRE),
    "trace_ids": Knob(TCP, "--trace-ids", _WIRE),
    "span_log": Knob(CELLS, "--span-log"),
}


@cache
def _defaults() -> dict[str, object]:
    # Lazy: repro.api.config imports this module.
    from repro.api.config import SystemConfig

    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(SystemConfig)
        if f.default is not MISSING or f.default_factory is not MISSING
    }


def _where(cells: frozenset, cli: bool) -> str:
    sim = [b for b in BACKEND_NAMES if (b, "sim") in cells]
    tcp = [b for b in BACKEND_NAMES if (b, "tcp") in cells]
    if cli:
        parts = [f"--backend {'/'.join(sim)}"] if sim else []
        return " or ".join(parts + ["--transport tcp"] * bool(tcp))
    return ", ".join([repr(b) for b in sim] + [f"{b!r} over tcp" for b in tcp])


def refusals(
    values: Mapping[str, object], backend: str | None = None, cli: bool = False
) -> list[str]:
    """Why the knobs set in ``values`` cannot run on this deployment.

    ``values`` maps ``SystemConfig`` field names to values (absent = the
    default).  With ``backend=None`` only the transport column is
    checked — what ``SystemConfig`` itself can decide.  ``cli`` words the
    reasons in ``repro run`` flags instead of config fields.  Returns one
    reason per refused knob (empty when everything is honoured).
    """
    transport = values.get("transport", "sim")
    tcp = "--transport tcp" if cli else "transport='tcp'"
    found = []
    if backend is not None and (backend, transport) not in CELLS:
        speakers = "/".join(b for b, _t in sorted(TCP))
        found.append(
            f"the {backend!r} backend is simulator-only; {tcp} runs on the "
            f"{speakers!r} backend"
        )
        backend = None  # no cell to check; the transport column still applies
    if backend is not None:
        shard_protocol = values.get("shard_protocol", "faust")
        caps = capabilities_of(backend, shard_protocol)
        label = f"the {backend!r} backend"
        if backend == "cluster" and shard_protocol != "faust":
            label += f" with shard_protocol={shard_protocol!r}"
    for name, knob in KNOBS.items():
        if knob.cells == CELLS:
            continue
        default = _defaults()[name]
        if values.get(name, default) == default:
            continue
        on_transport = any(t == transport for _b, t in knob.cells)
        if on_transport and (
            backend is None
            or (backend, transport) in knob.cells
            and (knob.needs is None or getattr(caps, knob.needs))
        ):
            continue
        knob_name = knob.flag if cli and knob.flag else f"{name}="
        where = _where(knob.cells, cli)
        if on_transport:
            found.append(
                f"{label} has no {knob.lacks}: {knob_name} is only supported "
                f"on {where}"
            )
        elif transport == "tcp":
            found.append(
                f"{tcp} runs the server in its own process: {knob_name} is "
                f"only supported on {where} (server-side options go on the "
                f"'repro serve' command line)"
            )
        else:
            found.append(
                f"{knob_name} needs {tcp}: the simulator has no {knob.lacks}"
            )
    return found


def check(values: Mapping[str, object], backend: str | None = None) -> None:
    """Raise :class:`ConfigurationError` listing every :func:`refusals`."""
    found = refusals(values, backend)
    if found:
        raise ConfigurationError("; ".join(found))
