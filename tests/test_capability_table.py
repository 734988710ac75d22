"""The capability table, cell by cell: every (backend, transport, knob).

``EXPECTED`` restates which deployments honour which ``SystemConfig``
knob, independently of :mod:`repro.api.capabilities`.  Every cell is
then held against behaviour: an unsupported cell is refused with a
``ConfigurationError`` naming the knob before anything is wired, a
supported simulated cell opens, and ``repro run`` exits 2 naming the
flag.  The tcp cells point at ``127.0.0.1:1``, where nothing listens, so
a refusal that came too late would read "could not connect" instead.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.baselines.lockstep
import repro.baselines.unchecked
import repro.net.client
import repro.workloads.runner
from repro.api import (
    BACKENDS,
    Capabilities,
    FaustParams,
    SystemConfig,
    get_backend,
    open_system,
)
from repro.baselines.lockstep import LockStepServer
from repro.baselines.unchecked import UncheckedServer
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.sim.network import FixedLatency
from repro.ustor.server import UstorServer

BACKEND_NAMES = ("faust", "ustor", "lockstep", "unchecked", "cluster")
SIM = frozenset((b, "sim") for b in BACKEND_NAMES)
TCP = frozenset({("ustor", "tcp")})
NOWHERE = "127.0.0.1:1"


def sim(*backends):
    return frozenset((b, "sim") for b in backends)


#: Knobs every deployment takes (``faust`` is ignored off FAUST).
UNIVERSAL = {"num_clients", "seed", "default_timeout", "span_log", "transport", "faust"}

#: Every other knob: the cells that honour it.
EXPECTED = {
    "scheme": (SIM | TCP) - sim("unchecked"),
    "latency": SIM,
    "offline_latency": SIM,
    "server_factory": SIM,
    "commit_piggyback": sim("faust", "ustor", "cluster") | TCP,
    "storage": sim("faust", "ustor", "cluster"),
    "server_outages": sim("faust", "ustor", "cluster"),
    "batching": sim("faust", "ustor", "cluster"),
    "checkpoint": sim("faust", "cluster"),
    "membership": sim("faust", "cluster"),
    "shards": sim("cluster"),
    "shard_map": sim("cluster"),
    "shard_protocol": sim("cluster"),
    "shard_server_factories": sim("cluster"),
    "shard_outages": sim("cluster"),
    "replica_server_factories": sim("cluster"),
    "replicas": sim("cluster") | TCP,
    "quorum": sim("cluster") | TCP,
    "counter": sim("cluster") | TCP,
    "endpoints": TCP,
    "server_name": TCP,
    "trace_path": TCP,
    "trace_ids": TCP,
}

#: ``repro run`` flags for the knobs it sets: (the knob's flag, argv).
CLI = {
    "server_factory": ("--server", ["--server", "tampering"]),
    "storage": ("--storage", ["--storage", "log"]),
    "server_outages": ("--outage", ["--outage", "5", "5"]),
    "batching": ("--batch", ["--batch", "2"]),
    "shards": ("--shards", ["--shards", "2"]),
    "shard_map": ("--shard-map", ["--shard-map", "hash"]),
    "shard_server_factories": (
        "--server-shard",
        ["--server", "tampering", "--server-shard", "0"],
    ),
    "shard_outages": ("--shard-outage", ["--shard-outage", "0", "5", "5"]),
    "replica_server_factories": (
        "--server-replica",
        ["--server", "tampering", "--replicas", "2", "--server-replica", "0"],
    ),
    "replicas": ("--replicas", ["--replicas", "2"]),
    "quorum": ("--quorum", ["--replicas", "2", "--quorum", "2"]),
    "counter": ("--counter", ["--counter", "durable"]),
    "endpoints": ("--endpoints", ["--endpoints", NOWHERE]),
    "server_name": ("--server-name", ["--server-name", "T"]),
    "trace_path": ("--trace-file", ["--trace-file", "unused.jsonl"]),
    "trace_ids": ("--trace-ids", ["--trace-ids"]),
}

CELLS = [(b, t) for t in ("sim", "tcp") for b in BACKEND_NAMES]


def honest_server(backend):
    if backend == "lockstep":
        return lambda n, name: LockStepServer(n, name=name)
    if backend == "unchecked":
        return lambda n, name: UncheckedServer(n, name=name)
    return lambda n, name: UstorServer(n, name=name)


def setting(knob, backend):
    """Config overrides that set ``knob`` (plus what it depends on)."""
    server = honest_server(backend)
    return {
        "scheme": {"scheme": "insecure"},
        "latency": {"latency": FixedLatency(2.0)},
        "offline_latency": {"offline_latency": FixedLatency(3.0)},
        "server_factory": {"server_factory": server},
        "commit_piggyback": {"commit_piggyback": True},
        "storage": {"storage": "log"},
        "server_outages": {"server_outages": ((5.0, 5.0),)},
        "batching": {"batching": True},
        "checkpoint": {"checkpoint": True},
        "membership": {"checkpoint": True, "membership": True},
        "shards": {"shards": 2},
        "shard_map": {"shard_map": "hash"},
        "shard_protocol": {"shard_protocol": "ustor"},
        "shard_server_factories": {"shard_server_factories": {0: server}},
        "shard_outages": {"shard_outages": ((0, 5.0, 5.0),)},
        "replica_server_factories": {
            "replicas": 2,
            "replica_server_factories": {0: server},
        },
        "replicas": {"replicas": 2},
        "quorum": {"replicas": 2, "quorum": 2},
        "counter": {"counter": "durable"},
        "endpoints": {"endpoints": (NOWHERE,)},
        "server_name": {"server_name": "T"},
        "trace_path": {"trace_path": "unused.jsonl"},
        "trace_ids": {"trace_ids": True},
    }[knob]


def config_kwargs(knob, backend, transport):
    kwargs = {"num_clients": 4, "seed": 3, **setting(knob, backend)}
    if transport == "tcp":
        kwargs["transport"] = "tcp"
        kwargs["endpoints"] = (NOWHERE,) * kwargs.get("replicas", 1)
    return kwargs


def names_knob(knob, transport):
    """Whether an unsupported cell's refusal names the knob itself — it
    says "simulator-only" instead where only the backend lacks tcp."""
    return not (transport == "tcp" and EXPECTED[knob] & TCP)


@pytest.fixture
def no_wiring(monkeypatch):
    """Fail the test if a refused config reaches any deployment builder."""

    def wired(*args, **kwargs):
        raise AssertionError("a refused config reached the wiring")

    monkeypatch.setattr(repro.workloads.runner.SystemBuilder, "__init__", wired)
    monkeypatch.setattr(repro.baselines.lockstep, "build_lockstep_system", wired)
    monkeypatch.setattr(repro.baselines.unchecked, "build_unchecked_system", wired)
    monkeypatch.setattr(repro.net.client, "open_tcp_system", wired)


def test_table_covers_every_config_field():
    names = {f.name for f in dataclasses.fields(SystemConfig)}
    assert len(names) == 29
    assert names == UNIVERSAL | set(EXPECTED)
    assert set(BACKENDS) == set(BACKEND_NAMES)


UNSUPPORTED = [
    (knob, backend, transport)
    for knob, cells in EXPECTED.items()
    for backend, transport in CELLS
    if (backend, transport) not in cells
]
SUPPORTED_SIM = [
    (knob, backend)
    for knob, cells in EXPECTED.items()
    for backend, transport in sorted(cells)
    if transport == "sim"
]


@pytest.mark.parametrize("knob, backend, transport", UNSUPPORTED)
def test_unsupported_cell_is_refused_before_wiring(
    knob, backend, transport, no_wiring
):
    with pytest.raises(ConfigurationError) as excinfo:
        open_system(SystemConfig(**config_kwargs(knob, backend, transport)), backend)
    message = str(excinfo.value)
    assert (f"{knob}=" if names_knob(knob, transport) else "simulator-only") in message
    assert "could not connect" not in message


@pytest.mark.parametrize("knob, backend", SUPPORTED_SIM)
def test_supported_sim_cell_opens(knob, backend):
    system = open_system(SystemConfig(**config_kwargs(knob, backend, "sim")), backend)
    assert system.backend_name == backend


CLI_UNSUPPORTED = [
    (knob, backend, transport)
    for knob, backend, transport in UNSUPPORTED
    if knob in CLI
]


@pytest.mark.parametrize("knob, backend, transport", CLI_UNSUPPORTED)
def test_cli_refuses_unsupported_flag(knob, backend, transport, capsys):
    flag, argv = CLI[knob]
    argv = ["run", "--backend", backend, "--clients", "4", *argv]
    if transport == "tcp":
        replicas = 2 if "--replicas" in argv else 1
        argv += ["--transport", "tcp"]
        if "--endpoints" not in argv:
            argv += ["--endpoints", ",".join([NOWHERE] * replicas)]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert (flag if names_knob(knob, transport) else "simulator-only") in out
    assert "could not connect" not in out


FULL = Capabilities(
    timestamps=True, stability=True, failure_detection=True, wait_free=True
)
NO_STABILITY = dataclasses.replace(FULL, stability=False)


@pytest.mark.parametrize(
    "backend, overrides, expected",
    [
        ("faust", {}, FULL),
        ("ustor", {}, NO_STABILITY),
        ("lockstep", {}, dataclasses.replace(NO_STABILITY, wait_free=False)),
        ("unchecked", {}, dataclasses.replace(NO_STABILITY, failure_detection=False)),
        ("cluster", {}, FULL),
        ("cluster", {"shard_protocol": "ustor"}, NO_STABILITY),
    ],
    ids=["faust", "ustor", "lockstep", "unchecked", "cluster", "cluster-ustor"],
)
def test_capabilities_pinned(backend, overrides, expected):
    if not overrides:
        assert get_backend(backend).capabilities == expected
    config = SystemConfig(num_clients=4, **overrides)
    assert open_system(config, backend).capabilities == expected


# --------------------------------------------------------------------- #
# Baseline knobs that used to be silently dropped
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["lockstep", "unchecked"])
def test_baselines_honour_offline_latency(backend):
    system = open_system(
        SystemConfig(num_clients=2, offline_latency=FixedLatency(0.5)), backend
    )
    a, b = (c.name for c in system.clients)
    system.offline.set_online(b, False)  # park the message in b's mailbox
    system.offline.send(a, b, b"probe")
    system.run(until=0.4)
    assert system.offline.mailbox_depth(b) == 0
    system.run(until=0.6)
    assert system.offline.mailbox_depth(b) == 1


@pytest.mark.parametrize(
    "backend, knobs",
    [
        ("lockstep", {"commit_piggyback": True}),
        ("unchecked", {"commit_piggyback": True}),
        ("unchecked", {"scheme": "insecure"}),
    ],
)
def test_baselines_refuse_knobs_they_cannot_honour(backend, knobs):
    (name,) = knobs
    with pytest.raises(ConfigurationError, match=f"{name}="):
        open_system(SystemConfig(num_clients=2, **knobs), backend)


def test_faust_params_are_ignored_off_faust():
    tuned = FaustParams(delta=5.0, enable_probes=False)
    for backend in ("ustor", "lockstep", "unchecked"):
        open_system(SystemConfig(num_clients=2, faust=tuned), backend)


# --------------------------------------------------------------------- #
# The rendered table in DESIGN.md
# --------------------------------------------------------------------- #


def render_markdown() -> str:
    """The knob matrix and the capability flags, as DESIGN.md shows them."""
    from repro.api import capabilities as table

    columns = [(b, "sim") for b in table.BACKEND_NAMES] + sorted(table.TCP)
    heads = [b if t == "sim" else f"{b} over tcp" for b, t in columns]
    lines = [
        "| knob | `repro run` flag | " + " | ".join(heads) + " |",
        "|---" * (len(columns) + 2) + "|",
    ]
    for name, knob in table.KNOBS.items():
        mark = "✓" if knob.needs is None else f"✓ (needs {knob.needs})"
        cells = [
            (mark if b == "cluster" else "✓") if (b, t) in knob.cells else "—"
            for b, t in columns
        ]
        flag = f"`{knob.flag}`" if knob.flag else "—"
        lines.append(f"| `{name}` | {flag} | " + " | ".join(cells) + " |")
    flags = [f.name for f in dataclasses.fields(Capabilities)]
    lines += ["", "| backend | " + " | ".join(f"`{f}`" for f in flags) + " |"]
    lines.append("|---" * (len(flags) + 1) + "|")
    for backend in table.BACKEND_NAMES:
        caps = table.capabilities_of(backend)
        marks = ["✓" if getattr(caps, f) else "—" for f in flags]
        lines.append(f"| {backend} | " + " | ".join(marks) + " |")
    return "\n".join(lines)


def test_design_doc_shows_the_table():
    from pathlib import Path

    design = Path(__file__).resolve().parent.parent / "DESIGN.md"
    assert render_markdown() in design.read_text(encoding="utf-8")
