"""Submissions the protocol refuses, and client ids that do not exist.

A client that refuses an operation (a register out of range, a value
that is not ``bytes``) raises at submission time; the session must come
out of that exactly as it went in — nothing outstanding, no slot held
for an operation that was never sent — so the next operation runs.  A
session can only be bound to a client the deployment has.
"""

from __future__ import annotations

import pytest

from repro.api import BatchingPolicy, OperationFailed, SystemConfig, open_system
from repro.baselines.unchecked import build_unchecked_system
from repro.common.errors import ConfigurationError, ProtocolError, ReproError

BACKENDS = ("faust", "ustor", "lockstep", "unchecked", "cluster")


def open_three(backend: str, **knobs):
    extra = {"shards": 3} if backend == "cluster" else {}
    return open_system(
        SystemConfig(num_clients=3, seed=4, **extra, **knobs), backend=backend
    )


def submit_bad(session, bad: str):
    if bad == "read-past-end":
        return session.read(3)
    if bad == "read-negative":
        return session.read(-1)
    return session.write("not bytes")


@pytest.mark.parametrize("bad", ["read-past-end", "read-negative", "write-non-bytes"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_submission_leaves_the_session_usable(backend, bad):
    system = open_three(backend)
    session = system.session(0)
    with pytest.raises(ReproError):
        submit_bad(session, bad)
    assert session.outstanding == 0
    session.barrier(50)
    assert session.write_sync(b"after", timeout=50) == 1
    value, _t = session.read_sync(0, timeout=50)
    assert value == b"after"


def test_refused_submission_is_not_counted_as_issued():
    from repro.obs.registry import Registry, use_registry

    with use_registry(Registry()) as registry:
        session = open_three("ustor").session(0)
        with pytest.raises(ProtocolError):
            session.read(3)
        session.write_sync(b"counted", timeout=50)
        assert registry.get("session.ops_issued").value == 1
        assert registry.get("session.ops_settled").value == 1


@pytest.mark.parametrize("backend", ["ustor", "cluster"])
def test_rejected_batched_submission_fails_its_handle_only(backend):
    system = open_three(backend, batching=BatchingPolicy(max_batch=1))
    session = system.session(0)
    try:
        handle = session.read(3)
    except ConfigurationError:
        # The cluster refuses an unroutable register before buffering.
        handle = None
    if handle is not None:
        with pytest.raises(OperationFailed, match="out of range"):
            handle.result(1)
    assert session.outstanding == 0
    assert session.write_sync(b"after", timeout=50) == 1


@pytest.mark.parametrize("client_id", [-1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_sessions_bind_only_existing_clients(backend, client_id):
    system = open_three(backend)
    with pytest.raises(ConfigurationError):
        system.session(client_id).write_sync(b"x", timeout=50)


@pytest.mark.parametrize("register", [-1, 3])
def test_unchecked_client_range_checks_reads(register):
    system = build_unchecked_system(3)
    with pytest.raises(ProtocolError, match="out of range"):
        system.clients[0].read(register, lambda outcome: None)
    system.run(until=50)
    assert not system.clients[0].busy
