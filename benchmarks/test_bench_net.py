"""Loopback throughput/latency of the real TCP transport.

Wall-clock numbers over real sockets measure the machine (kernel, loop
implementation, scheduler jitter) at least as much as our code, so every
ratio recorded here is ``gate=False``: stamped into ``BENCH_*.json`` for
the performance trajectory, never failed on.  The interesting trend is
the per-operation cost of the TCP path relative to the in-process
simulator — i.e. what a real deployment pays for real sockets.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.net.client import NetRuntime, open_tcp_system
from repro.net.server import NetServerHost
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.runner import SystemBuilder

pytestmark = pytest.mark.net

OPS_PER_CLIENT = 40
NUM_CLIENTS = 3


def _open_loopback(num_clients: int):
    runtime = NetRuntime()
    host = NetServerHost(num_clients)
    runtime.run_coroutine(host.start())
    system = open_tcp_system(
        num_clients, (host.endpoint,), runtime=runtime, default_timeout=30.0
    )
    system.hosts.append(host)
    system.owns_runtime = True
    return system


def _drive(system, num_clients: int, seed: int) -> float:
    """Run the standard workload; returns wall seconds for the op phase."""
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(
            ops_per_client=OPS_PER_CLIENT,
            read_fraction=0.5,
            mean_think_time=0.0,
        ),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    started = time.perf_counter()
    assert driver.run_to_completion(timeout=120.0)
    return time.perf_counter() - started


def test_loopback_workload_throughput_vs_sim(record_hot_path, bench_seed):
    total_ops = NUM_CLIENTS * OPS_PER_CLIENT

    sim_system = SystemBuilder(num_clients=NUM_CLIENTS, seed=bench_seed).build()
    sim_seconds = _drive(sim_system, NUM_CLIENTS, bench_seed)
    assert len(sim_system.history()) == total_ops

    tcp_system = _open_loopback(NUM_CLIENTS)
    with tcp_system:
        tcp_seconds = _drive(tcp_system, NUM_CLIENTS, bench_seed)
        assert len(tcp_system.history()) == total_ops
        assert not any(c.failed for c in tcp_system.clients)

    record_hot_path(
        "net_tcp_loopback_vs_sim_workload",
        reference_seconds=tcp_seconds,
        optimized_seconds=sim_seconds,
        gate=False,  # wall-clock sockets: a machine property, not ours
        total_ops=total_ops,
        tcp_ops_per_second=total_ops / tcp_seconds,
        sim_ops_per_second=total_ops / sim_seconds,
    )


def test_loopback_write_latency(record_hot_path):
    # Single-client, serial writes: each one is a full SUBMIT/REPLY (+
    # COMMIT) round trip over the socket, so seconds/op is the loopback
    # end-to-end latency floor.
    rounds = 50
    system = _open_loopback(1)
    with system:
        session = system.session(0)
        session.write_sync(b"warmup")
        started = time.perf_counter()
        for i in range(rounds):
            session.write_sync(b"x" * 64)
        elapsed = time.perf_counter() - started

    record_hot_path(
        "net_tcp_loopback_write_latency",
        reference_seconds=elapsed,
        optimized_seconds=elapsed,  # not a ratio: the raw latency is the datum
        gate=False,
        rounds=rounds,
        seconds_per_op=elapsed / rounds,
        ops_per_second=rounds / elapsed,
    )
