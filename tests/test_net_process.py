"""Multi-process deployments: ``repro serve`` children under a supervisor.

These spawn real OS processes (``python -m repro serve``), so they carry
the ``slow`` marker and run in the extended CI job; the single-process
loopback equivalents in ``test_net_loopback.py`` stay in tier-1.

The headline test is the issue's acceptance scenario end-to-end: a full
audited workload against a separately-running server process, recorded
to a wire trace, replayed on the simulator to the identical history and
checker verdicts — driven once through the library and once through the
CLI (``repro run --transport tcp`` / ``repro replay``).
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency.weak_fork import validate_weak_fork_linearizability
from repro.net.client import open_tcp_system
from repro.net.supervisor import ClusterSupervisor, ServerProcess
from repro.net.trace import history_signature, replay_trace
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = [pytest.mark.net, pytest.mark.slow]


class TestServerProcess:
    def test_audited_workload_records_and_replays(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        with ServerProcess(3) as proc:
            system = open_tcp_system(
                3, (proc.endpoint,), trace_path=str(trace_path),
                default_timeout=10.0,
            )
            with system:
                scripts = generate_scripts(
                    3,
                    WorkloadConfig(
                        ops_per_client=5,
                        read_fraction=0.5,
                        mean_think_time=0.005,
                    ),
                    random.Random(13),
                )
                driver = Driver(system)
                driver.attach_all(scripts)
                assert driver.run_to_completion(timeout=30.0)
                system.run_until_quiescent(timeout=5.0)
                history = system.history()
                assert len(history) == 15
                assert not any(c.failed for c in system.clients)
                assert check_linearizability(history).ok
                assert check_causal_consistency(history).ok
                views = build_client_views(
                    history, system.recorder, system.clients
                )
                assert validate_weak_fork_linearizability(history, views).ok

        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        assert check_linearizability(result.history).ok
        assert not result.fail_reasons()

    def test_sigkill_and_restart_over_durable_storage(self, tmp_path):
        # The hard crash: no atexit, no flush, mid-deployment.  A new
        # process over the same dir: recovers from the WAL and the
        # clients ride it out with reconnect + retransmission.
        storage = f"dir:{tmp_path / 'srv'}"
        proc = ServerProcess(2, storage=storage)
        endpoint = proc.start()
        host, port = endpoint.split(":")
        try:
            system = open_tcp_system(2, (endpoint,), default_timeout=15.0)
            with system:
                session = system.session(0)
                assert session.write_sync(b"survives") == 1
                os.kill(proc.process.pid, signal.SIGKILL)
                proc.process.wait(timeout=10)
                handle = session.write(b"after-kill")

                proc = ServerProcess(
                    2, host=host, port=int(port), storage=storage
                )
                proc.start()
                assert handle.result(15.0).timestamp == 2
                value, _t = session.read_sync(0)
                assert value == b"after-kill"
                assert not system.clients[0].failed
                assert sum(c.reconnects for c in system.connections) >= 1
        finally:
            proc.stop()

    def test_byzantine_child_process(self):
        with ServerProcess(2, server="tampering") as proc:
            system = open_tcp_system(2, (proc.endpoint,), default_timeout=5.0)
            with system:
                system.session(0).write_sync(b"genuine")
                reader = system.session(1, timeout=2.0)
                with pytest.raises(Exception):
                    reader.read_sync(0)
                system.run_until_quiescent(timeout=2.0)
                assert system.clients[1].failed
                assert "line 50" in system.clients[1].fail_reason

    def test_unstartable_child_reports_its_output(self):
        bad = ServerProcess(2, extra_args=("--server", "no-such-behaviour"))
        with pytest.raises(ConfigurationError, match="no-such-behaviour"):
            bad.start(timeout=15)


class TestClusterSupervisor:
    def test_each_shard_is_its_own_process_and_server(self, tmp_path):
        storage = str(tmp_path / "shard-{shard}")
        with ClusterSupervisor(
            2, 2, storage=f"dir:{storage}"
        ) as supervisor:
            assert len(supervisor.endpoints) == 2
            pids = {p.process.pid for p in supervisor.processes}
            assert len(pids) == 2
            for shard, endpoint in enumerate(supervisor.endpoints):
                system = open_tcp_system(
                    2,
                    (endpoint,),
                    server_name=f"S{shard}",
                    default_timeout=10.0,
                )
                with system:
                    session = system.session(0)
                    assert session.write_sync(f"shard-{shard}".encode()) == 1
                assert os.path.isdir(storage.format(shard=shard))


class TestCliOverTcp:
    def test_run_record_check_then_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "cli.jsonl"
        with ServerProcess(2) as proc:
            code = main(
                [
                    "run",
                    "--transport", "tcp",
                    "--endpoints", proc.endpoint,
                    "--clients", "2",
                    "--ops", "4",
                    "--seed", "3",
                    "--check",
                    "--trace-file", str(trace_path),
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 8/8" in out
        assert "linearizability: OK" in out
        assert "weak-fork-linearizability: OK" in out

        code = main(["replay", "--trace", str(trace_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay equivalent to recording: yes" in out
        assert "linearizability: OK" in out

    def test_serve_cluster_children_survive_babysitting(self, tmp_path):
        # serve-cluster itself is interactive (runs until SIGINT); here we
        # just exercise its supervisor teardown path: a child that dies is
        # noticed and the command exits non-zero.
        supervisor = ClusterSupervisor(2, 2)
        supervisor.start()
        try:
            assert all(
                p.process.poll() is None for p in supervisor.processes
            )
        finally:
            supervisor.stop()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if all(p.process.poll() is not None for p in supervisor.processes):
                break
            time.sleep(0.05)
        assert all(p.process.poll() is not None for p in supervisor.processes)
