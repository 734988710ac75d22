"""The wrapper installer and the workloads it measures.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import json  # noqa: E402
import types  # noqa: E402

from benchlib.layers import PER_LAYER, TARGETS  # noqa: E402
from benchlib.tracer import Target, Tracer, _resolve  # noqa: E402
from benchlib.workloads import (  # noqa: E402
    FaustReadMostly,
    WORKLOADS,
    UstorBatchedWrites,
    UstorTcpLoopback,
    measure,
)


def _program_bindings():
    """Every function or class bound in a ``repro.*`` module, by identity."""
    return {
        (name, key): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
        for key, value in vars(module).items()
        if isinstance(value, (types.FunctionType, type))
    }


def test_every_target_resolves():
    for target in TARGETS:
        owner, attr, original = _resolve(target)
        assert callable(original), target


def test_uninstall_restores_every_original_object():
    import repro.api  # noqa: F401  (load the modules that import by name)
    import repro.net.client  # noqa: F401
    import repro.ustor.client
    from repro.common import encoding
    from repro.crypto.keystore import PublicVerifier
    from repro.ustor import digests

    encode, extend = encoding.encode, digests.extend_digest
    verify = PublicVerifier.__dict__["verify"]
    before = _program_bindings()
    tracer = Tracer(TARGETS).install()
    try:
        # By-name imports are rebound, not just the defining module.
        assert repro.ustor.client.extend_digest is not extend
        assert repro.ustor.client.extend_digest is digests.extend_digest
        import repro.crypto.keystore as keystore

        assert keystore.encode is encoding.encode is not encode
        assert PublicVerifier.__dict__["verify"] is not verify
    finally:
        tracer.uninstall()
    assert encoding.encode is encode
    assert digests.extend_digest is extend
    assert repro.ustor.client.extend_digest is extend
    assert PublicVerifier.__dict__["verify"] is verify
    after = _program_bindings()
    assert {key: after[key] for key in before} == before


def test_module_imported_while_installed_is_restored():
    import repro.common.encoding as encoding

    original = encoding.encode
    tracer = Tracer(TARGETS).install()
    try:
        # Simulate a lazy ``from repro.common.encoding import encode``.
        module = type(sys)("repro._perfbench_lazy_probe")
        module.encode = encoding.encode
        sys.modules[module.__name__] = module
    finally:
        tracer.uninstall()
    try:
        assert module.encode is original
    finally:
        del sys.modules[module.__name__]


def test_wrappers_record_spans_counters_and_layer_scoped_counts():
    from repro.crypto.keystore import KeyStore
    from repro.ustor.version import Version

    tracer = Tracer(
        [
            Target("crypto", "repro.crypto.keystore", "ClientSigner.sign"),
            Target(
                "encoding",
                "repro.common.encoding",
                "encode",
                measure=lambda counters, args, result: counters.__setitem__(
                    "bytes", counters["bytes"] + len(result)
                ),
            ),
            Target(
                "crypto",
                "repro.ustor.version",
                "Version.le",
                counter="compares",
                count_under="crypto",
            ),
        ]
    )
    signer = KeyStore(2).signer(0)
    zero = Version.zero(2)
    with tracer:
        signer.sign("DATA", 1, b"x")
        zero.le(zero)  # outside any crypto span: not counted
    rec = tracer.recorder
    times = rec.self_times()
    assert times["crypto:ClientSigner.sign"][0] == 1
    assert times["encoding:encode"][0] >= 1
    assert rec.children_of("crypto:ClientSigner.sign")["encoding:encode"] >= 1
    assert rec.counters["bytes"] > 0
    assert rec.counters["compares"] == 0
    assert rec.stack == [-1]


def test_schedules_are_deterministic_per_seed():
    for cls in (UstorBatchedWrites, UstorTcpLoopback):
        one = cls(5, 0.1).inputs()
        assert one == cls(5, 0.1).inputs()
        assert one != cls(6, 0.1).inputs()
        writes = [op for script in one for op in script if op[0]]
        assert writes and all(len(op[2]) == cls.value_size for op in writes)


def test_tcp_run_checks_its_outputs_and_stops_the_server():
    outcome, _ = measure(UstorTcpLoopback.name, 5, 0.2, traced=False)
    assert outcome.checks["server exited cleanly"]
    assert outcome.correct and outcome.failed == 0
    assert outcome.completed == outcome.attempted == len(outcome.lat_ms)
    # Bytes the server wrote, counted inside the server process.
    assert outcome.server["counters"]["store.bytes"] > outcome.user_bytes > 0


def test_sim_runs_repeat_exactly_for_a_seed():
    first, _ = measure(UstorBatchedWrites.name, 3, 0.1, traced=False)
    second, _ = measure(UstorBatchedWrites.name, 3, 0.1, traced=False)
    assert first.correct and second.correct
    assert first.signature == second.signature
    assert first.lat_vt.values == second.lat_vt.values
    assert first.counts == second.counts


def test_traced_sim_run_replays_the_untraced_run():
    # Long enough for the readmostly run to install a checkpoint.
    for cls in (FaustReadMostly, UstorBatchedWrites):
        plain, plain_tracer = measure(cls.name, 7, 0.5, traced=False)
        traced, tracer = measure(cls.name, 7, 0.5, traced=True)
        assert plain.correct and traced.correct, cls.name
        # Same history and client version digests: wrapping changes timing only.
        assert traced.signature == plain.signature, cls.name
        assert traced.lat_vt.values == plain.lat_vt.values, cls.name
        assert traced.stable_lag_vt.values == plain.stable_lag_vt.values, cls.name
        assert traced.counts == plain.counts, cls.name
        assert (
            tracer.recorder.counters["store.bytes"]
            == plain_tracer.recorder.counters["store.bytes"]
        )
        assert len(tracer.recorder) > traced.completed


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
