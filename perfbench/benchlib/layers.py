"""The layers the traced run measures, and the per-layer metrics.

Each layer is a set of public functions and methods of one part of the
program (:data:`TARGETS`).  Span names are ``"<layer>:<qualname>"``, so a
layer's self time is the summed self time of its spans.  Counts come
from span counts, from the counters the wrappers fill, and from public
counters the workload reads off the system after the run.
"""

from __future__ import annotations

from benchlib.tracer import Target

# -- counter hooks ------------------------------------------------------- #


def _flush_pre(counters, args) -> None:
    buffered = args[0].buffered
    if buffered:
        counters["api.flushes"] += 1
        counters["api.ops_flushed"] += buffered


def _bytes_of_result(name: str):
    def measure(counters, args, result) -> None:
        counters[name] += len(result)

    return measure


def _bytes_of_arg(name: str, index: int, calls: str):
    def measure(counters, args, result) -> None:
        counters[name] += len(args[index])
        counters[calls] += 1

    return measure


def _fan_out(counters, args) -> None:
    counters["sim.multi_destinations"] += len(args[2])


def _one_record(counters, args) -> None:
    counters["server.records"] += 1


def _many_records(counters, args) -> None:
    counters["server.records"] += len(args[1])


def _targets(layer: str, module: str, *qualnames: str, **hooks) -> list[Target]:
    return [Target(layer, module, q, **hooks) for q in qualnames]


def _medium_targets(cls: str) -> list[Target]:
    module = "repro.store.media"
    return [
        Target(
            "store",
            module,
            f"{cls}.append",
            measure=_bytes_of_arg("store.bytes", 2, "store.wal_appends"),
        ),
        Target(
            "store",
            module,
            f"{cls}.write_atomic",
            measure=_bytes_of_arg("store.bytes", 2, "store.snapshots"),
        ),
    ]


#: What the untraced run counts: bytes reaching the storage medium.
STORAGE_TARGETS: list[Target] = _medium_targets("InMemoryMedium") + _medium_targets(
    "DirectoryMedium"
)

_SCHEMES = ("HmacScheme", "Ed25519Scheme", "InsecureScheme")
_CHECKERS = ("IncrementalLinearizabilityChecker", "IncrementalCausalChecker")

#: Every wrapped boundary, grouped by layer.
TARGETS: list[Target] = [
    # api: the application-facing session surface.
    *_targets("api", "repro.api.session", "Session.write", "Session.read"),
    Target("api", "repro.api.session", "Session.flush", pre=_flush_pre),
    # ustor.client: Algorithm 1 (updateVersion/checkData run in on_message).
    *_targets(
        "ustor_client",
        "repro.ustor.client",
        "UstorClient.write",
        "UstorClient.read",
        "UstorClient.on_message",
    ),
    Target(
        "ustor_client",
        "repro.ustor.version",
        "Version.le",
        counter="ustor_client.version_compares",
        count_under="ustor_client",
    ),
    # crypto: signatures, their verification cache and the value hash.
    *_targets(
        "crypto",
        "repro.crypto.keystore",
        "PublicVerifier.verify",
        "ClientSigner.sign",
    ),
    *[
        t
        for scheme in _SCHEMES
        for t in _targets(
            "crypto", "repro.crypto.signatures", f"{scheme}.sign", f"{scheme}.verify"
        )
    ],
    *_targets("crypto", "repro.crypto.hashing", "hash_register_value"),
    # common.encoding: the canonical TLV codec.
    Target(
        "encoding",
        "repro.common.encoding",
        "encode",
        measure=_bytes_of_result("encoding.bytes"),
    ),
    *_targets("encoding", "repro.common.encoding", "decode"),
    # ustor.digests: the digest chain.
    *_targets("digests", "repro.ustor.digests", "extend_digest"),
    # faust: the fail-aware layer, stability tracking and checkpoints.
    *_targets(
        "faust",
        "repro.faust.client",
        "FaustClient.write",
        "FaustClient.read",
        "FaustClient.on_message",
    ),
    *_targets(
        "faust",
        "repro.faust.stability",
        "StabilityTracker.absorb",
        "StabilityTracker.stable_vector",
        "StabilityTracker.stability_cut",
        "StabilityTracker.stable_timestamp_for_all",
        "StabilityTracker.stale_peers",
    ),
    *_targets(
        "faust",
        "repro.faust.checkpoint",
        "CheckpointManager.on_stability",
        "CheckpointManager.on_share",
        "CheckpointManager.adopt",
    ),
    # consistency.incremental: the streaming audits.
    *[
        t
        for checker in _CHECKERS
        for t in _targets(
            "audit",
            "repro.consistency.incremental",
            f"{checker}.on_invoke",
            f"{checker}.on_response",
            f"{checker}.on_compact",
        )
    ],
    # history.recorder
    *_targets(
        "recorder",
        "repro.history.recorder",
        "HistoryRecorder.begin",
        "HistoryRecorder.end",
        "HistoryRecorder.compact",
    ),
    # sim: scheduler, network, offline channel.
    *_targets("sim", "repro.sim.scheduler", "Scheduler.run", "Scheduler.run_until"),
    *_targets("sim", "repro.sim.network", "Network.send", "message_size"),
    Target("sim", "repro.sim.network", "Network.send_multi", pre=_fan_out),
    *_targets("sim", "repro.sim.offline", "OfflineChannel.send"),
    # ustor.server: Algorithm 2 and group commit.
    *_targets(
        "server",
        "repro.ustor.server",
        "UstorServer.on_message",
        "UstorServer.handle_submit",
        "UstorServer.handle_commit",
        "UstorServer.handle_checkpoint",
        "apply_submit",
        "apply_commit",
    ),
    # store: the WAL engine, its codec and the medium.
    *_targets(
        "store",
        "repro.store.engine",
        "LogStructuredEngine.log_submit",
        "LogStructuredEngine.log_commit",
        "LogStructuredEngine.log_checkpoint",
        pre=_one_record,
    ),
    Target(
        "store", "repro.store.engine", "LogStructuredEngine.log_records", pre=_many_records
    ),
    *_targets(
        "store",
        "repro.store.engine",
        "LogStructuredEngine.checkpoint",
        "LogStructuredEngine.maybe_checkpoint",
    ),
    *_targets(
        "store",
        "repro.store.codec",
        "encode_wal_submit",
        "encode_wal_commit",
        "encode_wal_checkpoint",
        "encode_wal_batch",
        "encode_snapshot",
    ),
    *STORAGE_TARGETS,
    # net: wire codec, framing, the client connection.
    *_targets(
        "net",
        "repro.net.wire",
        "message_to_payload",
        "payload_to_message",
        "decode_payload",
    ),
    Target(
        "net",
        "repro.net.framing",
        "encode_frame",
        measure=_bytes_of_result("net.wire_bytes"),
    ),
    *_targets("net", "repro.net.framing", "FrameDecoder.feed"),
    *_targets("net", "repro.net.client", "ClientConnection.send_message"),
]

LAYERS = (
    "api",
    "ustor_client",
    "crypto",
    "encoding",
    "digests",
    "faust",
    "audit",
    "recorder",
    "sim",
    "server",
    "store",
    "net",
)

#: Span of the verification entry point, and of the scheme call a cache
#: miss makes inside it.
VERIFY = "crypto:PublicVerifier.verify"
ENCODE = "encoding:encode"
SCHEME_VERIFIES = tuple(f"crypto:{s}.verify" for s in _SCHEMES)

#: Per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER: dict[str, str] = {
    "api.self_us_per_op": "us",
    "api.ops_per_flush": "ops",
    "ustor_client.self_us_per_op": "us",
    "ustor_client.version_compares_per_op": "count",
    "ustor_client.replies_per_op": "count",
    "crypto.self_us_per_op": "us",
    "crypto.verify_calls_per_op": "count",
    "crypto.scheme_verifies_per_op": "count",
    "crypto.verify_cache_hit_ratio": "ratio",
    "crypto.signs_per_op": "count",
    "encoding.self_us_per_op": "us",
    "encoding.encode_calls_per_op": "count",
    "encoding.encodes_in_verify_per_op": "count",
    "encoding.bytes_encoded_per_op": "B",
    "digests.self_us_per_op": "us",
    "digests.extend_calls_per_op": "count",
    "faust.self_us_per_op": "us",
    "faust.dummy_reads_per_op": "count",
    "faust.offline_msgs_per_op": "count",
    "faust.checkpoints_installed": "count",
    "faust.stable_lag_p50_vt": "vt",
    "faust.stable_lag_p99_vt": "vt",
    "faust.resident_growth": "ratio",
    "audit.self_us_per_op": "us",
    "audit.calls_per_op": "count",
    "recorder.self_us_per_op": "us",
    "sim.self_us_per_op": "us",
    "sim.events_per_op": "count",
    "sim.messages_per_op": "count",
    "sim.messages_per_delivery": "count",
    "sim.op_p50_vt": "vt",
    "sim.op_p99_vt": "vt",
    "server.self_us_per_op": "us",
    "server.records_per_drain": "count",
    "store.self_us_per_op": "us",
    "store.wal_appends_per_op": "count",
    "store.bytes_written_per_op": "B",
    "store.snapshots_per_kop": "count",
    "net.self_us_per_op": "us",
    "net.frames_per_op": "count",
    "net.wire_bytes_per_op": "B",
    "net.client_cpu_us_per_op": "us",
    "net.server_cpu_us_per_op": "us",
    "net.client_idle_us_per_op": "us",
    "net.reconnects": "count",
    "trace.overhead": "ratio",
}


def _per(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def layer_metrics(recorder, outcome) -> dict[str, float]:
    """Every span- and counter-derived per-layer metric of a traced run.

    Spans and counters come from ``recorder`` plus, on tcp, the server
    process's report (``outcome.server``); ``outcome.counts`` carries
    what the workload read off the system (scheduler events, coalesced
    messages, dummy reads, cpu times, ...).  Metrics of layers a
    workload never enters read 0.
    """
    times = recorder.self_times()
    counters = dict(recorder.counters)
    for span, (count, total, own) in outcome.server.get("times", {}).items():
        mine = times.get(span, (0, 0, 0))
        times[span] = (mine[0] + count, mine[1] + total, mine[2] + own)
    for counter, value in outcome.server.get("counters", {}).items():
        counters[counter] = counters.get(counter, 0) + value
    # Client side only: the server's verifier has no cache to hit.
    in_verify = recorder.children_of(VERIFY)
    scheme_in_verify = sum(in_verify.get(s, 0) for s in SCHEME_VERIFIES)
    system_counts = outcome.counts
    ops = outcome.completed

    def calls(*names: str) -> int:
        return sum(times.get(name, (0, 0, 0))[0] for name in names)

    def layer_self_us(layer: str) -> float:
        prefix = layer + ":"
        ns = sum(v[2] for k, v in times.items() if k.startswith(prefix))
        return _per(ns / 1000.0, ops)

    verifies = calls(VERIFY)
    messages = calls("sim:Network.send") + counters.get("sim.multi_destinations", 0)
    deliveries = messages - system_counts.get("sim.coalesced", 0)
    flushes = counters.get("api.flushes", 0)
    drains = counters.get("store.wal_appends", 0)
    out = {f"{layer}.self_us_per_op": layer_self_us(layer) for layer in LAYERS}
    out.update(
        {
            "api.ops_per_flush": _per(counters.get("api.ops_flushed", 0), flushes),
            "ustor_client.version_compares_per_op": _per(
                counters.get("ustor_client.version_compares", 0), ops
            ),
            "ustor_client.replies_per_op": _per(
                calls("ustor_client:UstorClient.on_message"), ops
            ),
            "crypto.verify_calls_per_op": _per(verifies, ops),
            "crypto.scheme_verifies_per_op": _per(calls(*SCHEME_VERIFIES), ops),
            "crypto.verify_cache_hit_ratio": (
                1.0 - scheme_in_verify / verifies if verifies else 0.0
            ),
            "crypto.signs_per_op": _per(calls("crypto:ClientSigner.sign"), ops),
            "encoding.encode_calls_per_op": _per(calls(ENCODE), ops),
            "encoding.encodes_in_verify_per_op": _per(in_verify.get(ENCODE, 0), ops),
            "encoding.bytes_encoded_per_op": _per(
                counters.get("encoding.bytes", 0), ops
            ),
            "digests.extend_calls_per_op": _per(
                calls("digests:extend_digest"), ops
            ),
            "faust.dummy_reads_per_op": _per(
                system_counts.get("faust.dummy_reads", 0), ops
            ),
            "faust.offline_msgs_per_op": _per(calls("sim:OfflineChannel.send"), ops),
            "faust.checkpoints_installed": system_counts.get(
                "faust.checkpoints_installed", 0
            ),
            "audit.calls_per_op": _per(
                sum(v[0] for k, v in times.items() if k.startswith("audit:")), ops
            ),
            "sim.events_per_op": _per(system_counts.get("sim.events", 0), ops),
            "sim.messages_per_op": _per(messages, ops),
            "sim.messages_per_delivery": _per(messages, deliveries),
            "server.records_per_drain": _per(counters.get("server.records", 0), drains),
            "store.wal_appends_per_op": _per(drains, ops),
            "store.bytes_written_per_op": _per(counters.get("store.bytes", 0), ops),
            "store.snapshots_per_kop": _per(
                1000.0 * counters.get("store.snapshots", 0), ops
            ),
            "net.frames_per_op": _per(system_counts.get("net.frames", 0), ops),
            "net.wire_bytes_per_op": _per(counters.get("net.wire_bytes", 0), ops),
            "net.client_cpu_us_per_op": _per(
                system_counts.get("net.client_cpu_us", 0), ops
            ),
            "net.server_cpu_us_per_op": _per(
                system_counts.get("net.server_cpu_us", 0), ops
            ),
            "net.client_idle_us_per_op": _per(
                system_counts.get("net.client_idle_us", 0), ops
            ),
            "net.reconnects": system_counts.get("net.reconnects", 0),
        }
    )
    return out
