"""Percentile and self-time arithmetic of the benchmark, on hand-built data.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pytest  # noqa: E402

from benchlib.stats import (  # noqa: E402
    Samples,
    TooFewSamples,
    highest_supported,
    nearest_rank,
    supported,
)
from benchlib import host  # noqa: E402
from benchlib.tracer import SpanRecorder, self_times  # noqa: E402


def test_nearest_rank_picks_the_ceiling_rank():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank(values, 0.5) == 1
    # ceil(0.5 * 5) = 3: the third of five samples, not an interpolation.
    assert nearest_rank([10, 20, 30, 40, 50], 50) == 30
    # ceil(0.9 * 11) = 10
    assert nearest_rank(list(range(11)), 90) == 9


def test_nearest_rank_is_exact_at_float_boundaries():
    # 0.99 * 1000 is 989.999... in binary floating point; the rank is 990.
    values = list(range(1, 1001))
    assert nearest_rank(values, 99) == 990
    assert nearest_rank(values, 99.9) == 999


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_percentile_needs_ten_samples_beyond_it():
    assert supported(1000, 99)  # rank 990, 10 beyond
    assert not supported(999, 99)  # rank 990, 9 beyond
    assert highest_supported(1000) == 99
    assert highest_supported(10_000) == 99.9
    assert highest_supported(15) is None
    assert highest_supported(20) == 50
    small = Samples(range(500))
    assert small.percentile(50) == 249
    with pytest.raises(TooFewSamples):
        small.percentile(99)
    assert "p90=" in small.summary() and "n=500" in small.summary()


def test_samples_sort_before_ranking():
    samples = Samples([5.0, 1.0, 3.0, 2.0, 4.0] * 10)
    assert samples.percentile(50) == 3.0


def test_block_log_cuts_blocks_and_charges_steal(monkeypatch):
    stolen = iter([100, 100, 103, 103])
    monkeypatch.setattr(host, "steal_ticks", lambda: next(stolen))
    log = host.BlockLog()
    log.begin(0.0)
    for now in (0.01, 0.02, 0.06):  # the third closes a block
        log.settled(now)
    for now in (0.07, 0.08, 0.2):
        log.settled(now)
    log.end(0.2)  # nothing left open: no empty block
    assert log.blocks == [(0, 3, 0.06, 0), (3, 3, pytest.approx(0.14), 3)]


def test_quiet_keeps_steal_free_blocks_and_tops_up_to_min_samples(monkeypatch):
    log = host.BlockLog()
    # (first sample, samples, wall seconds, steal ticks)
    log.blocks = [(0, 2, 1.0, 2), (2, 2, 4.0, 0), (4, 2, 2.0, 1), (6, 2, 1.0, 0)]
    latencies = Samples([10, 11, 20, 21, 30, 31, 40, 41])
    monkeypatch.setattr(host, "MIN_SAMPLES", 3)
    rate, p50, kept, blocks = log.quiet(latencies)
    assert blocks == 2 and rate == 4 / 5.0
    assert sorted(kept.values) == [20, 21, 40, 41]
    # Block medians 20 and 40, two samples each; the pooled median is 21.
    assert p50 == 30.0
    # Too few steal-free samples: the least stolen blocks are added.
    monkeypatch.setattr(host, "MIN_SAMPLES", 5)
    rate, p50, kept, blocks = log.quiet(latencies)
    assert blocks == 3 and rate == 6 / 7.0
    assert sorted(kept.values) == [20, 21, 30, 31, 40, 41]
    assert p50 == 30.0


def test_quiet_scales_each_block_by_its_slowdown(monkeypatch):
    log = host.BlockLog()
    log.blocks = [(0, 2, 1.0, 0), (2, 2, 2.0, 0)]
    latencies = Samples([10, 10, 20, 20])
    monkeypatch.setattr(host, "MIN_SAMPLES", 3)
    # The second block ran at half the reference speed: at that speed it
    # would have taken 1 s, with latencies of 10.
    rate, p50, kept, blocks = log.quiet(latencies, [1.0, 2.0])
    assert blocks == 2 and rate == 4 / 2.0
    assert kept.values == [10, 10, 10, 10]
    assert p50 == 10.0


def test_gauge_slowdown_is_the_harmonic_mean_of_the_bracketing_samples():
    gauge = host.HostGauge(active=False)
    ref = host.REFERENCE_S
    gauge.samples = [ref, 2 * ref, ref, ref]
    gauge.stamps = [0.0, 1.0, 2.0, 3.0]
    # Speeds 1, 0.5, 1 and 1 of the reference speed: mean 3.5 / 4.
    assert gauge.slowdown_over(0.0, 3.0) == pytest.approx(4 / 3.5)
    # A stretch between two samples: those two.
    assert gauge.slowdown_over(1.2, 1.8) == pytest.approx(2 / 1.5)
    assert gauge.slowdown_over(1.0, 2.0) == pytest.approx(2 / 1.5)
    # Across a sample: both neighbours and the sample itself.
    assert gauge.slowdown_over(0.5, 1.5) == pytest.approx(3 / 2.5)
    # Before the first sample and after the last: the nearest one.
    assert gauge.slowdown_over(-0.5, -0.1) == pytest.approx(1.0)
    assert gauge.slowdown_over(3.5, 4.0) == pytest.approx(1.0)


def test_gauge_clock_stands_still_while_it_samples(monkeypatch):
    monkeypatch.setattr(host, "reference_work", lambda: time.sleep(0.05))
    gauge = host.HostGauge()
    before = gauge.now()
    assert gauge.poll() is False  # due at once: samples
    assert len(gauge.samples) == 1 and gauge.samples[0] >= 0.05
    assert gauge.now() - before < 0.04
    assert gauge.stamps == [pytest.approx(before, abs=0.04)]
    gauge.poll()  # not due again for GAUGE_EVERY_S
    assert len(gauge.samples) == 1
    with gauge.stopped():
        time.sleep(0.05)
    assert gauge.now() - before < 0.04
    idle = host.HostGauge(active=False)
    idle.poll()
    assert idle.samples == []


def test_reference_work_is_deterministic():
    assert host.reference_work(300) == host.reference_work(300)


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    root = rec.add_span("a:root", 0, 100)
    child = rec.add_span("b:child", 10, 40, root)
    rec.add_span("c:grandchild", 15, 35, child)
    rec.add_span("b:child", 50, 60, root)
    times = rec.self_times()
    assert times["a:root"] == (1, 100, 100 - 30 - 10)
    assert times["b:child"] == (2, 40, (30 - 20) + 10)
    assert times["c:grandchild"] == (1, 20, 20)
    # Self times of a tree add up to the root's duration.
    assert sum(v[2] for v in times.values()) == 100


def test_self_time_skips_unfinished_spans():
    names, parents = [0, 1, 1], [-1, 0, 0]
    starts, ends = [0, 5, 20], [50, 10, 0]  # the last span never ended
    out = self_times(names, parents, starts, ends)
    assert out[0] == (1, 50, 45)
    assert out[1] == (1, 5, 5)


def test_self_time_of_recursive_spans():
    rec = SpanRecorder()
    outer = rec.add_span("enc:encode", 0, 10)
    rec.add_span("enc:encode", 2, 6, outer)
    assert rec.self_times()["enc:encode"] == (2, 14, 10)


def test_children_counted_by_direct_parent():
    rec = SpanRecorder()
    verify = rec.add_span("crypto:verify", 0, 10)
    rec.add_span("enc:encode", 1, 2, verify)
    sign = rec.add_span("crypto:sign", 20, 30)
    inner = rec.add_span("enc:encode", 21, 22, sign)
    rec.add_span("enc:tag", 21, 22, inner)
    rec.add_span("enc:encode", 40, 41)
    assert rec.children_of("crypto:verify") == {"enc:encode": 1}
    assert rec.children_of("crypto:sign") == {"enc:encode": 1}
    assert rec.children_of("missing") == {}


def test_jsonl_dump_round_trips(tmp_path):
    import gzip
    import json

    rec = SpanRecorder()
    root = rec.add_span("a:root", 0, 100)
    rec.add_span("b:child", 10, 40, root)
    for name in ("spans.jsonl", "spans.jsonl.gz"):
        path = str(tmp_path / name)
        rec.dump_jsonl(path)
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "rt") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines == [
            {"id": 0, "name": "a:root", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"id": 1, "name": "b:child", "start_ns": 10, "end_ns": 40, "parent": 0},
        ]
