"""Tests of the benchmark's own arithmetic: spans, self time, pass causes
and the tail-percentile rule.  Run with

    python3 -m pytest benchmarks/test_harness.py

They are kept out of the package's test suite, which collects tests/ only.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np
import pytest

import stats
import tracing
from tracing import FLAG_OK, FLAG_RANK_DEFICIENT, Span


def span(sid, name, t0, t1, parent=-1, flag=FLAG_OK):
    return Span(sid, name, t0, t1, parent, 0, flag, 0, 0)


def test_self_time_subtracts_children():
    spans = [
        span(0, "op", 0, 100),
        span(1, "a", 10, 40, parent=0),
        span(2, "b", 50, 70, parent=0),
        span(3, "c", 15, 25, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 100 - 30 - 20, 1: 30 - 10, 2: 20, 3: 10}


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(0, "op", 0, 100),
        span(1, "a", 10, 50, parent=0),
        span(2, "b", 30, 60, parent=0),  # overlaps a
        span(3, "c", 90, 120, parent=0),  # runs past the parent
    ]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_pm2_pass_causes_reads_children_in_order():
    names = [
        # pass 1: rank filter (no reduced_poles)
        "pencil.combined_window", "numerics.svd",
        # pass 2: reduced pencil rank deficient
        "pencil.combined_window", "numerics.svd", ("filtering.reduced_poles", FLAG_RANK_DEFICIENT),
        # pass 3: origin drop (no residue system)
        "pencil.combined_window", "numerics.svd", "filtering.reduced_poles",
        # pass 4: Vandermonde check failed (no weights solve)
        "pencil.combined_window", "numerics.svd", "filtering.reduced_poles", "pencil.residue_system",
        # pass 5: accepted
        "pencil.combined_window", "numerics.svd", "filtering.reduced_poles", "pencil.residue_system",
        "numerics.qr_solve", "pencil.to_rational",
    ]
    spans = [span(0, "filtering.pm2", 0, 1000)]
    for i, entry in enumerate(names, start=1):
        name, flag = entry if isinstance(entry, tuple) else (entry, FLAG_OK)
        spans.append(span(i, name, 10 * i, 10 * i + 5, parent=0, flag=flag))
    # A qr_solve inside reduced_poles is not a direct child and must not
    # turn the Vandermonde pass into an accepted one.
    spans.append(span(99, "numerics.qr_solve", 111, 112, parent=11))
    (c,) = tracing.pm2_pass_causes(spans)
    assert c == {
        "rank_filter": 1,
        "origin_drop": 1,
        "vandermonde": 1,
        "rank_deficient_retry": 1,
        "accepted": 1,
        "passes": 5,
    }


def test_tracer_wraps_every_binding_and_restores_them():
    import padepencil as pp
    from padepencil import baseline, filtering, numerics

    original = numerics.svd
    s = pp.PowerSeries(np.ones(20) * (1 + 1e-6 * np.cos(np.arange(20))), t=6.0)
    with tracing.Tracer() as tr:
        assert filtering.svd is not original and baseline.svd is not original and pp.svd is not original
        tr.run_op(0, lambda: pp.pm2(s, pp.Conformation(10, -1)))
        tr.run_op(1, lambda: pp.svd_denominator(s, pp.Conformation(10, -1)))
    assert filtering.svd is original and baseline.svd is original and pp.svd is original
    spans = tr.spans()
    svds = [x for x in spans if x.name == "numerics.svd"]
    assert {x.op for x in svds} == {0, 1}
    assert all(x.size_a > 0 and x.size_b > 0 for x in svds)
    by_id = {x.id: x for x in spans}
    for x in spans:
        if x.parent >= 0:
            p = by_id[x.parent]
            assert p.t0 <= x.t0 <= x.t1 <= p.t1 and p.op == x.op
    assert tr.counts["series.PowerSeries.coeff"] > 0
    metrics = tracing.layer_metrics(tr, ops=2, elapsed_s=1.0)
    assert metrics["filtering.pm2.passes_per_solve"][0] >= 1
    assert 0 < metrics["numerics.svd.useful_elems_ratio"][0] <= 1


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (50000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.beyond(n, p) >= stats.MIN_BEYOND


def test_preferred_tail_percentile_holds_until_too_few_samples():
    assert stats.tail_percentile(105, preferred=75.0) == 75.0
    assert stats.tail_percentile(5000, preferred=99.0) == 99.0
    assert stats.tail_percentile(500, preferred=99.0) == 95.0


def test_blockwise_takes_medians_over_blocks_of_whole_cycles():
    # 2 slots, 10 cycles, 5 blocks of 2 cycles; block 3 ran 10x slower.
    lat = [1.0, 2.0] * 10
    lat[12:16] = [10.0, 20.0, 10.0, 20.0]
    rate, p50, tail, used = stats.blockwise(lat, n_slots=2, blocks=5, preferred_tail=75.0)
    assert rate == pytest.approx(4 / 6.0)
    assert p50 == 1.0
    assert used == [50.0] * 5  # 4 ops per block cannot carry p75 with 10 beyond
    assert tail == 1.0
    lat = [1.0, 2.0] * 200
    assert stats.blockwise(lat, 2, 2, 95.0) == (2 / 3.0, 1.0, 2.0, [95.0, 95.0])
    # Fewer cycles than blocks: one block per cycle.
    assert len(stats.blockwise([1.0, 2.0] * 3, 2, 5, 75.0)[3]) == 3


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile(list(range(1, 10001)), 99.9) == 9990
    assert stats.percentile([7.0], 50) == 7.0


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)
