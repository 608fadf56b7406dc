"""The metrics registry: kinds, labels, thread safety, exposition.

The registry is process-global in production; these tests use private
:class:`MetricsRegistry` instances so they cannot interfere with the
counters other suites read from the process-global ``REGISTRY``
(``simulator_constructions`` among them).
"""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    render_prometheus,
)


class TestKinds:
    def test_counter_accumulates_and_returns_new_value(self):
        reg = MetricsRegistry()
        assert reg.inc("hits") == 1
        assert reg.inc("hits", 4) == 5
        assert reg.value("hits") == 5

    def test_unwritten_name_reads_zero(self):
        assert MetricsRegistry().value("never") == 0

    def test_gauge_is_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 7)
        reg.set_gauge("depth", 3)
        assert reg.value("depth") == 3

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        reg.observe("latency", 0.002)
        reg.observe("latency", 0.002)
        reg.observe("latency", 40.0)
        hist = reg.histogram("latency")
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(40.004)
        by_bound = dict(hist["buckets"])
        assert by_bound[0.005] == 2       # both 2ms observations
        assert by_bound[60.0] == 1        # the 40s outlier

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("n")
        with pytest.raises(ValueError, match="is a counter"):
            reg.observe("n", 1.0)
        with pytest.raises(ValueError, match="is a counter"):
            reg.set_gauge("n", 1.0)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.inc("evals", design="blur")
        reg.inc("evals", design="saa2vga")
        reg.inc("evals", design="blur")
        assert reg.value("evals", design="blur") == 2
        assert reg.value("evals", design="saa2vga") == 1
        # label order never matters
        reg.inc("multi", a="1", b="2")
        assert reg.value("multi", b="2", a="1") == 1

    def test_counters_snapshot_is_unlabeled_counters_only(self):
        reg = MetricsRegistry()
        reg.inc("plain", 3)
        reg.inc("labeled", design="x")
        reg.set_gauge("gauge", 9)
        reg.observe("hist", 1.0)
        assert reg.counters() == {"plain": 3}


class TestThreadSafety:
    def test_concurrent_increments_are_lossless(self):
        """The satellite fix: counter mutation is locked, not GIL-lucky."""
        reg = MetricsRegistry()
        n_threads, n_incs = 8, 2000

        def worker():
            for _ in range(n_incs):
                reg.inc("contended")
                reg.observe("obs", 0.01)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("contended") == n_threads * n_incs
        assert reg.histogram("obs")["count"] == n_threads * n_incs


class TestPrometheusRendering:
    def test_counter_gets_total_suffix_and_type_line(self):
        reg = MetricsRegistry()
        reg.inc("store_hits", 3)
        text = render_prometheus(reg)
        assert "# TYPE repro_store_hits_total counter" in text
        assert "repro_store_hits_total 3" in text

    def test_labels_render_sorted_and_quoted(self):
        reg = MetricsRegistry()
        reg.inc("evals", design="blur", binding="fifo")
        text = render_prometheus(reg)
        assert 'repro_evals_total{binding="fifo",design="blur"} 1' in text

    def test_histogram_renders_cumulative_buckets(self):
        reg = MetricsRegistry()
        reg.observe("shard_seconds", 0.002)
        reg.observe("shard_seconds", 0.002)
        reg.observe("shard_seconds", 200.0)  # beyond the last bound
        text = render_prometheus(reg)
        assert "# TYPE repro_shard_seconds histogram" in text
        # cumulative: every bound >= 0.005 has seen both fast observations
        assert 'repro_shard_seconds_bucket{le="0.005"} 2' in text
        assert 'repro_shard_seconds_bucket{le="120.0"} 2' in text
        assert 'repro_shard_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_shard_seconds_count 3" in text
        counts = [line for line in text.splitlines() if "_bucket" in line]
        assert len(counts) == len(DEFAULT_BUCKETS) + 1

    def test_gauge_renders_without_suffix(self):
        reg = MetricsRegistry()
        reg.set_gauge("queue_depth", 4)
        text = render_prometheus(reg)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 4" in text

    def test_reset_empties_registry(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.counters() == {}
