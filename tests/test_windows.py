"""Unit and property tests for windowed steady-state metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TelemetryError
from repro.metrics.percentile import percentile
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.windows import WindowedMetrics, WindowStats
from repro.units import MS, SEC

W = 1 * MS


def _complete(windows, now, latency, sensitive=True, met=True):
    windows.on_complete(now, latency, sensitive, met)


class TestWindowBoundaries:
    def test_event_on_edge_opens_next_window(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(W - 1)   # last tick of window 0
        windows.on_arrival(W)       # first tick of window 1
        records = windows.finalize(W + 1)
        assert [r.index for r in records] == [0, 1]
        assert records[0].arrivals == 1
        assert records[1].arrivals == 1
        assert records[0].start == 0 and records[0].end == W
        assert records[1].start == W and records[1].end == 2 * W

    def test_first_window_starts_at_first_event(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(5 * W + 3)
        records = windows.finalize()
        assert [r.index for r in records] == [5]

    def test_gap_windows_emitted_empty(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(0)
        windows.on_arrival(3 * W + 1)
        records = windows.finalize(4 * W)
        assert [r.index for r in records] == [0, 1, 2, 3]
        assert [r.arrivals for r in records] == [1, 0, 0, 1]

    @given(st.lists(st.integers(min_value=0, max_value=20 * MS),
                    min_size=1, max_size=60))
    def test_every_event_lands_in_its_index_window(self, times):
        windows = WindowedMetrics(W)
        for t in sorted(times):
            windows.on_arrival(t)
        records = windows.finalize(max(times) + 1)
        by_index = {r.index: r.arrivals for r in records}
        expected = {}
        for t in times:
            expected[t // W] = expected.get(t // W, 0) + 1
        assert {i: n for i, n in by_index.items() if n} == expected
        assert sum(by_index.values()) == len(times)
        # The series is contiguous: no index holes.
        indices = sorted(by_index)
        assert indices == list(range(indices[0], indices[-1] + 1))


class TestWindowStats:
    def test_rates_and_throughput(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(10)
        windows.on_arrival(20)
        windows.on_admitted(30)
        windows.on_rejected(40)
        _complete(windows, 500, latency=400, met=True)
        _complete(windows, 600, latency=300, met=False)
        stats = windows.finalize(700)[0]
        assert stats.arrivals == 2
        assert stats.admitted == 1
        assert stats.rejected == 1
        assert stats.admission_rate == 0.5
        assert stats.reject_rate == 0.5
        assert stats.completions == 2
        assert stats.sensitive_completions == 2
        assert stats.deadline_met == 1
        assert stats.deadline_missed == 1
        assert stats.slo_attainment == 0.5
        assert stats.throughput_jobs_per_s == 2 / (W / SEC)
        assert stats.partial is True

    def test_empty_window_has_none_rates(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(0)
        windows.on_arrival(2 * W)  # forces empty window 1
        gap = windows.finalize(3 * W)[1]
        assert gap.latency_p50 is None
        assert gap.slo_attainment is None
        assert gap.admission_rate is None
        assert gap.throughput_jobs_per_s == 0.0

    def test_insensitive_completions_not_in_slo(self):
        windows = WindowedMetrics(W)
        _complete(windows, 10, latency=5, sensitive=False, met=False)
        stats = windows.finalize(20)[0]
        assert stats.completions == 1
        assert stats.sensitive_completions == 0
        assert stats.slo_attainment is None

    def test_as_dict_round_trips_json_fields(self):
        windows = WindowedMetrics(W, rolling=2)
        _complete(windows, 10, latency=5)
        record = windows.finalize(20)[0].as_dict()
        assert record["index"] == 0
        assert record["completions"] == 1
        assert "rolling" in record


class TestEstimators:
    def test_exact_estimator_matches_percentile(self):
        windows = WindowedMetrics(W, estimator="exact")
        latencies = [100, 900, 300, 700, 500]
        for i, latency in enumerate(latencies):
            _complete(windows, 10 + i, latency=latency)
        stats = windows.finalize(W)[0]
        assert stats.latency_p50 == percentile(latencies, 50)
        assert stats.latency_p99 == percentile(latencies, 99)
        assert stats.percentiles_exact is True

    def test_reservoir_exact_below_capacity(self):
        windows = WindowedMetrics(W, estimator="reservoir",
                                  reservoir_capacity=16)
        latencies = list(range(100, 1100, 100))
        for i, latency in enumerate(latencies):
            _complete(windows, i, latency=latency)
        stats = windows.finalize(W)[0]
        assert stats.percentiles_exact is True
        assert stats.latency_p50 == percentile(latencies, 50)

    def test_reservoir_sampling_flagged_beyond_capacity(self):
        windows = WindowedMetrics(W, estimator="reservoir",
                                  reservoir_capacity=4)
        for i in range(20):
            _complete(windows, i, latency=i * 10)
        stats = windows.finalize(W)[0]
        assert stats.percentiles_exact is False
        assert 0 <= stats.latency_p50 <= 190

    def test_reservoir_windows_deterministic(self):
        def run():
            windows = WindowedMetrics(W, estimator="reservoir",
                                      reservoir_capacity=4)
            for i in range(50):
                _complete(windows, i * (W // 10), latency=i * 7)
            return [(r.latency_p50, r.latency_p99)
                    for r in windows.finalize()]
        assert run() == run()

    def test_p2_estimator_tracked_per_window(self):
        windows = WindowedMetrics(W, estimator="p2")
        for i in range(200):
            _complete(windows, i, latency=i)
        stats = windows.finalize(W)[0]
        assert stats.percentiles_exact is False
        assert 80 <= stats.latency_p50 <= 120
        assert 190 <= stats.latency_p99 <= 199


class TestRolling:
    def test_trailing_aggregate_spans_k_windows(self):
        windows = WindowedMetrics(W, estimator="exact", rolling=2)
        _complete(windows, 10, latency=100)
        _complete(windows, W + 10, latency=300)
        _complete(windows, 2 * W + 10, latency=500)
        records = windows.finalize(3 * W)
        first, second, third = (r.rolling for r in records)
        assert first["windows"] == 1
        assert second["windows"] == 2
        assert second["completions"] == 2
        assert second["latency_p50"] == percentile([100, 300], 50)
        assert third["latency_p50"] == percentile([300, 500], 50)
        assert third["throughput_jobs_per_s"] == 2 / (2 * W / SEC)

    def test_rolling_off_by_default(self):
        windows = WindowedMetrics(W)
        _complete(windows, 10, latency=5)
        assert windows.finalize(20)[0].rolling is None


class TestLifecycle:
    def test_finalize_idempotent(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(10)
        first = windows.finalize(20)
        assert windows.finalize(20) == first
        assert windows.windows_closed == 1

    def test_partial_flag_only_on_truncated_window(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(10)
        windows.on_arrival(W + 10)
        records = windows.finalize(2 * W)
        assert records[0].partial is False
        assert records[1].partial is False  # ended exactly on the edge
        windows2 = WindowedMetrics(W)
        windows2.on_arrival(10)
        assert windows2.finalize(W // 2)[0].partial is True

    def test_consumers_see_windows_in_order(self):
        seen = []
        windows = WindowedMetrics(W)
        windows.add_consumer(seen.append)
        windows.on_arrival(0)
        windows.on_arrival(2 * W)
        windows.finalize(3 * W)
        assert [s.index for s in seen] == [0, 1, 2]
        assert all(isinstance(s, WindowStats) for s in seen)

    def test_series_extracts_one_metric(self):
        windows = WindowedMetrics(W)
        windows.on_arrival(0)
        windows.on_arrival(W + 1)
        windows.finalize(2 * W)
        assert windows.series("arrivals") == [(0, 1), (W, 1)]

    def test_custom_sink_receives_records(self):
        sink = RingBufferSink(capacity=1)
        windows = WindowedMetrics(W, sink=sink)
        windows.on_arrival(0)
        windows.on_arrival(2 * W)
        windows.finalize(3 * W)
        assert windows.windows_closed == 3
        assert sink.total == 3
        assert len(windows.records) == 1  # retention bounded by the sink

    def test_occupancy_probe_sampled_at_close(self):
        calls = []
        windows = WindowedMetrics(
            W, occupancy_probe=lambda: calls.append(1) or 42)
        windows.on_arrival(0)
        stats = windows.finalize(W)[0]
        assert stats.occupancy_wgs == 42
        assert len(calls) == 1


class TestValidation:
    def test_window_ticks_must_be_positive(self):
        with pytest.raises(TelemetryError):
            WindowedMetrics(0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(TelemetryError, match="unknown estimator"):
            WindowedMetrics(W, estimator="tdigest")

    def test_rolling_must_be_at_least_one(self):
        with pytest.raises(TelemetryError):
            WindowedMetrics(W, rolling=0)


class TestStreamedComposition:
    """--window + --stream: windowed metrics over a retired-job run.

    Retirement drops per-job state at terminal transitions; the window
    hooks fire from the collector *before* the drop, so the windowed
    series is complete while the run's footprint stays O(live + window).
    """

    def _streamed_windowed(self, num_jobs=400, slo=False):
        import io

        from repro.config import SimConfig
        from repro.schedulers.registry import make_scheduler
        from repro.sim.device import GPUSystem
        from repro.telemetry import TelemetryHub
        from repro.workloads.streaming import SUSTAINED_RATES, sustained_source

        stream = io.StringIO() if slo else None
        hub = TelemetryHub(window=W, slo_monitor=slo, slo_stream=stream)
        system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                           telemetry=hub, retire=True)
        system.submit_stream(
            sustained_source(SUSTAINED_RATES["high"]).jobs(),
            max_jobs=num_jobs)
        metrics = system.run()
        return hub, metrics, stream

    def test_windows_complete_over_retired_stream(self):
        hub, metrics, _ = self._streamed_windowed()
        records = hub.windows.records
        assert records, "the run spans at least one window"
        assert sum(r.arrivals for r in records) == metrics.num_jobs
        assert (sum(r.completions for r in records)
                == metrics.num_jobs - metrics.jobs_rejected)
        assert sum(r.rejected for r in records) == metrics.jobs_rejected
        # Contiguous series: retirement must not drop window closes.
        indices = [r.index for r in records]
        assert indices == list(range(indices[0], indices[-1] + 1))

    def test_slo_monitor_streams_over_retired_stream(self):
        hub, _, stream = self._streamed_windowed(slo=True)
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert len(lines) == hub.windows.windows_closed
        assert all("slo=" in line for line in lines)

    def test_window_state_is_bounded_by_window_count(self):
        """O(window) memory: retained state is the closed records plus
        one live window — never per-job."""
        hub, metrics, _ = self._streamed_windowed(num_jobs=600)
        assert metrics.num_jobs == 600
        assert len(hub.windows.records) == hub.windows.windows_closed
        assert hub.windows.windows_closed < 50  # windows, not jobs
