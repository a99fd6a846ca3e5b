"""Tests for fleet-wide metrics merging: ClusterMetrics, gauges, Prometheus."""

import dataclasses
import math

import pytest

from repro.serving import (
    ClusterMetrics,
    LiveGauges,
    ServingMetrics,
    merge_live_gauges,
    render_cluster_prometheus,
)
from repro.serving.metrics import RequestRecord, render_gauge_value


def record(request_id, arrival, first, finish, generated=8, priority=0, preemptions=0):
    return RequestRecord(
        request_id=request_id,
        arrival_time_s=arrival,
        prefill_finish_time_s=first,
        finish_time_s=finish,
        prompt_tokens=128,
        generated_tokens=generated,
        priority=priority,
        preemptions=preemptions,
        scheduled_time_s=arrival,
    )


def gauges(**overrides):
    base = dict(
        clock_s=1.0,
        queue_depth=1,
        pending_arrivals=0,
        running=2,
        kv_tokens_in_use=100,
        kv_token_capacity=1_000,
        backend_kv_tokens=120,
        completed=3,
        aborted=0,
        preemptions=1,
        kv_tokens_demand=150,
    )
    base.update(overrides)
    return LiveGauges(**base)


class TestClusterMetricsMerge:
    def test_zero_request_replicas_report_nan_and_zero(self):
        metrics = ClusterMetrics(
            per_replica={"r0": ServingMetrics(), "r1": ServingMetrics()}
        )
        assert len(metrics.fleet()) == 0
        fleet = metrics.fleet()
        assert math.isnan(fleet.mean_ttft_s())
        assert math.isnan(fleet.percentile_ttft_s(99))
        assert math.isnan(fleet.mean_queueing_delay_s())
        assert math.isnan(fleet.slo_attainment(1.0))
        assert fleet.percentile_tpot_s(50) == 0.0
        assert fleet.mean_time_per_output_token_s() == 0.0
        assert fleet.total_preemptions() == 0
        assert fleet.total_generated_tokens() == 0
        assert fleet.generation_throughput_tokens_s() == 0.0
        assert metrics.completed_per_replica() == {"r0": 0, "r1": 0}

    def test_single_replica_cluster_equals_plain_serving_metrics(self):
        plain = ServingMetrics()
        for i in range(5):
            plain.add(record(f"r{i}", arrival=i, first=i + 0.5 + 0.1 * i, finish=i + 3.0))
        cluster = ClusterMetrics(per_replica={"only": plain})
        fleet = cluster.fleet()
        assert len(fleet) == len(plain)
        assert fleet.mean_ttft_s() == plain.mean_ttft_s()
        assert fleet.percentile_ttft_s(99) == plain.percentile_ttft_s(99)
        assert fleet.percentile_tpot_s(50) == plain.percentile_tpot_s(50)
        assert fleet.mean_queueing_delay_s() == plain.mean_queueing_delay_s()
        assert fleet.slo_attainment(1.0, 0.5) == plain.slo_attainment(1.0, 0.5)
        assert (
            fleet.generation_throughput_tokens_s()
            == plain.generation_throughput_tokens_s()
        )

    def test_fleet_merges_across_replicas(self):
        left, right = ServingMetrics(), ServingMetrics()
        left.add(record("a", arrival=0.0, first=1.0, finish=2.0, preemptions=1))
        right.add(record("b", arrival=0.0, first=3.0, finish=4.0))
        right.add(record("c", arrival=1.0, first=2.0, finish=5.0, priority=1))
        metrics = ClusterMetrics(per_replica={"r0": left, "r1": right})
        assert len(metrics.fleet()) == 3
        fleet = metrics.fleet()
        assert fleet.mean_ttft_s() == pytest.approx((1.0 + 3.0 + 1.0) / 3)
        assert fleet.total_preemptions() == 1
        assert metrics.completed_per_replica() == {"r0": 1, "r1": 2}
        # Priority filters apply to the merged view.
        assert fleet.mean_ttft_s(priority=1) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="priority class 7"):
            fleet.mean_ttft_s(priority=7)

    def test_zero_request_replica_does_not_perturb_fleet_numbers(self):
        busy = ServingMetrics()
        busy.add(record("a", arrival=0.0, first=1.0, finish=2.0))
        alone = ClusterMetrics(per_replica={"busy": busy}).fleet()
        padded = ClusterMetrics(per_replica={"busy": busy, "idle": ServingMetrics()}).fleet()
        assert padded.mean_ttft_s() == alone.mean_ttft_s()
        assert padded.percentile_ttft_s(99) == alone.percentile_ttft_s(99)
        assert padded.slo_attainment(2.0) == alone.slo_attainment(2.0)


class TestMergeLiveGauges:
    def test_counts_sum_and_clock_is_max(self):
        merged = merge_live_gauges(
            [gauges(clock_s=1.0, completed=3), gauges(clock_s=9.0, completed=4)]
        )
        assert merged.clock_s == 9.0
        assert merged.completed == 7
        assert merged.queue_depth == 2
        assert merged.running == 4
        assert merged.kv_tokens_in_use == 200
        assert merged.kv_token_capacity == 2_000
        assert merged.kv_tokens_demand == 300
        assert merged.backend_kv_tokens == 240
        assert merged.preemptions == 2
        assert merged.in_flight == 6
        assert merged.kv_occupancy == pytest.approx(0.1)

    def test_backend_kv_unreported_stays_minus_one(self):
        merged = merge_live_gauges(
            [gauges(backend_kv_tokens=-1), gauges(backend_kv_tokens=-1)]
        )
        assert merged.backend_kv_tokens == -1
        # A mix sums only the replicas that report.
        mixed = merge_live_gauges(
            [gauges(backend_kv_tokens=-1), gauges(backend_kv_tokens=50)]
        )
        assert mixed.backend_kv_tokens == 50

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_live_gauges([])

    @staticmethod
    def distinct_replicas(n: int = 3) -> list[LiveGauges]:
        """Replicas with a value in every field that no other field or replica shares."""
        names = [f.name for f in dataclasses.fields(LiveGauges)]
        return [LiveGauges(**{name: 100 * (i + 1) + r for i, name in enumerate(names)}) for r in range(n)]

    def test_every_field_sums_except_the_stated_rules(self):
        """Each merged field is the sum, save the clock (max)."""
        replicas = self.distinct_replicas()
        merged = merge_live_gauges(replicas)
        for f in dataclasses.fields(LiveGauges):
            values = [getattr(g, f.name) for g in replicas]
            assert getattr(merged, f.name) == (max if f.name == "clock_s" else sum)(values), f.name

    def test_no_reporting_replica_leaves_the_rest_summed(self):
        replicas = [dataclasses.replace(g, backend_kv_tokens=-1) for g in self.distinct_replicas()]
        merged = merge_live_gauges(replicas)
        assert merged.backend_kv_tokens == -1
        for f in dataclasses.fields(LiveGauges):
            if f.name not in ("backend_kv_tokens", "clock_s"):
                assert getattr(merged, f.name) == sum(getattr(g, f.name) for g in replicas), f.name


class TestClusterPrometheus:
    def test_renders_aggregate_and_labelled_series(self):
        body = render_cluster_prometheus(
            {"r0": gauges(completed=3), "r1": gauges(completed=4, clock_s=2.5)},
            healthy={"r0": True, "r1": False},
        )
        assert "# TYPE repro_cluster_completed gauge" in body
        assert "repro_cluster_completed 7" in body
        assert "repro_cluster_replicas 2" in body
        assert "repro_cluster_healthy_replicas 1" in body
        assert 'repro_serving_completed{replica="r0"} 3' in body
        assert 'repro_serving_completed{replica="r1"} 4' in body
        assert 'repro_serving_healthy{replica="r0"} 1' in body
        assert 'repro_serving_healthy{replica="r1"} 0' in body
        assert 'repro_serving_clock_s{replica="r1"} 2.5' in body
        assert body.endswith("\n")
        # One TYPE line per metric name, even with two replicas.
        assert body.count("# TYPE repro_serving_completed gauge") == 1

    def test_large_token_gauges_render_exactly(self):
        body = render_cluster_prometheus(
            {"r0": gauges(kv_tokens_in_use=1_048_575, completed=10_000_001)}
        )
        assert 'repro_serving_kv_tokens_in_use{replica="r0"} 1048575' in body
        assert "repro_cluster_completed 10000001" in body

    def test_health_omitted_when_not_given(self):
        body = render_cluster_prometheus({"r0": gauges()})
        assert "repro_serving_healthy" not in body
        assert "repro_cluster_replicas" not in body

    def test_empty_rendering_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            render_cluster_prometheus({})

    def test_render_gauge_value_rules(self):
        assert render_gauge_value(3) == "3"
        assert render_gauge_value(3.0) == "3"
        assert render_gauge_value(1_048_577) == "1048577"
        assert render_gauge_value(0.125) == "0.125"
