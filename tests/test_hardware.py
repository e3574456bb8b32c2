"""Tests for the hardware substrate: workloads, cost model, devices, latency,
memory, profiling and measurement."""

import numpy as np
import pytest

from repro.hardware import (
    PAPER_TARGETS,
    DeviceMeasurement,
    OpDescriptor,
    all_devices,
    calibrate_coefficients,
    dgcnn_workload,
    estimate_latency,
    estimate_peak_memory,
    get_device,
    graph_reuse_dgcnn_workload,
    list_devices,
    lower_op,
    lower_workload,
    profile_workload,
    simplified_dgcnn_workload,
)
from repro.utils.timer import VirtualClock


class TestWorkload:
    def test_op_descriptor_validation(self):
        with pytest.raises(ValueError):
            OpDescriptor(kind="conv", num_points=10)
        with pytest.raises(ValueError):
            OpDescriptor(kind="combine", num_points=0)
        with pytest.raises(ValueError):
            OpDescriptor(kind="combine", num_points=10, in_dim=-1)

    def test_workload_counting(self):
        wl = dgcnn_workload(256)
        assert wl.count("knn_sample") == 4
        assert wl.count("aggregate") == 4
        assert sum(op.category == "combine" for op in wl) == 6  # 4 edge MLPs + embedding + classifier

    def test_categories(self):
        assert OpDescriptor(kind="knn_sample", num_points=8).category == "sample"
        assert OpDescriptor(kind="classifier", num_points=8).category == "combine"
        assert OpDescriptor(kind="pooling", num_points=8).category == "others"


class TestCostModel:
    def test_knn_scales_quadratically(self):
        small = lower_op(OpDescriptor(kind="knn_sample", num_points=100, num_edges=1000, in_dim=3))
        large = lower_op(OpDescriptor(kind="knn_sample", num_points=200, num_edges=2000, in_dim=3))
        assert large.knn_pair_dims == pytest.approx(4 * small.knn_pair_dims)

    def test_random_sample_much_cheaper_than_knn(self):
        knn = lower_op(OpDescriptor(kind="knn_sample", num_points=1024, num_edges=20480, in_dim=64))
        rnd = lower_op(OpDescriptor(kind="random_sample", num_points=1024, num_edges=20480, in_dim=64))
        assert rnd.knn_pair_dims == 0
        assert rnd.irregular_bytes < knn.knn_pair_dims

    def test_aggregate_traffic_scales_with_message(self):
        narrow = lower_op(OpDescriptor(kind="aggregate", num_points=100, num_edges=1000, in_dim=8, out_dim=8, message_dim=8))
        wide = lower_op(OpDescriptor(kind="aggregate", num_points=100, num_edges=1000, in_dim=8, out_dim=16, message_dim=16))
        assert wide.irregular_bytes > narrow.irregular_bytes

    def test_combine_flops(self):
        q = lower_op(OpDescriptor(kind="combine", num_points=10, in_dim=4, out_dim=8))
        assert q.flops == pytest.approx(2 * 10 * 4 * 8)

    def test_workload_totals(self):
        totals = lower_workload(dgcnn_workload(1024)).total_by_category("flops")
        assert totals["combine"] > totals["aggregate"] > 0


class TestDevicesAndCalibration:
    def test_registry(self):
        assert set(list_devices()) == {"rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"}
        assert len(all_devices()) == 4
        assert get_device("GPU").name == "rtx3080"
        assert get_device("pi").name == "raspberry-pi"
        with pytest.raises(KeyError):
            get_device("tpu")

    def test_coefficients_positive(self):
        for target in PAPER_TARGETS.values():
            coefficients = calibrate_coefficients(target)
            assert all(value > 0 for value in coefficients.values())

    @pytest.mark.parametrize("name", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_dgcnn_latency_matches_paper(self, name):
        device = get_device(name)
        latency = estimate_latency(dgcnn_workload(1024), device).total_ms
        assert latency == pytest.approx(PAPER_TARGETS[name].dgcnn_latency_ms, rel=0.02)

    @pytest.mark.parametrize("name", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_dgcnn_memory_matches_paper(self, name):
        device = get_device(name)
        memory = estimate_peak_memory(dgcnn_workload(1024), device).peak_mb
        assert memory == pytest.approx(PAPER_TARGETS[name].dgcnn_peak_memory_mb, rel=0.02)

    @pytest.mark.parametrize("name", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_breakdown_matches_paper(self, name):
        device = get_device(name)
        fractions = estimate_latency(dgcnn_workload(1024), device).category_fractions()
        for category, expected in PAPER_TARGETS[name].breakdown.items():
            assert fractions[category] == pytest.approx(expected, abs=0.02)

    def test_device_overrides(self):
        device = get_device("rtx3080").with_overrides(power_watts=100.0)
        assert device.power_watts == 100.0
        with pytest.raises(ValueError):
            get_device("rtx3080").with_overrides(power_watts=-1.0)


class TestLatencyModel:
    def test_latency_increases_with_points(self):
        device = get_device("jetson-tx2")
        latencies = [estimate_latency(dgcnn_workload(n), device).total_ms for n in (128, 512, 1024)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_baselines_are_faster_than_dgcnn(self):
        for device in all_devices():
            base = estimate_latency(dgcnn_workload(1024), device).total_ms
            for workload in (graph_reuse_dgcnn_workload(1024), simplified_dgcnn_workload(1024)):
                faster = estimate_latency(workload, device).total_ms
                assert 1.0 < base / faster < 5.0

    def test_fractions_sum_to_one(self):
        report = estimate_latency(dgcnn_workload(512), get_device("pi"))
        assert sum(report.category_fractions().values()) == pytest.approx(1.0)

    def test_report_total_consistency(self):
        report = estimate_latency(dgcnn_workload(256), get_device("cpu"))
        assert report.total_ms == pytest.approx(sum(op.total_ms for op in report.ops))
        assert report.total_s == pytest.approx(report.total_ms / 1000.0)


class TestMemoryModel:
    def test_pi_oom_beyond_1024_points(self):
        pi = get_device("raspberry-pi")
        assert not estimate_peak_memory(dgcnn_workload(1024), pi).out_of_memory
        assert estimate_peak_memory(dgcnn_workload(1536), pi).out_of_memory
        assert estimate_peak_memory(dgcnn_workload(2048), pi).out_of_memory

    def test_other_devices_do_not_oom(self):
        for name in ("rtx3080", "i7-8700k", "jetson-tx2"):
            assert not estimate_peak_memory(dgcnn_workload(2048), get_device(name)).out_of_memory

    @pytest.mark.parametrize("name", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_peak_memory_grows_with_points(self, name):
        device = get_device(name)
        peaks = [estimate_peak_memory(dgcnn_workload(n), device).peak_mb for n in (256, 512, 1024, 2048)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_memory_report_fields(self):
        report = estimate_peak_memory(dgcnn_workload(512), get_device("pi"))
        assert report.peak_mb == pytest.approx(report.base_mb + report.activation_mb)
        assert 0 < report.peak_mb


class TestProfiler:
    def test_dominant_categories_match_paper_story(self):
        workload = dgcnn_workload(1024)
        profiles = {device.name: profile_workload(workload, device) for device in all_devices()}
        assert profiles["rtx3080"].dominant_category() == "sample"
        assert profiles["jetson-tx2"].dominant_category() == "sample"
        assert profiles["i7-8700k"].dominant_category() == "aggregate"
        pi = profiles["raspberry-pi"].category_fractions
        assert min(pi["sample"], pi["aggregate"], pi["combine"]) > 0.15

    def test_profile_result_fields(self):
        profile = profile_workload(dgcnn_workload(256), get_device("gpu"))
        assert profile.total_latency_ms > 0
        assert not profile.out_of_memory


class TestMeasurementAndPower:
    def test_measurement_noise_and_clock(self):
        device = get_device("raspberry-pi")
        clock = VirtualClock()
        meas = DeviceMeasurement(device=device, rng=np.random.default_rng(0), clock=clock)
        workload = dgcnn_workload(512)
        samples = [meas.measure(workload) for _ in range(5)]
        true = estimate_latency(workload, device).total_ms
        latencies = np.array([s.latency_ms for s in samples])
        assert clock.now == pytest.approx(5 * device.measurement_round_trip_s)
        assert np.std(latencies) > 0
        assert np.all(np.abs(latencies / true - 1.0) < 0.5)

    def test_measurement_invalid_runs(self):
        with pytest.raises(ValueError):
            DeviceMeasurement(device=get_device("gpu"), num_runs=0)
