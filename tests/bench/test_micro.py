"""Tests for the ping-pong microbenchmark and model fitting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.bench import pingpong
from repro.core import characterize, fit_alpha_beta
from repro.errors import ConfigurationError
from repro.machine import Machine, hornet, ideal

GIB = 1 << 30


class TestPingPong:
    def test_ideal_machine_latency_exact(self):
        """On the ideal machine a one-way n-byte hop costs alpha + n*beta."""
        spec = ideal(nodes=1, cores_per_node=2)
        (point,) = pingpong(spec, [GIB // 4], iterations=3)
        assert point.latency == pytest.approx(1e-6 + 0.25, rel=1e-6)
        assert point.bandwidth == pytest.approx((GIB // 4) / point.latency)

    def test_latency_monotone_in_size(self):
        points = pingpong(hornet(nodes=2), [4096, 65536, 1048576])
        lats = [p.latency for p in points]
        assert lats == sorted(lats)

    def test_accepts_size_strings(self):
        (point,) = pingpong(ideal(), ["64KiB"])
        assert point.nbytes == 65536

    def test_machine_instance(self):
        machine = Machine(ideal(), nranks=4)
        points = pingpong(machine, [1024], src=1, dst=3)
        assert points[0].latency > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pingpong(ideal(), [1024], iterations=0)
        with pytest.raises(ConfigurationError):
            pingpong(ideal(), [1024], src=1, dst=1)
        with pytest.raises(ConfigurationError):
            pingpong(ideal(), [])
        with pytest.raises(ConfigurationError):
            pingpong("not a machine", [1024])


class TestFitting:
    def test_exact_linear_data(self):
        model = fit_alpha_beta([(0, 1.0), (10, 2.0), (20, 3.0)])
        assert model.alpha == pytest.approx(1.0)
        assert model.beta == pytest.approx(0.1)
        assert model.r_squared == pytest.approx(1.0)
        assert model.predict(30) == pytest.approx(4.0)

    def test_bandwidth_is_inverse_beta(self):
        model = fit_alpha_beta([(0, 0.0), (1 << 30, 1.0)])
        assert model.bandwidth == pytest.approx(1 << 30)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ConfigurationError):
            fit_alpha_beta([(5, 1.0)])
        with pytest.raises(ConfigurationError):
            fit_alpha_beta([(5, 1.0), (5, 2.0)])

    def test_describe(self):
        model = fit_alpha_beta([(0, 1e-6), (1 << 30, 1.0 + 1e-6)])
        text = model.describe()
        assert "alpha=1.000us" in text and "R^2" in text

    @given(
        alpha=st.floats(min_value=1e-7, max_value=1e-4),
        beta=st.floats(min_value=1e-12, max_value=1e-8),
    )
    def test_recovers_synthetic_ground_truth(self, alpha, beta):
        sizes = [0, 1024, 65536, 1 << 20]
        model = fit_alpha_beta([(m, alpha + m * beta) for m in sizes])
        assert math.isclose(model.alpha, alpha, rel_tol=1e-6, abs_tol=1e-12)
        assert math.isclose(model.beta, beta, rel_tol=1e-6)


class TestCharacterize:
    def test_ideal_machine_ground_truth(self):
        model = characterize(ideal(nodes=1, cores_per_node=2))
        assert model.alpha == pytest.approx(1e-6, rel=0.01)
        assert model.bandwidth == pytest.approx(GIB, rel=0.01)
        assert model.r_squared > 0.9999

    def test_hornet_inter_node_bandwidth_nic_bound(self):
        spec = hornet(nodes=2)
        model = characterize(spec, src=0, dst=24)  # nodes 0 and 1
        assert model.bandwidth == pytest.approx(spec.nic_bw, rel=0.05)

    def test_hornet_intra_faster_than_inter_latency(self):
        spec = hornet(nodes=2)
        intra = characterize(spec, src=0, dst=1)
        inter = characterize(spec, src=0, dst=24)
        assert intra.alpha < inter.alpha
