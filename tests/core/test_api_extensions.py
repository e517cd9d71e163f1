"""Tests for the measurement loop and the timed DES end to end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import simulate_bcast
from repro.errors import ConfigurationError
from repro.machine import hornet, ideal


class TestIterations:
    def test_per_iteration_time_close_to_single(self):
        spec = ideal(nodes=2, cores_per_node=8)
        one = simulate_bcast(spec, 8, 65536, algorithm="scatter_ring_opt")
        many = simulate_bcast(
            spec, 8, 65536, algorithm="scatter_ring_opt", iterations=10
        )
        # Barrier overhead only: within a few percent for 64KiB messages.
        assert many.time == pytest.approx(one.time, rel=0.10)
        assert many.time >= one.time  # barrier adds, never removes

    def test_message_counts_are_per_iteration(self):
        spec = ideal(nodes=2, cores_per_node=8)
        one = simulate_bcast(spec, 8, 65536, algorithm="scatter_ring_opt")
        many = simulate_bcast(
            spec, 8, 65536, algorithm="scatter_ring_opt", iterations=4
        )
        # Per-iteration messages = bcast msgs + barrier tokens (8*3).
        assert many.messages == one.messages + 8 * 3
        assert many.bytes_on_wire == one.bytes_on_wire  # tokens carry 0 bytes

    def test_validate_with_iterations(self):
        spec = ideal(nodes=2, cores_per_node=8)
        rec = simulate_bcast(
            spec, 9, 900, algorithm="scatter_ring_opt", validate=True, iterations=3
        )
        assert rec.time > 0

    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            simulate_bcast(ideal(), 4, 100, iterations=0)


@settings(deadline=None, max_examples=15)
@given(
    P=st.integers(min_value=2, max_value=16),
    data=st.data(),
)
def test_property_end_to_end_des_bcast(P, data):
    """Random machine shapes x random roots/sizes: the timed DES with
    real buffers always delivers the full payload everywhere, for both
    ring designs, and the tuned one is never slower."""
    cores = data.draw(st.integers(min_value=1, max_value=8))
    nodes = -(-P // cores)
    root = data.draw(st.integers(min_value=0, max_value=P - 1))
    nbytes = data.draw(st.integers(min_value=1, max_value=5000))
    spec = hornet(nodes=nodes, cores_per_node=cores)
    times = {}
    for algo in ("scatter_ring_native", "scatter_ring_opt"):
        rec = simulate_bcast(
            spec, P, nbytes, algorithm=algo, root=root, validate=True
        )
        times[algo] = rec.time
    assert times["scatter_ring_opt"] <= times["scatter_ring_native"] * (1 + 1e-9)
