"""Tests for MachineSpec validation and the presets."""

import dataclasses

import pytest

from repro.errors import MachineError
from repro.machine import MachineSpec, hornet, laki, ideal
from repro.util import GIB


class TestValidation:
    def test_defaults_valid(self):
        spec = MachineSpec()
        assert spec.total_cores == spec.nodes * spec.cores_per_node

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nodes", 0),
            ("cores_per_node", 0),
            ("alpha_intra", -1.0),
            ("alpha_inter", -1.0),
            ("send_overhead", -1e-9),
            ("cpu_copy_bw", 0.0),
            ("mem_bw", -1.0),
            ("nic_bw", 0.0),
            ("eager_threshold", -1),
            ("l3_penalty", 0.0),
            ("l3_penalty", 1.5),
            ("mem_penalty", -0.1),
            ("l3_bytes", 0),
            ("mem_pressure_bytes", -5),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(MachineError):
            MachineSpec(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            f.name
            for f in dataclasses.fields(MachineSpec)
            if isinstance(getattr(MachineSpec(), f.name), (int, float))
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_field(self, field, value):
        """NaN passes every ordered comparison and inf stalls the fluid
        solver: every numeric field must be finite."""
        with pytest.raises(MachineError, match="finite"):
            MachineSpec(**{field: value})

    def test_with_replaces_field(self):
        spec = MachineSpec(nodes=4)
        spec2 = spec.with_(nodes=8, nic_bw=1.0 * GIB)
        assert spec2.nodes == 8 and spec2.nic_bw == 1.0 * GIB
        assert spec.nodes == 4  # original untouched

    def test_with_still_validates(self):
        with pytest.raises(MachineError):
            MachineSpec().with_(nodes=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            MachineSpec().nodes = 3

    def test_describe_mentions_name_and_layout(self):
        text = MachineSpec(name="foo", nodes=3, cores_per_node=7).describe()
        assert "foo" in text and "3 nodes" in text and "7 cores" in text


class TestPresets:
    def test_hornet_matches_paper_hardware(self):
        spec = hornet()
        assert spec.cores_per_node == 24  # dual Haswell E5-2680v3
        assert spec.topology == "dragonfly"  # Aries
        assert spec.name == "hornet"

    def test_laki_matches_paper_hardware(self):
        spec = laki()
        assert spec.cores_per_node == 8  # dual X5560
        assert spec.topology == "fattree"  # InfiniBand switched fabric
        assert spec.l3_bytes == 8 * 1024 * 1024  # 8MB L3 per the paper

    def test_ideal_has_no_second_order_effects(self):
        spec = ideal()
        assert spec.send_overhead == 0.0
        assert spec.l3_penalty == 1.0
        assert spec.topology == "crossbar"

    def test_presets_accept_overrides(self):
        spec = hornet(nodes=4, nic_bw=1.0)
        assert spec.nodes == 4 and spec.nic_bw == 1.0

    def test_hornet_fits_256_ranks(self):
        # Fig. 6(c) needs 256 processes.
        assert hornet().total_cores >= 256

    def test_laki_fits_129_ranks(self):
        # Fig. 7/8 need up to 129 processes.
        assert laki().total_cores >= 129

    def test_hornet_is_the_faster_machine(self):
        """The Cray preset out-classes the older NEC cluster on every
        bandwidth axis, as the real systems did."""
        h, l = hornet(), laki()
        assert h.nic_bw > l.nic_bw
        assert h.mem_bw > l.mem_bw
        assert h.cpu_copy_bw > l.cpu_copy_bw
        assert h.alpha_inter < l.alpha_inter

    def test_presets_actually_deliver_their_ordering(self):
        """End to end: the same broadcast is faster on Hornet."""
        from repro.core import simulate_bcast

        th = simulate_bcast(hornet(nodes=2), 16, 2**20).time
        tl = simulate_bcast(laki(nodes=4), 16, 2**20).time
        assert th < tl

    def test_preset_names_match(self):
        assert hornet().name == "hornet"
        assert laki().name == "laki"
        assert ideal().name == "ideal"
