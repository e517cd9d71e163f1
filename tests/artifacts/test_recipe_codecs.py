"""Recipe codecs: the JSON form of the non-JSON values an artifact
recipe carries (machine spec, sweep points, fault plan)."""

import json
import re

import pytest

from repro.artifacts import audit
from repro.core.sweep import SweepPoint
from repro.errors import MachineError
from repro.machine import hornet
from repro.sim.faults import FaultPlan


class TestCodecs:
    def test_spec_round_trip(self):
        spec = hornet(nodes=4)
        assert audit.decode_spec(audit.encode_spec(spec)) == spec

    def test_spec_with_non_finite_field_rejected(self):
        """``json.loads`` accepts the ``NaN``/``Infinity`` literals, so an
        artifact spec can carry them; decoding must refuse."""
        text = json.dumps(audit.encode_spec(hornet(nodes=4)))
        for literal in ("NaN", "Infinity"):
            patched = re.sub(r'"nic_bw": [^,]+', f'"nic_bw": {literal}', text)
            assert f'"nic_bw": {literal}' in patched
            with pytest.raises(MachineError, match="nic_bw"):
                audit.decode_spec(json.loads(patched))

    def test_points_round_trip(self):
        points = [SweepPoint("a", 8, 1024), SweepPoint("b", 16, 2048)]
        assert audit.decode_points(audit.encode_points(points)) == points

    def test_faults_round_trip(self):
        plan = FaultPlan.uniform(seed=3, drop_p=0.1, name="t")
        back = audit.decode_faults(audit.encode_faults(plan))
        assert back.digest() == plan.digest()
        assert audit.encode_faults(None) is None
        assert audit.decode_faults(None) is None
