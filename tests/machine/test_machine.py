"""Tests for the Machine facade (resources + transfer plans)."""

import pytest

from repro.errors import MachineError
from repro.machine import Machine, MachineSpec, hornet, ideal
from repro.util import MIB


def small_machine(**kw):
    spec = MachineSpec(
        nodes=4,
        cores_per_node=4,
        topology="crossbar",
        **kw,
    )
    return Machine(spec, nranks=16)


class TestConstruction:
    def test_resources_created_per_used_node(self):
        spec = MachineSpec(nodes=8, cores_per_node=4, topology="crossbar")
        m = Machine(spec, nranks=6)  # spans nodes 0 and 1
        assert sorted(m.mem) == [0, 1]
        assert len(m.cpu) == 6

    def test_capacity_enforced(self):
        with pytest.raises(MachineError):
            Machine(MachineSpec(nodes=1, cores_per_node=2), nranks=3)

    def test_bad_nranks(self):
        with pytest.raises(MachineError):
            Machine(MachineSpec(), nranks=0)

    def test_unknown_topology(self):
        with pytest.raises(MachineError):
            Machine(MachineSpec(topology="torus"), nranks=2)

    def test_describe_and_repr(self):
        m = small_machine()
        assert "placement=blocked" in m.describe()
        assert "Machine" in repr(m)


class TestTransferPlans:
    def test_intra_node_path(self):
        m = small_machine()
        plan = m.transfer_plan(0, 1)  # both on node 0
        assert plan.intra_node
        kinds = [r.kind for r in plan.resources]
        assert kinds == ["cpu", "mem", "cpu"]
        assert plan.latency == m.spec.alpha_intra

    def test_inter_node_path(self):
        m = small_machine()
        plan = m.transfer_plan(0, 5)  # node 0 -> node 1
        assert not plan.intra_node
        kinds = [r.kind for r in plan.resources]
        assert kinds == ["cpu", "mem", "nic", "nic", "mem", "cpu"]
        assert plan.latency > m.spec.alpha_intra

    def test_inter_node_includes_fabric(self):
        m = Machine(hornet(nodes=16), nranks=16 * 24)
        # ranks 0 and 200: nodes 0 and 8 -> different dragonfly groups.
        plan = m.transfer_plan(0, 200)
        kinds = [r.kind for r in plan.resources]
        assert "fabric-global" in kinds

    def test_latency_includes_hops(self):
        m = Machine(hornet(nodes=16), nranks=16 * 24)
        same_group = m.transfer_plan(0, 30)  # nodes 0,1: same group
        cross_group = m.transfer_plan(0, 200)
        assert cross_group.latency > same_group.latency

    def test_self_message_rejected(self):
        with pytest.raises(MachineError):
            small_machine().transfer_plan(2, 2)

    def test_bad_rank_rejected(self):
        with pytest.raises(MachineError):
            small_machine().transfer_plan(0, 99)

    def test_paths_share_resources_between_plans(self):
        m = small_machine()
        p1 = m.transfer_plan(0, 1)
        p2 = m.transfer_plan(1, 0)
        # Same node memory engine appears in both directions.
        assert p1.resources[1] is p2.resources[1]


class TestWorkingSetCacheEffects:
    def test_no_cap_without_working_set(self):
        m = small_machine()
        assert m.transfer_plan(0, 1).rate_cap is None

    def test_no_cap_below_l3(self):
        m = small_machine(l3_bytes=64 * MIB)
        m.set_working_set(1 * MIB)
        assert m.transfer_plan(0, 1).rate_cap is None

    def test_cap_applied_past_l3(self):
        m = small_machine(l3_bytes=1 * MIB, l3_penalty=0.5)
        m.set_working_set(16 * MIB)
        cap = m.transfer_plan(0, 1).rate_cap
        assert cap == pytest.approx(0.5 * m.spec.cpu_copy_bw)

    def test_cap_uses_colocated_rank_count(self):
        # Same buffer, more ranks per node -> bigger working set.
        spec = MachineSpec(nodes=4, cores_per_node=8, l3_bytes=8 * MIB, l3_penalty=0.5)
        dense = Machine(spec, nranks=8)  # 8 ranks on one node
        sparse = Machine(spec, nranks=2)  # 2 ranks on one node
        for m in (dense, sparse):
            m.set_working_set(2 * MIB)
        cap_dense = dense.transfer_plan(0, 1).rate_cap
        cap_sparse = sparse.transfer_plan(0, 1).rate_cap
        assert cap_dense is not None
        assert cap_sparse is None or cap_sparse > cap_dense

    def test_negative_working_set_rejected(self):
        with pytest.raises(MachineError):
            small_machine().set_working_set(-1)

    def test_ideal_machine_never_caps(self):
        m = Machine(ideal(), nranks=8)
        m.set_working_set(1 << 40)
        assert m.transfer_plan(0, 1).rate_cap is None
