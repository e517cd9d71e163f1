"""Tests for schedules emitted from certificates (repro.collectives.emit).

Extraction through the zero-time executor is the reference: an emitted
schedule must equal ``compile_schedule(extract_schedule(...))`` up to
send numbering (``schedule_diff``), which is what makes it safe for the
dispatch layer to skip extraction for the two paper broadcasts.
"""

import pytest

from repro.analysis.replaygate import schedule_diff
from repro.analysis.verify import REGISTRY
from repro.collectives.emit import BCAST_CERTIFICATES, EMITTED, emit_schedule
from repro.collectives.scatter import SCATTER_TAG
from repro.collectives.schedule import extract_schedule
from repro.errors import CollectiveError
from repro.sim.replay import OP_IRECV, OP_ISEND, OP_WAIT, compile_schedule

SWEEP_RANKS = list(range(2, 33)) + [63, 64, 65]


def extracted(name, nranks, nbytes, root):
    return compile_schedule(
        extract_schedule(nranks, REGISTRY[name].build(nranks, nbytes, root))
    )


@pytest.mark.parametrize("name", EMITTED)
def test_structural_sweep(name):
    """Every P in [2, 32] and around 64, a size no P divides, an inner root."""
    for nranks in SWEEP_RANKS:
        root = nranks // 3
        want = extracted(name, nranks, 12289, root)
        got = emit_schedule(name, nranks, 12289, root)
        assert schedule_diff(want, got) == "", (nranks, schedule_diff(want, got))


def test_emitted_covers_the_bcast_certificates():
    assert set(BCAST_CERTIFICATES.values()) <= set(EMITTED)
    with pytest.raises(CollectiveError, match="no schedule emitter"):
        emit_schedule("allgather_ring", 4, 1024)


@pytest.mark.parametrize("name", EMITTED)
def test_single_rank_is_empty(name):
    sched = emit_schedule(name, 1, 4096)
    assert sched.n_sends == 0
    assert sched.ranks == [0]
    assert [len(k) for k in sched.op_kinds] == [0]
    assert schedule_diff(extracted(name, 1, 4096, 0), sched) == ""


@pytest.mark.parametrize("name", ["bcast_native", "bcast_opt"])
def test_zero_byte_chunks(name):
    """nbytes < P leaves trailing chunks empty: the scatter skips those
    subtrees, the ring still sends them."""
    nranks, nbytes = 8, 3
    sched = emit_schedule(name, nranks, nbytes)
    tags = sched.send_tag.tolist()
    scatter = [i for i, t in enumerate(tags) if t == SCATTER_TAG]
    ring = [i for i, t in enumerate(tags) if t != SCATTER_TAG]
    assert 0 < len(scatter) < nranks - 1
    assert all(sched.send_nbytes[i] > 0 for i in scatter)
    assert any(sched.send_nbytes[i] == 0 for i in ring)
    assert schedule_diff(extracted(name, nranks, nbytes, 0), sched) == ""


def test_native_ring_is_sendrecv_triplets():
    sched = emit_schedule("bcast_native", 4, 4096)
    # Relative rank 3 is a leaf: scatter recv, then three ring triplets.
    kinds = sched.op_kinds[3].tolist()
    assert kinds[1:] == [OP_ISEND, OP_IRECV, OP_WAIT] * 3
    assert sched.wait_members[3] == [(1, 2), (4, 5), (7, 8)]


@pytest.mark.parametrize("name", EMITTED)
def test_root_out_of_range_raises_like_extraction(name):
    with pytest.raises(CollectiveError) as want:
        extract_schedule(8, REGISTRY[name].build(8, 4096, 99))
    with pytest.raises(CollectiveError) as got:
        emit_schedule(name, 8, 4096, root=99)
    assert str(got.value) == str(want.value) == "root 99 outside [0, 8)"


def test_negative_size_raises():
    with pytest.raises(CollectiveError, match="negative broadcast size"):
        emit_schedule("bcast_opt", 4, -1)
