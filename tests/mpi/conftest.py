"""Shared fixtures for MPI runtime tests."""

import pytest

from repro.machine import Machine, ideal
from repro.mpi import Job
from repro.sim import Trace

GIB = 1 << 30


def make_ideal_machine(nranks=2, **overrides):
    """Contention-free machine with 1 GiB/s copy engines and 1 us alpha."""
    spec = ideal(**overrides)
    return Machine(spec, nranks=nranks)


def run_job(machine, factory, **kw):
    kw.setdefault("trace", Trace())
    return Job(machine, factory, **kw).run()


@pytest.fixture
def two_rank_machine():
    return make_ideal_machine(2)


@pytest.fixture
def four_rank_machine():
    return make_ideal_machine(4)
