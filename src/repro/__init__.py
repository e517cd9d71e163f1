"""repro: reproduction of "A Bandwidth-saving Optimization for MPI
Broadcast Collective Operation" (Zhou et al., ICPP 2015).

A simulated-MPI testbed: a deterministic discrete-event machine model
(:mod:`repro.sim`, :mod:`repro.machine`), an MPI point-to-point runtime
(:mod:`repro.mpi`), the paper's native and tuned scatter-ring-allgather
broadcasts plus their MPICH peers (:mod:`repro.collectives`), and a
high-level experiment API (:mod:`repro.core`).

Quickstart::

    from repro import core, machine

    cmp = core.compare_bcast(machine.hornet(), nranks=64, nbytes="1MiB")
    print(cmp.describe())

Every package namespace resolves its names on first use (see
:mod:`repro._lazy`): ``import repro`` loads no submodule, and
``repro.analysis`` loads the gates' stack only when touched.
"""

from ._lazy import lazy_hub

__version__ = "1.0.0"

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "errors": ["ReproError"],
        "core": ["compare_bcast", "simulate_bcast", "validate_bcast"],
    },
    modules=["analysis", "collectives", "core", "machine", "mpi", "sim", "util"],
)
__all__ += ["__version__"]
