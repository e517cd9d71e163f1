#!/usr/bin/env python3
"""SUMMA matrix multiplication: an application-level broadcast workload.

The paper motivates broadcast tuning with dense linear algebra (HPL,
matrix multiplication). SUMMA is the classic case: to compute
``C = A x B`` on a ``g x g`` process grid, every outer step broadcasts a
block of A along each process *row* and a block of B along each process
*column* — broadcasts dominate its communication.

This example runs SUMMA's communication+compute schedule on the
simulated machine twice — once with MPICH3's native scatter-ring
broadcast and once with the paper's tuned ring — and reports the
end-to-end application speedup, which is how a broadcast optimisation
actually reaches users.

Run:  python examples/matmul_summa.py
"""

from repro.collectives import bcast_scatter_ring_native, bcast_scatter_ring_opt
from repro.machine import Machine, hornet
from repro.mpi import Job
from repro.util import Table, format_size

GRID = 6  # 6x6 = 36 ranks (non-power-of-two: the paper's npof2 case)
MATRIX_N = 6144  # global matrix dimension
ELEM = 8  # double precision
FLOPS_PER_RANK = 20e9  # effective GEMM rate per rank


def summa_program(ctx, grid, block_bytes, flops_per_block, bcast):
    """One rank's SUMMA schedule on a grid-row/grid-column communicator
    pair. ``ctx`` is bound to the world communicator."""
    me = ctx.rank
    row, col = divmod(me, grid)
    world = ctx.comm
    row_comm = world.subset([row * grid + c for c in range(grid)])
    col_comm = world.subset([r * grid + col for r in range(grid)])
    row_ctx = ctx.sub(row_comm)
    col_ctx = ctx.sub(col_comm)

    for k in range(grid):
        # Owner of the k-th A-block in this row / B-block in this column.
        yield from bcast(row_ctx, block_bytes, root=k)
        yield from bcast(col_ctx, block_bytes, root=k)
        yield from ctx.compute(flops_per_block / FLOPS_PER_RANK)
    return me


def run_summa(bcast) -> float:
    nranks = GRID * GRID
    machine = Machine(hornet(nodes=4), nranks=nranks)
    block_dim = MATRIX_N // GRID
    block_bytes = block_dim * block_dim * ELEM
    flops_per_block = 2.0 * block_dim * block_dim * block_dim

    def factory(ctx):
        return summa_program(ctx, GRID, block_bytes, flops_per_block, bcast)

    result = Job(machine, factory, working_set=block_bytes).run()
    return result.time


def main() -> None:
    block_dim = MATRIX_N // GRID
    print(
        f"SUMMA C = A x B: N={MATRIX_N}, {GRID}x{GRID} grid "
        f"({GRID * GRID} ranks, npof2), block {block_dim}x{block_dim} "
        f"({format_size(block_dim * block_dim * ELEM)})"
    )
    print()

    t_native = run_summa(bcast_scatter_ring_native)
    t_opt = run_summa(bcast_scatter_ring_opt)

    table = Table(
        ["broadcast design", "app time (ms)", "speedup"],
        formats=[None, ".2f", ".3f"],
        title="End-to-end SUMMA runtime",
    )
    table.add_row("MPI_Bcast_native (enclosed ring)", t_native * 1e3, 1.0)
    table.add_row("MPI_Bcast_opt (tuned ring)", t_opt * 1e3, t_native / t_opt)
    print(table)
    print()
    print(
        f"the tuned broadcast alone makes the whole application "
        f"{(t_native / t_opt - 1) * 100:.1f}% faster"
    )


if __name__ == "__main__":
    main()
