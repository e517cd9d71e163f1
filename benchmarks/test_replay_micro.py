"""Replay-engine microbenchmark: the replay fast path vs the coroutine DES.

Times the same fig7-style broadcast cells (``scatter_ring_opt``-shaped
``bcast_opt``, message size 12 KiB, non-power-of-two rank counts on
hornet) on both execution engines:

* **DES** — the coroutine discrete-event runtime (``mpi.Job``);
* **replay** — the compiled static schedule on
  :class:`~repro.sim.replay.ReplayEngine` (schedule built outside the
  timed region; the one-shot build cost is timed separately).

The schedule is built both ways and both are timed: extracted through
the zero-time executor and compiled (the reference), and emitted from
the broadcast's certificate (what the dispatch layer runs). Every cell
first asserts *bitwise* result equality (makespan and message
counters) of both schedules' replays with the DES, then compares
best-of-2 wall times. The CI bar is the dispatch-worthiness floor
(>= 2x on the best cell); the measured trajectory — including one-shot
extraction and emission costs and the P=1024 feasibility run — is
recorded in ``BENCH_replay.json``.

Honours ``REPRO_BENCH_FAST`` (drops the P=129 cell) like every other
bench.
"""

from time import perf_counter

from repro.analysis.verify import REGISTRY
from repro.bench import fast_mode
from repro.collectives.emit import emit_schedule
from repro.collectives.schedule import extract_schedule
from repro.machine import Machine, hornet
from repro.mpi import Job
from repro.sim.replay import ReplayEngine, compile_schedule

from conftest import publish

#: fig7 grid cells: FIG7_SIZES[0] = 12288 at non-pof2 rank counts.
NBYTES = 12288
RANKS = (65,) if fast_mode() else (65, 129)
#: CI acceptance bar on the best cell's replay-only speedup.
SPEEDUP_BAR = 2.0


def _best_of(fn, rounds=2):
    best, value = float("inf"), None
    for _ in range(rounds):
        t0 = perf_counter()
        value = fn()
        best = min(best, perf_counter() - t0)
    return best, value


def _des_run(nranks):
    return Job(
        Machine(hornet(), nranks=nranks),
        REGISTRY["bcast_opt"].build(nranks, NBYTES, 0),
        working_set=NBYTES,
    ).run()


def test_replay_vs_des_micro(benchmark):
    """Replay reproduces the DES bitwise and beats it on wall time."""
    rows = [
        f"Replay engine micro (bcast_opt, nbytes={NBYTES}, hornet):",
        f"  {'P':>4} {'sends':>6} {'DES s':>8} {'extract s':>10} "
        f"{'emit s':>7} {'replay s':>9} {'speedup':>8} {'incl-ext':>9}",
    ]
    speedups = {}
    for nranks in RANKS:
        t_ext0 = perf_counter()
        schedule = extract_schedule(
            nranks, REGISTRY["bcast_opt"].build(nranks, NBYTES, 0)
        )
        compiled = compile_schedule(schedule)
        t_ext = perf_counter() - t_ext0
        t_emit, emitted = _best_of(lambda: emit_schedule("bcast_opt", nranks, NBYTES))

        t_des, des = _best_of(lambda: _des_run(nranks))
        t_rep, rep = _best_of(
            lambda: ReplayEngine(
                Machine(hornet(), nranks=nranks), compiled, working_set=NBYTES
            ).run()
        )
        rep_emitted = ReplayEngine(
            Machine(hornet(), nranks=nranks), emitted, working_set=NBYTES
        ).run()
        # Equality first: a fast wrong answer is worthless.
        for replayed in (rep, rep_emitted):
            assert replayed.time == des.time  # bitwise
            assert replayed.counters.messages == des.counters.messages
            assert replayed.counters.bytes == des.counters.bytes
            assert replayed.flows_completed == des.flows_completed

        speedups[nranks] = t_des / t_rep
        rows.append(
            f"  {nranks:>4} {compiled.n_sends:>6} {t_des:>8.3f} {t_ext:>10.3f} "
            f"{t_emit:>7.4f} {t_rep:>9.3f} {t_des / t_rep:>7.2f}x "
            f"{t_des / (t_rep + t_ext):>8.2f}x"
        )
    publish("replay_micro", "\n".join(rows))
    assert max(speedups.values()) >= SPEEDUP_BAR, speedups

    largest = max(RANKS)
    compiled = emit_schedule("bcast_opt", largest, NBYTES)
    benchmark.pedantic(
        lambda: ReplayEngine(
            Machine(hornet(), nranks=largest), compiled, working_set=NBYTES
        ).run(),
        rounds=1,
        iterations=1,
    )
