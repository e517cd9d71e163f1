"""Tests for the coroutine stepper and Proc wrapper."""

import pytest

from repro.errors import SimulationError
from repro.sim import Proc, step_coroutine, ensure_generator
from repro.sim.process import BLOCKED, throw_into


def echo_program():
    a = yield "op1"
    b = yield ("op2", a)
    return a + b


class TestStepCoroutine:
    def test_prime_and_send(self):
        gen = echo_program()
        first = step_coroutine(gen)
        assert not first.done and first.value == "op1"
        second = step_coroutine(gen, 10)
        assert not second.done and second.value == ("op2", 10)
        final = step_coroutine(gen, 32)
        assert final.done and final.value == 42

    def test_return_none(self):
        def prog():
            yield "x"

        gen = prog()
        step_coroutine(gen)
        outcome = step_coroutine(gen, None)
        assert outcome.done and outcome.value is None

    def test_throw_into(self):
        log = []

        def prog():
            try:
                yield "x"
            except ValueError:
                log.append("caught")
                yield "recovered"

        gen = prog()
        step_coroutine(gen)
        outcome = throw_into(gen, ValueError("boom"))
        assert log == ["caught"]
        assert outcome.value == "recovered"

    def test_throw_uncaught_propagates(self):
        def prog():
            yield "x"

        gen = prog()
        step_coroutine(gen)
        with pytest.raises(ValueError):
            throw_into(gen, ValueError("boom"))


class TestEnsureGenerator:
    def test_accepts_generator(self):
        gen = echo_program()
        assert ensure_generator(gen) is gen

    def test_rejects_plain_function(self):
        with pytest.raises(SimulationError) as exc:
            ensure_generator(lambda: None, what="rank 3 program")
        assert "rank 3 program" in str(exc.value)
        assert "yield from" in str(exc.value)

    def test_rejects_list(self):
        with pytest.raises(SimulationError):
            ensure_generator([1, 2, 3])


class TestProc:
    def test_lifecycle(self):
        proc = Proc("rank0", echo_program())
        assert not proc.started and not proc.finished
        out1 = proc.advance()
        assert proc.started and out1.value == "op1"
        out2 = proc.advance(1)
        assert out2.value == ("op2", 1)
        out3 = proc.advance(2)
        assert out3.done and proc.finished and proc.result == 3

    def test_advance_after_finish_raises(self):
        def prog():
            return
            yield  # pragma: no cover

        proc = Proc("p", prog())
        proc.advance()
        with pytest.raises(SimulationError):
            proc.advance()

    def test_repr_states(self):
        proc = Proc("p", echo_program())
        assert "runnable" in repr(proc)
        proc.blocked_on = "recv from 3"
        assert "blocked on recv from 3" in repr(proc)
        proc.advance()
        proc.advance(0)
        proc.advance(0)
        assert "finished" in repr(proc)

    def test_wraps_only_generators(self):
        with pytest.raises(SimulationError):
            Proc("p", 42)


class TestDrive:
    def test_runs_until_an_op_blocks(self):
        proc = Proc("p", echo_program())
        seen = []

        def execute(idx, op):
            seen.append((idx, op))
            return BLOCKED if op != "op1" else 7

        assert proc.drive(None, 3, execute) is False
        assert seen == [(3, "op1"), (3, ("op2", 7))]
        assert proc.started and not proc.finished

    def test_resumes_and_finishes(self):
        proc = Proc("p", echo_program())
        assert proc.drive(None, 0, lambda idx, op: BLOCKED) is False
        assert proc.drive(1, 0, lambda idx, op: 2) is True
        assert proc.finished and proc.result == 3
        assert proc.blocked_on is None

    def test_drive_after_finish_raises(self):
        def prog():
            return "done"
            yield  # pragma: no cover

        proc = Proc("p", prog())
        assert proc.drive(None, 0, lambda idx, op: None) is True
        assert proc.result == "done"
        with pytest.raises(SimulationError, match="already finished"):
            proc.drive(None, 0, lambda idx, op: None)
