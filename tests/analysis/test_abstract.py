"""Tests for the symbolic abstract domain (repro.analysis.abstract).

The certificate checker's verdicts are only as trustworthy as the
domain underneath, so these tests exercise the domain directly: linear
arithmetic, Fourier-Motzkin entailment, the divisibility rules (pof2
chain, residue rewriting, contrapositive), and the modular interval
sets — plus brute-force soundness spot checks against concrete
enumeration.
"""

from fractions import Fraction

import pytest

from repro.analysis.abstract import (
    AbstractDomainError,
    Env,
    Interval,
    RingSet,
    SymSet,
    const,
    lin,
    var,
)

P = var("P")
e = var("e")
s = var("s")


def evaluate(expr, values):
    """The concrete value of a linear term: the ground truth the
    entailment soundness checks compare against."""
    total = expr.constant
    for sym, c in expr.coeffs:
        total += c * values[sym]
    return total


class TestLin:
    def test_arithmetic(self):
        expr = 2 * P - e + 3
        assert expr.coeff("P") == 2
        assert expr.coeff("e") == -1
        assert evaluate(expr, {"P": 8, "e": 3}) == Fraction(16)

    def test_sub_and_neg(self):
        assert ((P - P) + 0).is_constant
        assert evaluate(-(P - 1), {"P": 5}) == -4
        assert evaluate(3 - P, {"P": 1}) == 2

    def test_str_roundtrippable_enough(self):
        assert "P" in str(P - 1)

    def test_lin_builder(self):
        expr = lin(-1, P=1)
        assert evaluate(expr, {"P": 4}) == 3


class TestEntailment:
    def test_basic_order(self):
        env = Env().assume(P - 2)  # P >= 2
        assert env.entails(P - 2)
        assert env.entails(P - 1)  # P >= 1 follows
        assert not env.entails(P - 3)  # P >= 3 does not

    def test_integer_strengthening(self):
        # P > 1 over integers means P >= 2: entails_lt uses the -1 slack.
        env = Env().assume(P - 2)
        assert env.entails_lt(const(1), P)
        assert not env.entails_lt(const(2), P)

    def test_entails_eq(self):
        env = Env().assume_eq(e, 1)
        assert env.entails_eq(e, 1)
        assert not env.entails_eq(e, 2)

    def test_infeasible_env_detected(self):
        env = Env().assume(P - 2, 1 - P)  # P >= 2 and P <= 1
        assert not env.feasible()

    def test_split_partitions(self):
        env = Env().assume(P - 2)
        hi, lo = env.split(P - 5)  # P >= 5 vs P <= 4
        assert hi.entails(P - 5)
        assert lo.entails(4 - P)
        assert hi.feasible() and lo.feasible()

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(AbstractDomainError):
            Env().entails(P.scale(Fraction(1, 2)))

    def test_soundness_against_enumeration(self):
        # Any entailed fact must hold at every concrete model.
        env = Env().assume(P - 2, e - 1, P - e)  # 2<=P, 1<=e<=P
        claims = [P - e, P + e - 3, 2 * P - e - 2]
        for claim in claims:
            assert env.entails(claim)
            for Pv in range(2, 12):
                for ev in range(1, Pv + 1):
                    assert evaluate(claim, {"P": Pv, "e": ev}) >= 0


class TestDivisibility:
    def test_constant_divides(self):
        env = Env()
        assert env.divisibility(4 * P, 2) is True

    def test_pof2_gap_rule(self):
        # pof2 m, M with m <= M  =>  m | M  (powers of two form a chain).
        m, M = var("m"), var("M")
        env = Env().with_pof2("m", "M").assume(M - m)
        assert env.divisibility(M, m) is True

    def test_pof2_gap_needs_order(self):
        m, M = var("m"), var("M")
        env = Env().with_pof2("m", "M")  # no order: can't conclude
        assert env.divisibility(M, m) is not True

    def test_declared_multiple(self):
        m, u = var("m"), var("u")
        env = Env().with_pof2("m").with_multiple("u", 2 * m)
        assert env.divisibility(u, m) is True

    def test_residue_rewriting(self):
        # u multiple of 2m  =>  (u + m) mod m == 0, (u + m + 1) mod m != 0
        # when 0 < 1 < m.
        m, u = var("m"), var("u")
        env = (
            Env()
            .with_pof2("m")
            .with_multiple("u", 2 * m)
            .assume(m - 2, u)
        )
        assert env.divisibility(u + m, m) is True
        assert env.divisibility(u + m + 1, m) is False

    def test_unknown_returns_none(self):
        env = Env().assume(P - 2)
        assert env.divisibility(P + 1, 3) is None

    def test_soundness_concrete(self):
        m, u = var("m"), var("u")
        env = (
            Env()
            .with_pof2("m")
            .with_multiple("u", 2 * m)
            .assume(m - 2, u)
        )
        for mv in (2, 4, 8):
            for uv in range(0, 64, 2 * mv):
                assert (uv + mv) % mv == 0
                assert (uv + mv + 1) % mv != 0


class TestIntervalsAndSets:
    def test_interval_contains(self):
        env = Env().assume(e - 1, P - e, P - 2)
        iv = Interval.make(0, e - 1)
        assert iv.contains(env, 0)
        assert iv.contains(env, e - 1)
        assert iv.excludes(env, e)
        assert iv.excludes(env, -1)

    def test_interval_length(self):
        env = Env().assume(e - 1)
        length = Interval.make(0, e - 1).length(env)
        assert length is not None
        assert env.assume_eq(e, 5).entails_eq(length, 5)

    def test_symset_union_cardinality(self):
        env = Env().assume(P - 4)
        ss = SymSet.make(Interval.make(0, 1), Interval.make(3, P - 1))
        card = ss.cardinality(env)
        assert card is not None
        assert env.entails_eq(card, P - 1)

    def test_ringset_wraps(self):
        env = Env().assume(P - 2, e - 1, P - e, s - 1, P - 1 - s)
        rs = RingSet.make(env, P, Interval.make(-s, e - 1))
        assert rs.contains(env, -s)
        assert rs.contains(env, 0)
        # Wrapped membership via the +P shift.
        assert rs.contains(env, -s + P - P)

    def test_ringset_cardinality(self):
        env = Env().assume(P - 3, s - 1, P - 2 - s)
        rs = RingSet.make(env, P, Interval.make(-s, 0))
        card = rs.cardinality(env)
        assert card is not None
        assert env.entails_eq(card, s + 1)

    def test_ringset_rejects_uncanonical_offsets(self):
        env = Env().assume(P - 2)
        rs = RingSet.make(env, P, Interval.make(0, 0))
        with pytest.raises(AbstractDomainError):
            rs.contains(env, 2 * P)


class TestRefutations:
    """Wrong claims must come back False, not True — the checker's
    value is in what it rejects."""

    def test_wrong_cardinality_rejected(self):
        env = Env().assume(P - 4)
        ss = SymSet.make(Interval.make(0, P - 1))
        card = ss.cardinality(env)
        assert card is not None
        assert not env.entails_eq(card, P - 1)

    def test_overclaimed_membership_rejected(self):
        env = Env().assume(P - 2, e - 1, P - e - 1)  # e <= P - 1
        iv = Interval.make(0, e - 1)
        assert not iv.contains(env, e)

    def test_vacuous_proofs_guarded(self):
        # An infeasible env proves everything; certificates must check
        # feasibility first, and the domain must report it honestly.
        env = Env().assume(P - 2, 1 - P)
        assert not env.feasible()
        assert env.entails(const(-1))  # vacuously true: flagged by feasible()
